import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from afzp.crossed import CrossedElement, CrossedPresentation, crossed_product
from afzp.cyclo import Scalar
from afzp.errors import ShapeMismatch
from afzp.matrix import Mat
from afzp.system import (Arrangement, EqHom, Slot, decompose, validate)

from conftest import (ElementCrossed, NotEquivariant, ProductCrossed,
                      block_exponents, conj_apply_action, crossed_offsets,
                      ctx_for, cycle_form, extend_hom, fixed_form, grid_mat,
                      identify_matrix_by_units, mat_sub, mixed_form,
                      rand_mat, rand_rat, rand_tuple)


def rand_element(cp, rng):
    return CrossedElement([rand_tuple(cp.source, rng)
                           for _ in range(cp.p)])


def test_fixed_identification_display_p2():
    # a0 + a1 U  ->  (a0 + a1 V, a0 - a1 V)
    ctx = ctx_for(2)
    c = fixed_form(ctx, [0, 1])
    cp = crossed_product(c)
    assert cp.block_sizes == [2, 2]
    a0 = Mat.from_rows(ctx, [[1, 2], [3, 4]])
    a1 = Mat.from_rows(ctx, [[5, 6], [7, 8]])
    V = c.pieces[0].v
    mats = cp.identify(CrossedElement([[a0], [a1]]))
    assert mats[0] == a0 + a1 * V
    assert mats[1] == mat_sub(a0, a1 * V)


def test_cycle_identification_display():
    # iota(a1, a2) lands as diag(a1, a2); U lands as the swap
    ctx = ctx_for(2)
    c = cycle_form(ctx, 1)
    cp = ElementCrossed(c)
    assert cp.block_sizes == [2]
    ident = cp.identify(cp.embed([Mat.diag(ctx, [5]), Mat.diag(ctx, [7])]))
    assert ident[0] == Mat.diag(ctx, [5, 7])
    assert cp.identify(cp.canonical_unitary())[0] == \
        Mat.permutation(ctx, [1, 0])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_identification_is_star_isomorphism(p):
    rng = random.Random(100 + p)
    ctx = ctx_for(p, p)
    exps = sorted(rng.randrange(p) for _ in range(rng.randint(1, 3)))
    c = fixed_form(ctx, exps)
    cp = ElementCrossed(c)
    one = cp.embed([Mat.identity(ctx, len(exps))])
    assert cp.identify(one) == [Mat.identity(ctx, len(exps))] * p
    for _ in range(20):
        x, y = rand_element(cp, rng), rand_element(cp, rng)
        assert cp.identify(cp.mul(x, y)) == \
            [a * b for a, b in zip(cp.identify(x), cp.identify(y))]
        assert cp.identify(cp.adjoint(x)) == \
            [m.dagger() for m in cp.identify(x)]
        assert cp.unidentify(cp.identify(x)) == x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cycle_identification_is_star_isomorphism(p):
    rng = random.Random(200 + p)
    ctx = ctx_for(p, p)
    c = cycle_form(ctx, rng.randint(1, 2))
    cp = crossed_product(c)
    for _ in range(12):
        x, y = rand_element(cp, rng), rand_element(cp, rng)
        assert cp.identify(cp.mul(x, y)) == \
            [a * b for a, b in zip(cp.identify(x), cp.identify(y))]
        assert cp.identify(cp.adjoint(x)) == \
            [m.dagger() for m in cp.identify(x)]
        assert cp.unidentify(cp.identify(x)) == x


@pytest.mark.parametrize("p", [2, 3])
def test_covariance(p):
    rng = random.Random(300 + p)
    ctx = ctx_for(p)
    for form in (fixed_form(ctx, sorted(rng.randrange(p) for _ in range(2))),
                 cycle_form(ctx, 2)):
        cp = ElementCrossed(form)
        u = cp.canonical_unitary()
        for _ in range(5):
            a = rand_tuple(form, rng)
            lhs = cp.identify(cp.mul(cp.mul(u, cp.embed(a)), cp.adjoint(u)))
            rhs = cp.identify(cp.embed(form.apply_action(a)))
            assert lhs == rhs


def test_embed_unit_is_crossed_unit():
    ctx = ctx_for(3)
    c = fixed_form(ctx, [0, 1])
    cp = ElementCrossed(c)
    one = cp.embed([Mat.identity(ctx, 2)])
    assert cp.identify(one) == [Mat.identity(ctx, 2)] * 3


@pytest.mark.parametrize("p", [2, 3])
def test_dual_action_identified_vs_coefficients(p):
    rng = random.Random(400 + p)
    ctx = ctx_for(p)
    for form in (fixed_form(ctx, sorted(rng.randrange(p) for _ in range(2))),
                 cycle_form(ctx, 1)):
        cp = ElementCrossed(form)
        for _ in range(6):
            x = rand_element(cp, rng)
            assert cp.identify(cp.dual_coeff(x)) == \
                cp.dual_apply(cp.identify(x))


def test_dual_system_is_valid_and_order_p():
    ctx = ctx_for(3)
    for form in (fixed_form(ctx, [0, 1, 1]), cycle_form(ctx, 2)):
        cp = ElementCrossed(form)
        dual = cp.dual_system()
        assert validate(dual).ok
        # dual applied p times is the identity automorphism
        mats = [rand_mat(ctx, random.Random(9), n) for n in cp.block_sizes]
        out = mats
        for _ in range(3):
            out = cp.dual_apply(out)
        assert out == mats


def test_dual_permutation_direction_fixed_piece():
    # block r of the image reads block r+1: a one-hot tuple moves down
    ctx = ctx_for(3)
    cp = ElementCrossed(fixed_form(ctx, [0]))
    mats = [Mat.zero(ctx, 1, 1) for _ in range(3)]
    mats[1] = Mat.identity(ctx, 1)
    moved = cp.dual_apply(mats)
    assert [m.entries[0][0] == ctx.one for m in moved] == \
        [True, False, False]


def test_averaging_projection_examples():
    ctx = ctx_for(2)
    cp = ElementCrossed(fixed_form(ctx, [0, 1]))
    ce, mats, ranks = cp.averaging_projection()
    V = cp.source.pieces[0].v
    half = ctx.scalar(1) / ctx.scalar(2)
    assert mats[0] == (Mat.identity(ctx, 2) + V) * half
    assert mats[1] == mat_sub(Mat.identity(ctx, 2), V) * half
    assert ranks == [1, 1] == cp.special

    cp4 = ElementCrossed(fixed_form(ctx, [0, 0, 0, 1]))
    _, _, ranks4 = cp4.averaging_projection()
    assert ranks4 == [3, 1] == cp4.special

    cpc = ElementCrossed(cycle_form(ctx, 1))
    _, matsc, ranksc = cpc.averaging_projection()
    assert ranksc == [1] == cpc.special
    q = matsc[0]
    assert q * q == q and q.dagger() == q


@pytest.mark.parametrize("p", [2, 3, 5])
def test_averaging_projection_class_is_special_element(p):
    rng = random.Random(500 + p)
    ctx = ctx_for(p, p)
    for _ in range(4):
        exps = sorted(rng.randrange(p) for _ in range(rng.randint(1, 4)))
        cp = ElementCrossed(fixed_form(ctx, exps))
        _, mats, ranks = cp.averaging_projection()
        assert ranks == cp.special
        assert cp.special == [exps.count(k) for k in range(p)]
        for q in mats:
            assert q * q == q and q.dagger() == q
    cp = ElementCrossed(cycle_form(ctx, 2))
    _, mats, ranks = cp.averaging_projection()
    assert ranks == cp.special == [2]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_double_crossed_product_single_block(p, n):
    ctx = ctx_for(p, p * p)
    exps = sorted((i % p) for i in range(n))
    form = fixed_form(ctx, exps)
    cp = crossed_product(form)
    dual = decompose(cp.dual_system())
    cp2 = crossed_product(dual)
    assert cp2.block_sizes == [p * n]
    assert sum(b * b for b in cp2.block_sizes) == p * p * n * n


def test_double_crossed_dimension_law_cycle_piece():
    ctx = ctx_for(2)
    form = cycle_form(ctx, 2)        # dim = 2 * 4 = 8
    cp = crossed_product(form)
    dual = decompose(cp.dual_system())
    cp2 = crossed_product(dual)
    assert sum(b * b for b in cp2.block_sizes) == 4 * 8


def test_extension_of_identity_is_identity():
    from afzp.system import identity_hom
    ctx = ctx_for(2)
    c = fixed_form(ctx, [0, 1])
    cp = crossed_product(c)
    ext = extend_hom(identity_hom(c), cp, cp)
    rng = random.Random(3)
    for _ in range(5):
        mats = [rand_mat(ctx, rng, n) for n in cp.block_sizes]
        assert ext.apply(mats) == mats


def test_extension_induced_classes():
    # psi: M1 -> M2, a -> a I2 into (M2, Ad diag(1, -1)): both minimal
    # projections of the two-summand crossed product map to class (1, 1)
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt, [Arrangement([Slot(0, 1, 0), Slot(0, 1, 1)],
                                     Mat.identity(ctx, 2))], unital=True)
    cpa, cpb = crossed_product(src), crossed_product(tgt)
    ext = extend_hom(h, cpa, cpb)
    for summand in range(2):
        mats = [Mat.zero(ctx, 1, 1), Mat.zero(ctx, 1, 1)]
        mats[summand] = Mat.identity(ctx, 1)
        image = ext.apply(mats)
        assert [m.trace().rational_part() for m in image] == [1, 1]


def test_extension_maps_averaging_projection_to_averaging_projection():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt, [Arrangement([Slot(0, 1, 0), Slot(0, 1, 1)],
                                     Mat.identity(ctx, 2))], unital=True)
    cpa, cpb = ElementCrossed(src), ElementCrossed(tgt)
    ext = extend_hom(h, cpa, cpb)
    _, qa, _ = cpa.averaging_projection()
    _, qb, _ = cpb.averaging_projection()
    assert ext.apply(qa) == qb


def test_extension_intertwines_duals():
    rng = random.Random(77)
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt, [Arrangement([Slot(0, 1, 0), Slot(0, 1, 1)],
                                     Mat.identity(ctx, 2))], unital=True)
    cpa, cpb = ElementCrossed(src), ElementCrossed(tgt)
    ext = extend_hom(h, cpa, cpb)
    for _ in range(8):
        mats = cpa.identify(rand_element(cpa, rng))
        assert ext.apply(cpa.dual_apply(mats)) == \
            cpb.dual_apply(ext.apply(mats))


def test_extend_hom_rejects_nonequivariant():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0, 1])
    tgt = fixed_form(ctx, [0, 0, 0, 1])
    h = EqHom(src, tgt, [Arrangement([Slot(0, 2), Slot(0, 2)],
                                     Mat.identity(ctx, 4))], unital=True)
    with pytest.raises(NotEquivariant):
        extend_hom(h, crossed_product(src), crossed_product(tgt))


def test_identify_matrix_shape():
    ctx = ctx_for(2)
    cp = crossed_product(fixed_form(ctx, [0, 1]))
    m = cp.identify_matrix()
    assert m.rows == 8 and m.cols == 8


@st.composite
def _identify_forms(draw):
    """Fixed, cycle and mixed forms of one to three pieces at p in
    {2, 3, 5} and field orders p and 4p^2."""
    p = draw(st.sampled_from([2, 3, 5]))
    fixed = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).map(
        lambda e: ("fixed", sorted(e)))
    cycle = st.tuples(st.just("cycle"), st.integers(1, 3))
    specs = draw(st.lists(fixed | cycle, min_size=1, max_size=3))
    return mixed_form(ctx_for(p, draw(st.sampled_from([p, 4 * p * p]))),
                      specs)


@settings(max_examples=40, deadline=None)
@example(fixed_form(ctx_for(3, 3), [0, 1, 1, 2]))
@example(cycle_form(ctx_for(5), 2))
@example(mixed_form(ctx_for(2, 2), [("cycle", 2), ("fixed", [0, 1]),
                                    ("cycle", 1)]))
@given(_identify_forms())
def test_identify_matrix_matches_identify_on_every_unit(form):
    """identify_matrix, written from the exponents, equals the oracle's
    identify (products with the powers of V) applied to each matrix
    unit."""
    cp = crossed_product(form)
    assert cp.identify_matrix() == identify_matrix_by_units(
        ProductCrossed(form))


def test_identify_matrix_calls_no_identify(monkeypatch):
    form = mixed_form(ctx_for(3), [("fixed", [0, 2]), ("cycle", 2)])
    cp = crossed_product(form)
    want = identify_matrix_by_units(ProductCrossed(form))

    def refuse(self, ce):
        raise AssertionError("identify called")
    monkeypatch.setattr(CrossedPresentation, "identify", refuse)
    assert cp.identify_matrix() == want


def test_identify_matrix_is_built_once_per_presentation(monkeypatch):
    """identify_matrix builds M once, without M^dagger M; identify and
    averaging_projection apply it. The first unidentify builds M^-1 =
    D^-1 M^dagger with one dagger, and later ones reuse it. Another
    presentation of the same form builds its own M and M^-1."""
    form = mixed_form(ctx_for(3), [("fixed", [0, 2]), ("cycle", 2)])
    cp = ElementCrossed(form)
    x = rand_element(cp, random.Random(5))
    daggers, dagger = [], Mat.dagger

    def counted(self):
        daggers.append(self.rows)
        return dagger(self)
    monkeypatch.setattr(Mat, "dagger", counted)
    M = cp.identify_matrix()
    y = cp.identify(x)
    cp.averaging_projection()
    assert cp.identify_matrix() is M and daggers == []
    assert cp.unidentify(y) == x and daggers == [M.rows]
    assert cp.unidentify(cp.identify(x)) == x
    assert cp.identify_matrix() is M and daggers == [M.rows]
    other = crossed_product(form)
    assert other.identify(x) == y and other.unidentify(y) == x
    assert other.identify_matrix() == M and other.identify_matrix() is not M
    assert daggers == [M.rows] * 2


def test_identifying_zero_does_no_scalar_multiplication(monkeypatch):
    """Zero blocks cost no arithmetic: once M and its inverse are built,
    identify and unidentify of zero multiply no Scalar."""
    cp = ElementCrossed(mixed_form(ctx_for(5), [("fixed", [0, 1, 3]),
                                                 ("cycle", 2)]))
    cp.unidentify(cp.identify(cp.canonical_unitary()))

    def refuse(self, other):
        raise AssertionError("Scalar multiplied")
    monkeypatch.setattr(Scalar, "__mul__", refuse)
    monkeypatch.setattr(Scalar, "__rmul__", refuse)
    zero = cp.identify(cp.zero_element())
    assert [(m.rows, m.is_zero()) for m in zero] == \
        [(n, True) for n in cp.block_sizes]
    assert cp.unidentify(zero) == cp.zero_element()


# -- entrywise identification against the V^j products -------------------------

def _rand_entry(ctx, rng):
    """Zero one time in four, else a sum of one or two rational multiples
    of N-th roots of unity, so mostly not rational."""
    if rng.random() < 0.25:
        return ctx.zero
    return sum((rand_rat(rng) * ctx.root(rng.randrange(ctx.order))
                for _ in range(rng.randint(1, 2))), ctx.zero)


def _rand_block(ctx, rng, rows, cols, zero):
    return grid_mat(ctx, rows, cols,
                    [[ctx.zero if zero else _rand_entry(ctx, rng)
                      for _ in range(cols)] for _ in range(rows)])


@st.composite
def _crossed_cases(draw):
    """(form, rng, zeros): a form of one to three fixed pieces (sorted
    exponents, repeats and gaps allowed) and cycle pieces at p in
    {2, 3, 5, 7} and every field order (only order 7 at p = 7), a seeded
    rng for dense entries, and which drawn blocks are all zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    order = draw(st.sampled_from([7] if p == 7 else [p, p * p, 4 * p * p]))
    fixed = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).map(
        lambda e: ("fixed", sorted(e)))
    specs = draw(st.lists(fixed | st.tuples(st.just("cycle"),
                                            st.integers(1, 2)),
                          min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zeros = draw(st.lists(st.booleans(), min_size=8, max_size=8))
    return mixed_form(ctx_for(p, order), specs), rng, zeros


def _blocks(ctx, rng, sizes, zeros):
    return [_rand_block(ctx, rng, n, n, zeros[b % len(zeros)])
            for b, n in enumerate(sizes)]


@settings(max_examples=60, deadline=None)
@example((mixed_form(ctx_for(2, 4), [("fixed", [0, 0, 1]), ("cycle", 1)]),
          random.Random(1), [False] * 8))
@example((mixed_form(ctx_for(5, 100), [("fixed", [1, 1, 4])]),
          random.Random(2), [False, False, True, False, True, False, True,
                             True]))
@given(_crossed_cases())
def test_entrywise_identification_matches_products(case):
    """identify, unidentify and apply_action, computed entry by entry from
    each fixed piece's exponents, equal the products with V^j and the
    conjugation by V exactly, on dense elements with all-zero blocks."""
    form, rng, zeros = case
    ctx, p = form.ctx, form.p
    cp, oracle = crossed_product(form), ProductCrossed(form)
    ce = CrossedElement([_blocks(ctx, rng, form.block_sizes, zeros[j:])
                         for j in range(p)])
    assert cp.identify(ce) == oracle.identify(ce)
    mats = _blocks(ctx, rng, cp.block_sizes, zeros)
    assert cp.unidentify(mats) == oracle.unidentify(mats)
    a = _blocks(ctx, rng, form.block_sizes, zeros[1:])
    assert form.apply_action(a) == conj_apply_action(form, a)


@settings(max_examples=40, deadline=None)
@given(_crossed_cases())
def test_identify_matrix_columns_are_orthogonal(case):
    """M^dagger M = D is diagonal, p on each fixed piece's columns and 1
    on each cycle piece's: the closed form unidentify's M^-1 = D^-1
    M^dagger is read from."""
    form = case[0]
    ctx, p = form.ctx, form.p
    M = crossed_product(form).identify_matrix()
    want = [ctx.scalar(p if piece.kind == "fixed" else 1)
            for piece in form.pieces
            for _ in range(piece.block_count(p) * piece.n ** 2)] * p
    assert M.dagger() * M == Mat.diag(ctx, want)


@settings(max_examples=40, deadline=None)
@example(mixed_form(ctx_for(3), []))
@example(mixed_form(ctx_for(5), [("cycle", 2), ("fixed", [0, 4]),
                                 ("cycle", 1), ("fixed", [2])]))
@given(_identify_forms())
def test_recorded_crossed_layout_matches_the_oracles(form):
    """The crossed offsets and per-block exponents a form records equal
    the offsets counted piece by piece and the exponents found by
    bisecting the piece offsets (a cycle block records (), its zeros
    unstored), and the averaging projection's ranks equal the special
    element read from them."""
    assert form.crossed_offsets == crossed_offsets(form)
    assert len(form.block_exps) == form.m
    for t, n in enumerate(form.block_sizes):
        assert tuple(form.block_exps[t] or [0] * n) == \
            tuple(block_exponents(form, t))
    cp = ElementCrossed(form)
    assert cp.averaging_projection()[2] == cp.special


def test_form_with_no_pieces_identifies_to_no_blocks():
    cp = crossed_product(mixed_form(ctx_for(3), []))
    assert cp.block_sizes == [] and cp.identify(cp.zero_element()) == []
    assert cp.unidentify([]) == cp.zero_element()


@settings(max_examples=30, deadline=None)
@given(_crossed_cases(), st.data())
def test_misshaped_fixed_blocks_raise(case, data):
    """A nonzero block whose shape is not its fixed piece's raises
    ShapeMismatch in both identify and unidentify and in apply_action
    (conjugating by V used to cut a smaller block silently). So does a
    missing or extra block or coefficient in identify and unidentify
    (a short tuple used to end in IndexError, an extra block was
    ignored), a missing or extra block or a cycle block not n x n in
    apply_action (which used to end in IndexError, return the extra
    block, or move the block), and a missing or extra coefficient in
    mul and adjoint (which used to end in IndexError or be ignored)."""
    form, rng, _ = case
    ctx, p = form.ctx, form.p
    fixed = [i for i, piece in enumerate(form.pieces) if piece.kind == "fixed"]
    assume(fixed)
    idx = data.draw(st.sampled_from(fixed))
    n, sb = form.pieces[idx].n, form.piece_offsets[idx]
    rows, cols = data.draw(st.tuples(st.integers(1, n + 1),
                                     st.integers(1, n + 1)))
    if (rows, cols) == (n, n):
        cols = n + 1
    bad = [list(row) for row in _rand_block(ctx, rng, rows, cols, False)
           .entries]
    bad[0][0] = ctx.one
    bad = grid_mat(ctx, rows, cols, bad)
    cp, oracle = crossed_product(form), ProductCrossed(form)
    ce = cp.zero_element()
    ce.coeffs[data.draw(st.integers(0, p - 1))][sb] = bad
    mats = _blocks(ctx, rng, cp.block_sizes, [False])
    mats[form.crossed_offsets[idx] + data.draw(st.integers(0, p - 1))] = bad
    a = _blocks(ctx, rng, form.block_sizes, [False])
    a[sb] = bad
    j, z = data.draw(st.integers(0, p - 1)), cp.zero_element().coeffs
    miscounted = [z[:j] + [z[j][:-1]] + z[j + 1:],
                  z[:j] + [z[j] + z[j][:1]] + z[j + 1:], z[1:], z + z[:1]]
    good = _blocks(ctx, rng, cp.block_sizes, [False])
    good_a = _blocks(ctx, rng, form.block_sizes, [False])
    misshaped_cycles = []
    for piece, off in zip(form.pieces, form.piece_offsets):
        if piece.kind == "cycle":
            b = list(good_a)
            b[off + data.draw(st.integers(0, p - 1))] = \
                Mat.zero(ctx, piece.n, piece.n + 1)
            misshaped_cycles.append(b)
    zero, short, long = (cp.zero_element(), CrossedElement(z[1:]),
                         CrossedElement(z + z[:1]))
    for call, arg in ((cp.identify, ce), (oracle.identify, ce),
                      (cp.unidentify, mats), (oracle.unidentify, mats),
                      (form.apply_action, a), (cp.unidentify, good[1:]),
                      (cp.unidentify, good + good[:1]),
                      *((cp.identify, CrossedElement(c)) for c in miscounted),
                      (form.apply_action, good_a[:-1]),
                      (form.apply_action, good_a + good_a[:1]),
                      *((form.apply_action, b) for b in misshaped_cycles),
                      (lambda x: cp.mul(x, zero), short),
                      (lambda x: cp.mul(x, zero), long),
                      (lambda y: cp.mul(zero, y), short),
                      (lambda y: cp.mul(zero, y), long),
                      (cp.adjoint, short), (cp.adjoint, long)):
        with pytest.raises(ShapeMismatch):
            call(arg)


# -- powers of the action --------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("square", [False, True], ids=["order-p",
                                                      "order-4p2"])
def test_apply_action_power_is_repeated_action(p, square):
    """apply_action(a, j) equals j applications of apply_action(a) and of
    the conjugation oracle, for j in 0..2p, on fixed, cycle and mixed
    forms; alpha^p is the identity."""
    ctx = ctx_for(p, 4 * p * p if square else p)
    rng = random.Random(p)
    for form in (fixed_form(ctx, [0, 1, p - 1]), cycle_form(ctx, 2),
                 mixed_form(ctx, [("fixed", [0, 0, p - 1]), ("cycle", 1),
                                  ("fixed", [1])])):
        a = _blocks(ctx, rng, form.block_sizes, [False])
        repeated = oracle = a
        for j in range(2 * p + 1):
            assert form.apply_action(a, j) == repeated == oracle, j
            repeated = form.apply_action(repeated)
            oracle = conj_apply_action(form, oracle)
        assert form.apply_action(a, p) == a


def _count_actions(monkeypatch, form):
    """The powers j of every apply_action(a, j) call on form, as made."""
    calls, apply = [], form.apply_action

    def counted(a, j=1):
        calls.append(j)
        return apply(a, j)
    monkeypatch.setattr(form, "apply_action", counted)
    return calls


def test_crossed_algebra_applies_each_power_once(monkeypatch):
    """mul of two embedded elements applies no power of the action; mul
    applies alpha^j once per nonzero a_j (j >= 1) and coefficient b_k,
    and adjoint once per coefficient m >= 1."""
    p = 3
    form = mixed_form(ctx_for(p), [("fixed", [0, 2]), ("cycle", 1)])
    cp, rng = ElementCrossed(form), random.Random(5)
    calls = _count_actions(monkeypatch, form)
    x, y = rand_element(cp, rng), rand_element(cp, rng)
    cp.mul(cp.embed(x.coeffs[0]), cp.embed(y.coeffs[0]))
    assert calls == []
    x.coeffs[1] = cp.zero_element().coeffs[1]
    cp.mul(x, y)
    assert calls == [2] * p
    calls.clear()
    cp.adjoint(x)
    assert calls == list(range(1, p))
