import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import afzp.matrix
import afzp.system
from afzp._rat import RAT
from afzp.classify import conjugate_hom, ksearch, lift
from afzp.errors import (NonDiagonalizableWithinField, SystemMismatch,
                         TwistNotRootOfUnity, TwistRootOutsideField)
from afzp.matrix import Mat, diagonalizer
from afzp.kinv import invariant_of
from afzp.serialize import dumps, loads
from afzp.system import (Arrangement, EqHom, FdSystem, IrredPiece, Slot,
                         _iso_defect, _pattern_defect, decompose,
                         equal_as_maps, hom_compose, hom_validate,
                         identity_hom, maps_defect, root_sum, validate)

from conftest import (ORACLE_FIELDS, all_units_equal, all_units_equivariant,
                      ctx_for, cycle_form,
                      dense_diag_scaled, dense_pattern_defect, dense_support,
                      fixed_form, fixed_point_unitary, form_system,
                      generator_iso_defect, generators_equal,
                      generators_equivariant,
                      gram_products, grid_mat,
                      mixed_form, monomial_diagonalizer, oracle_matrix,
                      oracle_scalar, piece_specs, sigma_power_is_identity,
                      sort_conjugator, system_action, transport, unit_tuple,
                      zero_grid)


def diag_system(ctx, values, p=None):
    return FdSystem(ctx, p or ctx.p, [len(values)], (0,),
                    [Mat.diag(ctx, values)])


def test_validate_accepts_order_p_inner_action():
    ctx = ctx_for(2)
    assert validate(diag_system(ctx, [1, -1])).ok


def test_validate_rejects_wrong_order():
    ctx = ctx_for(2)
    bad = diag_system(ctx, [ctx.one, ctx.root(4)])   # diag(1, i)
    rep = validate(bad)
    assert not rep.ok
    assert any("order p" in item.name for item in rep.failures())


def test_validate_reports_nonunitary():
    ctx = ctx_for(2)
    s = FdSystem(ctx, 2, [1], (0,), [Mat.from_rows(ctx, [[2]])])
    rep = validate(s)
    assert any("unitary" in item.name for item in rep.failures())


def test_decompose_fixed_block_keeps_sorted_diagonal():
    ctx = ctx_for(2)
    c = decompose(diag_system(ctx, [1, 1, 1, -1]))
    assert len(c.pieces) == 1
    assert c.pieces[0].kind == "fixed"
    assert c.pieces[0].v == Mat.diag(ctx, [1, 1, 1, -1])


def test_decompose_sorts_unsorted_diagonal():
    ctx = ctx_for(2)
    c = decompose(diag_system(ctx, [-1, 1, -1, 1]))
    assert c.pieces[0].v == Mat.diag(ctx, [1, 1, -1, -1])
    # the rewriting transports the action exactly (checked inside), and
    # transports elements consistently
    s = diag_system(ctx, [-1, 1, -1, 1])
    a = unit_tuple(ctx, s.block_sizes, 0, 0, 0)
    moved = transport(s, c, a)
    assert moved[0].trace() == ctx.one


def test_decompose_trivial_swap_cycle():
    ctx = ctx_for(2)
    s = FdSystem(ctx, 2, [1, 1], (1, 0), [Mat.identity(ctx, 1)] * 2)
    c = decompose(s)
    assert len(c.pieces) == 1
    assert c.pieces[0].kind == "cycle" and c.pieces[0].n == 1


def test_decompose_absorbs_holonomy_twist():
    # blocks (1,1), swap, impl (1, -1): holonomy -1, absorbed by a
    # fourth root of unity; conjugated action is the exact swap
    ctx = ctx_for(2)
    s = FdSystem(ctx, 2, [1, 1], (1, 0),
                 [Mat.identity(ctx, 1), Mat.diag(ctx, [-1])])
    c = decompose(s)     # internal check verifies exactness on all units
    assert c.pieces[0].kind == "cycle"
    zs = [c.iso.conjugators[i].entries[0][0] for i in range(2)]
    # the nontrivial conjugator is a primitive fourth root of unity
    assert zs[0] == ctx.one
    assert zs[1] ** 4 == ctx.one and zs[1] ** 2 != ctx.one
    # direct multiplication: transported action is the exact swap
    for (i, j) in ((0, 0), (1, 1)):
        a = unit_tuple(ctx, s.block_sizes, i, 0, 0)
        lhs = transport(s, c, system_action(s, a))
        rhs = c.apply_action(transport(s, c, a))
        assert lhs == rhs


def test_decompose_diagonalizes_monomial_unitary():
    ctx = ctx_for(2)
    s = FdSystem(ctx, 2, [2], (0,), [Mat.permutation(ctx, [1, 0])])
    c = decompose(s)
    assert c.pieces[0].v == Mat.diag(ctx, [1, -1])


def test_decompose_monomial_p3():
    ctx = ctx_for(3)
    shift = Mat.permutation(ctx, [1, 2, 0])
    c = decompose(FdSystem(ctx, 3, [3], (0,), [shift]))
    assert c.pieces[0].v == Mat.diag(
        ctx, [ctx.zeta_p(0), ctx.zeta_p(1), ctx.zeta_p(2)])


def test_decompose_rejects_dense_unitary():
    # a genuinely non-monomial implementing unitary is refused rather
    # than approximated
    ctx = ctx_for(2)
    g = ctx.sqrt_group_order().inv()
    h = Mat.from_rows(ctx, [[g, g], [g, -1 * g]])   # Hadamard-type
    assert h.is_unitary()
    with pytest.raises(NonDiagonalizableWithinField):
        decompose(FdSystem(ctx, 2, [2], (0,), [h]))


def test_decompose_swap_takes_one_plus_i_below_order_16():
    """At p = 2 the 2x2 swap's eigenvectors (e_0 +- e_1) / 2 have squared
    norm 1/2. Field order 4 takes the factor 2 from 1 + i, so the swap
    decomposes with Z = ((1 + i) / 2) [[1, 1], [1, -1]], a unitary over
    Q(i); order 2 holds neither 1 + i nor sqrt 2, refuses and names
    order 4."""
    ctx = ctx_for(2, 4)
    swap = Mat.permutation(ctx, [1, 0])
    c = decompose(FdSystem(ctx, 2, [2], (0,), [swap]))
    assert c.pieces == [IrredPiece("fixed", 2, Mat.diag(ctx, [1, -1]))]
    s = (ctx.one + ctx.root(1)) * RAT(1, 2)
    Z = c.iso.conjugators[0]
    assert Z == Mat.from_rows(ctx, [[s, s], [s, -1 * s]])
    assert Z.is_unitary() and Z * swap * Z.dagger() == Mat.diag(ctx, [1, -1])
    ctx2 = ctx_for(2, 2)
    with pytest.raises(TwistRootOutsideField, match="field order >= 4"):
        decompose(FdSystem(ctx2, 2, [2], (0,),
                           [Mat.permutation(ctx2, [1, 0])]))


def test_decompose_takes_one_p_th_root_of_the_holonomy():
    """A fixed block [[0, x], [1, 0]] (holonomy x) and a 2-cycle with
    implementing unitaries x and 1 share one p-th root: x = (3 + 4i)/5,
    not a root of unity, raises TwistNotRootOfUnity naming the orbit,
    and x = i needs zeta_8, outside the order-4 field."""
    ctx = ctx_for(2, 4)
    i = ctx.root(1)
    for x, error, match in (
            (ctx.scalar(RAT(3, 5)) + i * RAT(4, 5), TwistNotRootOfUnity,
             r"holonomy of orbit \[0"),
            (i, TwistRootOutsideField, "field order >= 8")):
        fixed = FdSystem(ctx, 2, [2], (0,),
                         [Mat.from_rows(ctx, [[0, x], [1, 0]])])
        cycle = FdSystem(ctx, 2, [1, 1], (1, 0),
                         [Mat.diag(ctx, [x]), Mat.identity(ctx, 1)])
        for s in (fixed, cycle):
            with pytest.raises(error, match=match):
                decompose(s)


def test_decompose_idempotent_on_canonical_systems():
    ctx = ctx_for(2)
    c = decompose(diag_system(ctx, [1, -1]))
    again = decompose(form_system(c))
    assert again.pieces == c.pieces
    assert all(z == Mat.identity(ctx, z.rows)
               for z in again.iso.conjugators)

    cyc = decompose(FdSystem(ctx, 2, [1, 1], (1, 0),
                             [Mat.identity(ctx, 1)] * 2))
    again = decompose(form_system(cyc))
    assert again.pieces == cyc.pieces
    assert all(z == Mat.identity(ctx, z.rows)
               for z in again.iso.conjugators)


def test_decompose_piece_order_deterministic():
    # fixed pieces first, then cycles; fixed sorted by size then diagonal
    ctx = ctx_for(2)
    s = FdSystem(ctx, 2, [1, 1, 2, 1],
                 (0, 3, 2, 1),
                 [Mat.identity(ctx, 1), Mat.identity(ctx, 1),
                  Mat.diag(ctx, [1, -1]), Mat.identity(ctx, 1)])
    c = decompose(s)
    kinds = [(pc.kind, pc.n) for pc in c.pieces]
    assert kinds == [("fixed", 1), ("fixed", 2), ("cycle", 1)]


def test_orbit_sizes_are_one_or_p():
    ctx = ctx_for(3)
    s = FdSystem(ctx, 3, [1, 1], (1, 0),
                 [Mat.identity(ctx, 1)] * 2)     # sigma^3 != id
    rep = validate(s)
    assert not rep.ok


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sigma_order_check_matches_the_power_oracle(p):
    """validate's "sigma^p = id", read off sigma's orbits, agrees with
    p passes over the permutation, on random permutations of up to 8
    blocks of size 1: most are not of order p, and a 3-cycle at p = 2 is
    among them."""
    ctx, rng = ctx_for(p), random.Random(p)
    sigmas = [(1, 2, 0)] + [tuple(rng.sample(range(m), m))
                            for m in range(1, 9) for _ in range(6)]
    assert any(not sigma_power_is_identity(s, p) for s in sigmas)
    assert any(sigma_power_is_identity(s, p) and s != tuple(range(len(s)))
               for s in sigmas)
    for sigma in sigmas:
        m = len(sigma)
        rep = validate(FdSystem(ctx, p, [1] * m, sigma,
                                [Mat.identity(ctx, 1)] * m))
        got = [it.ok for it in rep.items if it.name == "sigma^p = id"]
        assert got == [sigma_power_is_identity(sigma, p)], sigma


def test_hom_validate_identity():
    ctx = ctx_for(2)
    c = decompose(diag_system(ctx, [1, 1, 1, -1]))
    assert hom_validate(identity_hom(c)).ok


def test_hom_validate_naive_doubling_fails_with_witness():
    # a -> diag(a, a) from (M2, Ad diag(1,-1)) into (M4, Ad diag(1,1,1,-1))
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0, 1])
    tgt = fixed_form(ctx, [0, 0, 0, 1])
    h = EqHom(src, tgt,
              [Arrangement([Slot(0, 2), Slot(0, 2)], Mat.identity(ctx, 4))],
              unital=True)
    rep = hom_validate(h)
    assert not rep.ok
    bad = [item for item in rep.failures() if item.name == "equivariance"]
    assert bad and "unit" in bad[0].detail


def test_hom_validate_unital_embedding():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt,
              [Arrangement([Slot(0, 1), Slot(0, 1)],
                           Mat.identity(ctx, 2))], unital=True)
    rep = hom_validate(h)
    assert rep.ok


def test_hom_validate_flags_wrong_unital_flag():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt,
              [Arrangement([Slot(0, 1), Slot(None, 1)],
                           Mat.identity(ctx, 2))], unital=True)
    rep = hom_validate(h)
    assert any("unital" in item.name for item in rep.failures())


def test_hom_compose_identity_is_neutral():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt,
              [Arrangement([Slot(0, 1), Slot(0, 1)],
                           Mat.identity(ctx, 2))], unital=True)
    assert hom_compose(identity_hom(tgt), h) == h
    assert hom_compose(h, identity_hom(src)) == h


def test_hom_compose_multiplicities_multiply():
    # M1 -> M2 -> M4 unital embeddings of trivial systems
    ctx = ctx_for(2)
    forms = [fixed_form(ctx, [0] * (2 ** k)) for k in range(3)]
    h1 = EqHom(forms[0], forms[1],
               [Arrangement([Slot(0, 1), Slot(0, 1)], Mat.identity(ctx, 2))],
               unital=True)
    h2 = EqHom(forms[1], forms[2],
               [Arrangement([Slot(0, 2), Slot(0, 2)], Mat.identity(ctx, 4))],
               unital=True)
    comp = hom_compose(h2, h1)
    assert hom_validate(comp).ok
    assert len(comp.arrangements[0].slots) == 4


def test_hom_compose_requires_matching_middle():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt,
              [Arrangement([Slot(0, 1), Slot(0, 1)],
                           Mat.identity(ctx, 2))], unital=True)
    with pytest.raises(SystemMismatch):
        hom_compose(h, h)


def test_hom_compose_associative():
    ctx = ctx_for(2)
    forms = [fixed_form(ctx, [0] * (2 ** k)) for k in range(4)]
    homs = []
    for k in range(3):
        n = 2 ** k
        homs.append(EqHom(forms[k], forms[k + 1],
                          [Arrangement([Slot(0, n), Slot(0, n)],
                                       Mat.identity(ctx, 2 * n))],
                          unital=True))
    left = hom_compose(homs[2], hom_compose(homs[1], homs[0]))
    right = hom_compose(hom_compose(homs[2], homs[1]), homs[0])
    assert left == right
    assert equal_as_maps(left, right)


def test_transport_roundtrip_random(rng):
    ctx = ctx_for(2)
    s = FdSystem(ctx, 2, [1, 1, 2], (1, 0, 2),
                 [Mat.identity(ctx, 1), Mat.diag(ctx, [-1]),
                  Mat.diag(ctx, [1, -1])])
    c = decompose(s)
    for _ in range(5):
        a = [Mat.from_rows(ctx, [[rng.randint(-2, 2) for _ in range(n)]
                                 for _ in range(n)])
             for n in s.block_sizes]
        lhs = transport(s, c, system_action(s, a))
        rhs = c.apply_action(transport(s, c, a))
        assert lhs == rhs


def test_hom_validate_checks_e00_of_1x1_blocks():
    # the shift on C^2 against Ad diag(1,-1) on M_2: 1x1 blocks have no
    # E_{i,i+1}, so only E_00 can witness the failure
    ctx = ctx_for(2)
    h = EqHom(cycle_form(ctx, 1), fixed_form(ctx, [0, 1]),
              [Arrangement([Slot(0, 1), Slot(1, 1)], Mat.identity(ctx, 2))],
              unital=True)
    rep = hom_validate(h)
    assert not rep.ok
    bad = [item for item in rep.failures() if item.name == "equivariance"]
    assert bad and "unit (0,0)" in bad[0].detail


def test_iso_defect_flags_non_unitary_conjugator():
    # 2*I conjugates both sides by the same scalar 4, so only the
    # unitarity check can see it
    ctx = ctx_for(2)
    s = diag_system(ctx, [1, -1])
    c = decompose(s)
    assert _iso_defect(s, c) is None
    c.iso.conjugators[0] = c.iso.conjugators[0] * ctx.scalar(2)
    assert _iso_defect(s, c) is not None


def test_equal_as_maps_requires_unitary_conjugators():
    # Ad diag(2, 1/2) fixes E_01 but not E_00: without the unitarity
    # check the generator comparison would call it the identity
    ctx = ctx_for(2)
    c = fixed_form(ctx, [0, 1])
    two = ctx.scalar(2)
    skewed = identity_hom(c)
    skewed.arrangements[0].conj = Mat.diag(ctx, [two, two.inv()])
    assert equal_as_maps(identity_hom(c), identity_hom(c))
    assert not all_units_equal(skewed, identity_hom(c))
    assert not equal_as_maps(skewed, identity_hom(c))
    assert maps_defect(skewed, identity_hom(c)) == \
        "conjugator 0 of hom 1 is not unitary"


def test_equal_as_maps_needs_an_arrangement_per_target_block():
    """A hom missing a target block's arrangement is not equal to a
    whole one in either order. Both used to compare equal, since the
    blocks were zipped, while hom_validate rejects the short hom."""
    ctx = ctx_for(2)
    c = cycle_form(ctx, 1)
    short = EqHom(c, c, identity_hom(c).arrangements[:1])
    assert not hom_validate(short).ok
    assert not equal_as_maps(short, identity_hom(c))
    assert not equal_as_maps(identity_hom(c), short)
    assert maps_defect(identity_hom(c), short) == \
        "hom 2 has 1 arrangements for 2 target blocks"


def test_equal_as_maps_needs_slots_that_fill_each_target_block():
    """Two slots of a 1x1 block against one slot and an unfilled row of
    a 2x2 block: the maps differ on every nonzero a. The short hom used
    to compare equal to the full one, and the other order ended in an
    IndexError."""
    ctx = ctx_for(2)
    src, tgt = fixed_form(ctx, [0]), fixed_form(ctx, [0, 0])
    one = Arrangement([Slot(0, 1)], Mat.identity(ctx, 2))
    two = Arrangement([Slot(0, 1), Slot(0, 1)], Mat.identity(ctx, 2))
    short, full = EqHom(src, tgt, [one], False), EqHom(src, tgt, [two])
    assert hom_validate(full).ok and not all_units_equal(short, full)
    assert not equal_as_maps(short, full)
    assert not equal_as_maps(full, short)
    assert maps_defect(short, full) == \
        "the slots of hom 1 do not fill target block 0"


def test_a_second_equal_as_maps_computes_no_gram_product_for_h1(
        monkeypatch):
    """A Mat keeps its unitarity verdict: the first comparison of h1
    with an equal copy forms X^dagger X once for each of h1's
    conjugators, a second comparison forms none. Without the kept
    verdict every call formed them again."""
    ctx = ctx_for(3)
    c = mixed_form(ctx, [("fixed", [0, 0, 1]), ("cycle", 2)])
    h1 = conjugate_hom(fixed_point_unitary(c, random.Random(5)),
                       identity_hom(c))
    ones = [Mat.identity(ctx, n) for n in c.block_sizes]
    h2, h3 = conjugate_hom(ones, h1), conjugate_hom(ones, h1)
    xs = [arr.conj for arr in h1.arrangements]
    seen, count = gram_products(monkeypatch)
    assert equal_as_maps(h1, h2)
    assert count(xs) == len(xs)
    seen.clear()
    assert equal_as_maps(h1, h3)
    assert count(xs) == 0


def _widening(draw, form):
    """A non-unital equivariant embedding of form into a form whose
    pieces are one or two larger: every block's slot is followed by a
    gap, and a fixed piece's conj sorts its drawn extra exponents in."""
    ctx, p = form.ctx, form.p
    specs, merged = [], []
    for piece in form.pieces:
        k = draw(st.integers(1, 2))
        if piece.kind == "fixed":
            exps = list(piece.exponents(p)) + draw(st.lists(
                st.integers(0, p - 1), min_size=k, max_size=k))
            specs.append(("fixed", sorted(exps)))
            merged.append(exps)
        else:
            specs.append(("cycle", piece.n + k))
            merged.append(None)
    wide = mixed_form(ctx, specs)
    arrs = []
    for piece, off, exps in zip(form.pieces, form.piece_offsets, merged):
        for b in range(off, off + piece.block_count(p)):
            n = wide.block_sizes[b]
            arrs.append(Arrangement(
                [Slot(b, piece.n), Slot(None, n - piece.n)],
                Mat.identity(ctx, n) if exps is None
                else sort_conjugator(ctx, exps)[0]))
    return EqHom(form, wide, arrs, unital=False)


def _fourier_block(ctx, n, at):
    """I_at (+) F_p (+) I: the p x p discrete Fourier unitary placed at
    position `at` of an n x n identity (the identity when it does not
    fit), a unitary that is not monomial."""
    p = ctx.p
    w = [list(row) for row in Mat.identity(ctx, n).entries]
    if at + p <= n:
        ginv = ctx.sqrt_group_order().inv()
        for j in range(p):
            for k in range(p):
                w[at + j][at + k] = ctx.zeta_p(j * k) * ginv
    return grid_mat(ctx, n, n, w)


@st.composite
def _lift_and_corruption(draw):
    """A valid lift between forms of at most two pieces, made non-unital
    by a widening with gaps or not, and a copy with one target block's
    conj right-multiplied by a root-of-unity monomial unitary or by a
    Fourier block, or left-multiplied by a fixed-point unitary times a
    permutation, or its slots permuted, or the conjs of one or of all
    blocks of a cycle target piece left-multiplied by one monomial
    unitary."""
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = ctx_for(p, None if p == 2 else p)
    src = mixed_form(ctx, draw(st.lists(st.sampled_from(piece_specs(p, 3)),
                                        min_size=1, max_size=2)))
    tgt = mixed_form(ctx, draw(st.lists(st.sampled_from(piece_specs(p, 3)),
                                        min_size=1, max_size=2)))
    pairs = ksearch(invariant_of(src), invariant_of(tgt), 3)
    h = lift(draw(st.sampled_from(pairs)), src, tgt) if pairs \
        else identity_hom(src)
    if draw(st.booleans()):
        h = hom_compose(_widening(draw, h.target), h)
    t = draw(st.integers(0, h.target.m - 1))
    n = h.target.block_sizes[t]
    arrs = [Arrangement(list(a.slots), a.conj) for a in h.arrangements]

    def monomial():
        perm = draw(st.permutations(range(n)))
        roots = draw(st.lists(st.integers(0, ctx.order - 1),
                              min_size=n, max_size=n))
        return Mat.permutation(ctx, perm) * \
            Mat.diag(ctx, [ctx.root(e) for e in roots])

    how = draw(st.sampled_from(["monomial", "fourier", "moved", "slots",
                                "cycle"]))
    if how == "monomial":
        arrs[t].conj = arrs[t].conj * monomial()
    elif how == "fourier":
        arrs[t].conj = arrs[t].conj * _fourier_block(
            ctx, n, draw(st.integers(0, n - 1)))
    elif how == "moved":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        w = fixed_point_unitary(h.target, rng)[t] * Mat.permutation(
            ctx, draw(st.permutations(range(n))))
        arrs[t].conj = w * arrs[t].conj
    elif how == "slots":
        arrs[t].slots = draw(st.permutations(arrs[t].slots))
    else:
        cycles = [off for off, piece in zip(h.target.piece_offsets,
                                            h.target.pieces)
                  if piece.kind == "cycle"]
        if cycles:
            t = draw(st.sampled_from(cycles))
            n = h.target.block_sizes[t]
        w = monomial()
        for b in range(t, t + p) if cycles and draw(st.booleans()) else [t]:
            arrs[b].conj = w * arrs[b].conj
    return h, EqHom(h.source, h.target, arrs, h.unital)


@settings(max_examples=60, deadline=None)
@given(_lift_and_corruption())
def test_generator_checks_match_all_units_oracle(case):
    h, bad = case
    assert hom_validate(h).ok and all_units_equivariant(h)
    assert hom_validate(bad).ok == generators_equivariant(bad) \
        == all_units_equivariant(bad)
    assert equal_as_maps(bad, h) == generators_equal(bad, h) \
        == all_units_equal(bad, h)
    assert equal_as_maps(h, h) and all_units_equal(h, h)


@st.composite
def _decomposable_system(draw):
    """A system of one to three orbits in shuffled block order: fixed
    blocks whose monomial implementing unitary has p-cycles and fixed
    points, and p-cycles of blocks with monomial implementing unitaries;
    every holonomy is the same root lam of exponent divisible by p."""
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = ctx_for(p, None if p == 2 else p)
    roots = st.integers(0, ctx.order - 1)
    k = draw(st.integers(0, ctx.order // p - 1))
    lam = ctx.root(p * k)

    def phases(count):
        return [ctx.root(e) for e in draw(st.lists(
            roots, min_size=count, max_size=count))]

    def fixed_impl(n):
        u = zero_grid(ctx, n)
        pos = draw(st.permutations(range(n)))
        cycles = draw(st.integers(0, n // p))
        for c in range(cycles):
            cyc = pos[c * p:(c + 1) * p]
            ph = phases(p - 1)
            prod = ctx.one
            for x in ph:
                prod = prod * x
            ph.append(lam * prod.conj())
            for q, j in enumerate(cyc):
                u[cyc[(q + 1) % p]][j] = ph[q]
        for j in pos[cycles * p:]:
            u[j][j] = ctx.root(k) * ctx.zeta_p(
                draw(st.integers(0, p - 1)))
        return grid_mat(ctx, n, n, u)

    orbits = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 3)),
                           min_size=1, max_size=3))
    m = sum(1 if fixed else p for fixed, _ in orbits)
    labels = iter(draw(st.permutations(range(m))))
    sizes, sigma, impl = [0] * m, [0] * m, [None] * m
    for fixed, n in orbits:
        if fixed:
            n = draw(st.integers(1, max(3, p)))
            i = next(labels)
            sizes[i], sigma[i], impl[i] = n, i, fixed_impl(n)
            continue
        blocks = [next(labels) for _ in range(p)]
        us = [Mat.permutation(ctx, draw(st.permutations(range(n))))
              * Mat.diag(ctx, phases(n)) for _ in range(p - 1)]
        w = Mat.identity(ctx, n)
        for u in us:
            w = w * u
        us.append(w.dagger() * lam)
        for q, b in enumerate(blocks):
            sizes[b], sigma[b], impl[b] = n, blocks[(q + 1) % p], us[q]
    return FdSystem(ctx, p, sizes, tuple(sigma), impl)


@settings(max_examples=40, deadline=None)
@given(_decomposable_system(), st.data())
def test_iso_defect_matches_generator_oracle(s, data):
    """The recorded rewriting passes both checks; with one conjugator
    column scaled by a root of unity, both agree on whether it still
    transports the action."""
    c = decompose(s)
    assert _iso_defect(s, c) is None and generator_iso_defect(s, c) is None
    i = data.draw(st.integers(0, s.m - 1))
    scale = [s.ctx.one] * s.block_sizes[i]
    scale[data.draw(st.integers(0, len(scale) - 1))] = s.ctx.root(
        data.draw(st.integers(1, s.ctx.order - 1)))
    c.iso.conjugators[i] = c.iso.conjugators[i] * Mat.diag(s.ctx, scale)
    assert (_iso_defect(s, c) is None) == \
        (generator_iso_defect(s, c) is None)


@settings(max_examples=30, deadline=None)
@given(_decomposable_system())
def test_every_canon_output_round_trips(s):
    """The canonical form afzp canon writes loads past the loader's iso
    check and dumps to the same bytes."""
    text = dumps(decompose(s))
    assert dumps(loads(text)) == text


def _twisted_shift_p3():
    """p = 3, one fixed 4x4 block: a 3-cycle with phases and a fixed
    point. The Gauss sum at p = 3 is not real, so the example shows
    which of g and conj(g) the eigenvector pairing takes."""
    ctx = ctx_for(3, 3)
    u = Mat.permutation(ctx, [1, 2, 0, 3]) * Mat.diag(
        ctx, [ctx.zeta_p(1), ctx.zeta_p(2), ctx.one, ctx.zeta_p(2)])
    return FdSystem(ctx, 3, [4], (0,), [u])


def test_decompose_runs_spectral_once_per_non_diagonal_fixed_block(
        monkeypatch):
    """One eigenspace pass gives a fixed block's exponents and its
    conjugator: the p = 3 shift beside a diagonal block and a 3-cycle
    averages characters once, for the shift alone."""
    shift = _twisted_shift_p3()
    ctx = shift.ctx
    one = Mat.identity(ctx, 1)
    s = FdSystem(ctx, 3, [4, 2, 1, 1, 1], (0, 1, 3, 4, 2),
                 [shift.impl[0], Mat.diag(ctx, [ctx.zeta_p(2), 1]),
                  one, one, one])
    original = afzp.matrix.spectral
    calls = []

    def counted(V, p):
        calls.append(V)
        return original(V, p)

    for module in (afzp.matrix, afzp.system):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    decompose(s)
    assert calls == [shift.impl[0]]


@settings(max_examples=40, deadline=None)
@example(_twisted_shift_p3())
@given(_decomposable_system())
def test_decompose_matches_the_monomial_diagonalizer_oracle(s):
    """decompose, conjugating each fixed block onto its sorted diagonal
    one eigenspace at a time, writes the same canonical form and
    rewriting, byte for byte, as the retired monomial diagonalizer
    followed by the sorting permutation; each conjugator is checked
    exactly."""
    def checked(fn):
        def diagonalize(v, p):
            exps, z = fn(v, p)
            d = Mat.diag(v.ctx, [v.ctx.zeta_p(e) for e in exps])
            assert exps == sorted(exps)
            assert z.is_unitary() and d * z == z * v
            return exps, z
        return diagonalize

    with mock.patch("afzp.system.diagonalizer", checked(diagonalizer)):
        new = dumps(decompose(s))
    with mock.patch("afzp.system.diagonalizer",
                    checked(monomial_diagonalizer)):
        old = dumps(decompose(s))
    assert new == old


# -- indexed pattern kernels against the dense oracles -----------------------

@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 6),
       st.sampled_from(["monomial", "sparse", "dense"]), st.randoms())
def test_diag_scaled_matches_the_dense_oracle(field, n, kind, rnd):
    """root_sum of (x, ex, ey), the way hom_validate scales a square
    conjugator by its roots, is diag(zeta_p^ex) x diag(zeta_p^ey): it
    equals the dense kernel's and keeps x's nonzero columns. Exponents
    run past p, which root_sum takes modulo p."""
    ctx = ctx_for(*field)
    x = oracle_matrix(ctx, rnd, n, n, kind)
    p = ctx.p
    roots = [ctx.root(ctx.order // p * k) for k in range(p)]
    ex, ey = ([rnd.randrange(-ctx.order, ctx.order) for _ in range(n)]
              for _ in "xy")
    got = root_sum(ctx, n, x, ex, ey)
    assert got == dense_diag_scaled([roots[e % p] for e in ex], x,
                                    [roots[e % p] for e in ey])
    assert got.nz == dense_support(got) == x.nz


def _labelling(draw, labels):
    """(label, size) slots: labels 0..2 or None (a gap), sizes 0..3."""
    return draw(st.lists(st.tuples(st.sampled_from(labels),
                                   st.integers(0, 3)), max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.data(), st.randoms())
def test_pattern_defect_matches_the_dense_scan(field, data, rnd):
    """_pattern_defect returns the dense row-major scan's first failing
    (source block, i, j), or None with it, on a K built to fit two slot
    labellings (lambda * I_k between slots of one label, lambda zero or
    not and sizes equal or not; random blocks between gaps) and on that K
    with one entry set off the pattern, one lambda-diagonal entry zeroed
    or changed, or a random sparse or dense K."""
    ctx = ctx_for(*field)
    labels = [None, 0, 1, 2]
    rows, cols = _labelling(data.draw, labels), _labelling(data.draw, labels)
    n, m = sum(k for _, k in rows), sum(k for _, k in cols)
    grid = [[ctx.zero] * m for _ in range(n)]
    on_diagonals = []         # cells of lambda-diagonals, lambda nonzero
    r0 = 0
    for lr, kr in rows:
        c0 = 0
        for lc, kc in cols:
            if lr is None and lc is None:
                for i in range(kr):
                    for j in range(kc):
                        if rnd.random() < 0.5:
                            grid[r0 + i][c0 + j] = oracle_scalar(ctx, rnd)
            elif lr == lc:
                lam = oracle_scalar(ctx, rnd) if rnd.random() < 0.7 \
                    else ctx.zero
                for i in range(min(kr, kc)):
                    grid[r0 + i][c0 + i] = lam
                    if lam._nonzero:
                        on_diagonals.append((r0 + i, c0 + i))
            c0 += kc
        r0 += kr
    how = data.draw(st.sampled_from(["fit", "entry", "zero", "change",
                                     "sparse", "dense"]))
    if how in ("sparse", "dense"):
        K = oracle_matrix(ctx, rnd, n, m, how)
    else:
        if n and m and how != "fit":
            i, j = rnd.randrange(n), rnd.randrange(m)
            if how == "entry" or not on_diagonals:
                grid[i][j] = grid[i][j] + oracle_scalar(ctx, rnd)
            else:
                i, j = rnd.choice(on_diagonals)
                grid[i][j] = ctx.zero if how == "zero" \
                    else grid[i][j] + ctx.one
        K = grid_mat(ctx, n, m, grid)
    for x in (K, grid_mat(ctx, n, m, K.entries), K * Mat.identity(ctx, m)):
        assert _pattern_defect(x, rows, cols) == \
            dense_pattern_defect(x, rows, cols)


def test_pattern_defect_finds_a_zero_on_a_lambda_diagonal():
    """A zero where lambda * I_k needs lambda is found in row-major order,
    before a later off-pattern entry, as the dense scan finds it."""
    ctx = ctx_for(3)
    rows = cols = [(0, 3), (None, 1)]
    K = Mat.from_rows(ctx, [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0],
                            [0, 0, 0, 5]])
    assert _pattern_defect(K, rows, cols) == (0, 1, 1)
    with_later = Mat.from_rows(ctx, [[2, 0, 0, 0], [0, 0, 0, 0],
                                     [0, 1, 2, 0], [0, 0, 0, 5]])
    assert _pattern_defect(with_later, rows, cols) == (0, 1, 1) == \
        dense_pattern_defect(with_later, rows, cols)
    assert _pattern_defect(Mat.from_rows(ctx, [[2, 0, 0, 0], [0, 2, 0, 0],
                                               [0, 0, 2, 0], [0, 0, 0, 5]]),
                           rows, cols) is None
