import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from afzp import classify
from afzp._rat import RAT
from afzp.classify import (IntertwiningCertificate, Tower, _candidates,
                           _case_params, _commutes_on_exponents,
                           _entry_orbits, _plan,
                           conjugate_hom, equiv_unitary, intertwine, ksearch,
                           lift, validate_tower, verify_certificate)
from afzp.cli import main
from afzp.demos import identity_pairs, naive_doubling_tower, product_tower
from afzp.errors import (AfzpError, KDataMismatch, LiftFailed,
                         PairCheckFailed, ReindexFailed,
                         UnitaryNotFoundInField)
from afzp.kinv import (KPair, check_pair, compose_pairs, imat_mul, induced_map,
                       invariant_of, ivec_mul)
from afzp.matrix import Mat, blockdiag, spectral, unitary_conjugator
from afzp.serialize import dumps, loads, save_json
from afzp.system import (Arrangement, EqHom, Slot, equal_as_maps,
                         hom_compose, hom_validate, identity_hom)

from conftest import (CaseShapeViolation, apply_hom, checked_case_params,
                      checked_conjugator, corner_equiv_unitary,
                      corrupt_entry, ctx_for,
                      cycle_form, fixed_form, fixed_point_unitary,
                      gram_products, grid_mat,
                      mat_kron, mat_power, mat_sub, matrix_intertwining,
                      matrix_orbits, mixed_form,
                      ordered_ksearch_oracle, piece_specs,
                      random_tower_pair, slot_shifts, solve,
                      unit_tuple, unitary_conjugator_search, vec_row_major)


# -- lift --------------------------------------------------------------------

def test_lift_scalar_embedding_phases():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[2]], [[1, 1], [1, 1]])
    h = lift(kp, src, tgt)
    assert hom_validate(h).ok
    assert induced_map(h) == kp
    # the two copies route to opposite eigenvalues of diag(1, -1)
    assert sorted(slot_shifts(h, 0)) == [0, 1]


def test_lift_fixed_to_cycle():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = cycle_form(ctx, 1)
    kp = KPair([[1], [1]], [[1, 1]])
    h = lift(kp, src, tgt)
    assert hom_validate(h).ok and induced_map(h) == kp


def test_lift_cycle_to_fixed_fourier_conjugator():
    ctx = ctx_for(2)
    src = cycle_form(ctx, 1)
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[1, 1]], [[1], [1]])
    h = lift(kp, src, tgt)
    assert hom_validate(h).ok and induced_map(h) == kp
    X = h.arrangements[0].conj
    V = tgt.pieces[0].v
    # conjugating the implementing unitary realizes the coordinate swap
    assert X.dagger() * V * X == Mat.permutation(ctx, [1, 0])


def test_lift_rejects_failing_pair():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0, 1])
    tgt = fixed_form(ctx, [0, 0, 0, 1])
    with pytest.raises(PairCheckFailed):
        lift(KPair([[2]], [[1, 1], [1, 1]]), src, tgt)


def test_lift_rejects_nonunital_pair():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    with pytest.raises(PairCheckFailed):
        lift(KPair([[2]], [[1, 1], [1, 1]], unital=False), src, tgt)


def test_lift_deterministic_bytes():
    ctx = ctx_for(3)
    src = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 1)])
    tgt = fixed_form(ctx, [0, 0, 1, 1, 2])
    invA, invB = invariant_of(src), invariant_of(tgt)
    pairs = ksearch(invA, invB, 2)
    assert pairs
    for kp in pairs:
        h1 = lift(kp, src, tgt)
        h2 = lift(kp, src, tgt)
        assert dumps(h1) == dumps(h2)


def test_lift_mixed_pieces_roundtrip():
    ctx = ctx_for(2)
    src = mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])
    tgt = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 2)])
    invA, invB = invariant_of(src), invariant_of(tgt)
    found = ksearch(invA, invB, 3)
    assert found
    for kp in found:
        h = lift(kp, src, tgt)
        assert hom_validate(h).ok
        assert induced_map(h) == kp


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_fixed_to_cycle_twist_is_the_power_of_v_dagger(p, data):
    """Block r of a cycle target twists each copy of a fixed source piece
    by V^-r, which lift builds as the diagonal of roots zeta_p^(-r e):
    the oracle mat_power(v.dagger(), r) for every r."""
    ctx = ctx_for(p)
    exps = sorted(data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                     max_size=4)))
    copies = data.draw(st.integers(1, 2))
    src = fixed_form(ctx, exps)
    tgt = cycle_form(ctx, copies * len(exps))
    (kp,) = ksearch(invariant_of(src), invariant_of(tgt), 3)
    h = lift(kp, src, tgt)
    v = src.pieces[0].v
    for r, arr in enumerate(h.arrangements):
        assert arr.conj == blockdiag(ctx,
                                     [mat_power(v.dagger(), r)] * copies)


# -- ksearch -----------------------------------------------------------------

def test_ksearch_unique_candidate():
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0]))
    invB = invariant_of(fixed_form(ctx, [0, 1]))
    found = ksearch(invA, invB, 2)
    assert [(kp.F, kp.phi) for kp in found] == [([[2]], [[1, 1], [1, 1]])]


def test_ksearch_empty_on_special_obstruction():
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0, 1]))
    invB = invariant_of(fixed_form(ctx, [0, 0, 0, 1]))
    assert ksearch(invA, invB, 3) == []


def test_ksearch_contains_identity():
    ctx = ctx_for(2)
    inv = invariant_of(fixed_form(ctx, [0, 1]))
    assert KPair([[1]], [[1, 0], [0, 1]]) in ksearch(inv, inv, 1)


def _ksearch_oracle(invA, invB):
    """Every pair passing check_pair among all matrices with F entries <=
    max(unitB) and phi entries <= max(iotaB * unitB), in no particular
    order. Rows are drawn from all vectors under the cap, indexed by the
    row-wise equalities check_pair imposes (unit class, special element,
    embedding square), so only rows that can pass are combined."""
    def rows_by_image(width, cap, cols):
        index = {}
        for v in itertools.product(range(cap + 1), repeat=width):
            key = tuple(sum(x * y for x, y in zip(v, col)) for col in cols)
            index.setdefault(key, []).append(list(v))
        return index

    f_rows = rows_by_image(invA.m, max(invB.unit), [invA.unit])
    phi_rows = rows_by_image(invA.mC, max(ivec_mul(invB.iota, invB.unit)),
                             [invA.special] + list(zip(*invA.iota)))
    out = []
    for F in itertools.product(*[f_rows.get((u,), []) for u in invB.unit]):
        F = list(F)
        target_iota = imat_mul(invB.iota, F)
        choices = [phi_rows.get((invB.special[r],) + tuple(target_iota[r]), [])
                   for r in range(invB.mC)]
        for phi in itertools.product(*choices):
            kp = KPair(F, list(phi))
            if check_pair(kp, invA, invB).ok:
                out.append(kp)
    return out


def _oracle_grid(p):
    ctx = ctx_for(p)
    forms = {
        "f0": fixed_form(ctx, [0]), "f01": fixed_form(ctx, [0, 1]),
        "f00": fixed_form(ctx, [0, 0]), "f001": fixed_form(ctx, [0, 0, 1]),
        "f0000": fixed_form(ctx, [0, 0, 0, 0]),
        "c1": cycle_form(ctx, 1), "c2": cycle_form(ctx, 2),
        "f0+c1": mixed_form(ctx, [("fixed", [0]), ("cycle", 1)]),
        "f0+f1": mixed_form(ctx, [("fixed", [0]), ("fixed", [1])]),
        "f01+c1": mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 1)]),
    }
    if p == 5:
        # the oracle's candidate count grows like cap^(p * pieces)
        sources, targets = ["f0", "c1", "f0+c1"], ["f0", "c1"]
    else:
        sources, targets = ["f0", "c1", "f0+c1", "f0+f1"], list(forms)
    return [(forms[a], forms[b]) for a in sources for b in targets]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ksearch_matches_brute_force_oracle(p):
    def key(kp):
        return kp.F, kp.phi

    def max_entry(kp):
        return max(max(row) for row in kp.F + kp.phi)

    found = 0
    for src, tgt in _oracle_grid(p):
        invA, invB = invariant_of(src), invariant_of(tgt)
        full = ksearch(invA, invB)
        assert sorted(map(key, full)) == \
            sorted(map(key, _ksearch_oracle(invA, invB)))
        for bound in (1, 2):
            assert ksearch(invA, invB, bound) == \
                [kp for kp in full if max_entry(kp) <= bound]
        found += len(full)
    assert found > 0


def _grid_with_zero(p):
    """_oracle_grid(p) and the zero algebra (m = 0) on either side of
    each of its forms, and against itself."""
    zero = mixed_form(ctx_for(p), [])
    grid = _oracle_grid(p)
    forms = list({id(c): c for pair in grid for c in pair}.values())
    return grid + [(zero, zero)] + [pair for c in forms
                                    for pair in ((zero, c), (c, zero))]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ksearch_lists_the_matrix_enumerators_pairs_in_order(p):
    """ksearch, run on the actions' permutations with one column-wise
    check, lists the pairs of the enumerator that ran on their 0/1
    matrices with whole-matrix products, element by element."""
    found = 0
    for src, tgt in _grid_with_zero(p):
        invA, invB = invariant_of(src), invariant_of(tgt)
        for bound in (None, 1, 2, 3):
            want = ordered_ksearch_oracle(invA, invB, bound)
            assert ksearch(invA, invB, bound) == want
            found += len(want)
    assert found > 0


def _order_p_permutation(rng, p, n):
    """A permutation of range(n) made of fixed points and p-cycles on
    shuffled labels, as an invariant's act or dualAct."""
    labels = list(range(n))
    rng.shuffle(labels)
    perm = [None] * n
    while labels:
        k = p if len(labels) >= p and rng.random() < 0.5 else 1
        cycle, labels = labels[:k], labels[k:]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return perm


def test_entry_orbits_match_the_matrix_walker():
    """The entry orbits, walked by system._orbits on the flattened
    permutation r * nA + c -> permB[r] * nA + permA[c], are the matrix
    walker's orbits in the same order, on 3,000 random pairs, once each
    row-major index k is read as the entry divmod(k, nA)."""
    rng = random.Random(21)
    for _ in range(3000):
        p = rng.choice([2, 3, 5])
        permB, permA = (_order_p_permutation(rng, p, rng.randint(0, 7))
                        for _ in range(2))
        assert [[divmod(k, len(permA)) for k in orb]
                for orb in _entry_orbits(permB, permA)] \
            == matrix_orbits(permB, permA)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_first_closing_candidate_is_first_of_filtered_list(p):
    """The candidate a searched hop takes, the generator's first that
    closes its triangle, is the first of the oracle's full list that
    does; a triangle no candidate closes finds none in either."""
    steps = 0
    for x, y in _oracle_grid(p):
        invX, invY = invariant_of(x), invariant_of(y)
        full = ordered_ksearch_oracle(invX, invY)
        for prev in ksearch(invY, invX, 1):
            wants = [compose_pairs(c, prev) for c in full]
            for want in wants + [KPair([], [])]:
                def closes(c):
                    return compose_pairs(c, prev) == want
                assert next(filter(closes, _candidates(invX, invY, None)),
                            None) == next(filter(closes, full), None)
                steps += 1
    assert steps > 0


def _raised(kp):
    """kp, then kp with each one F or phi entry raised by 1."""
    yield kp
    for name in ("F", "phi"):
        mat = getattr(kp, name)
        for r, row in enumerate(mat):
            for c in range(len(row)):
                bumped = [list(x) for x in mat]
                bumped[r][c] += 1
                yield (KPair(bumped, kp.phi) if name == "F"
                       else KPair(kp.F, bumped))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_intertwining_items_agree_with_matrix_products(p):
    """check_pair's intertwining items, read on the permutations, agree
    with the products by the 0/1 matrices on every grid pair's ksearch
    pairs and zero pair, and on each with one entry raised by 1."""
    names = ("F intertwines the actions", "phi intertwines the dual actions")
    outcomes = set()
    for src, tgt in _oracle_grid(p):
        invA, invB = invariant_of(src), invariant_of(tgt)
        zero = KPair([[0] * invA.m for _ in range(invB.m)],
                     [[0] * invA.mC for _ in range(invB.mC)])
        for base in ksearch(invA, invB, 2) + [zero]:
            for kp in _raised(base):
                items = {it.name: it.ok for it in
                         check_pair(kp, invA, invB).items}
                got = tuple(items[n] for n in names)
                assert got == matrix_intertwining(kp, invA, invB)
                outcomes.add(got)
    assert len(outcomes) > 1


# -- equiv_unitary -----------------------------------------------------------

def intertwiner_space_membership(h1, h2, W):
    """Independent oracle: W solves the full linear system
    {W psi2(E) = psi1(E) W for all source units; V W = W V per fixed
    target piece; equal components per cycle piece}, checked by
    membership in the solved solution space."""
    src, tgt = h1.source, h1.target
    ctx = src.ctx
    for ti, piece in enumerate(tgt.pieces):
        toff = tgt.piece_offsets[ti]
        n = piece.n
        rows = []
        ident = Mat.identity(ctx, n)
        for s in range(src.m):
            k = src.block_sizes[s]
            for i in range(k):
                for j in range(k):
                    a = unit_tuple(ctx, src.block_sizes, s, i, j)
                    p1 = apply_hom(h1, a)[toff]
                    p2 = apply_hom(h2, a)[toff]
                    sysm = mat_sub(mat_kron(ident, _transpose(p2)),
                                   mat_kron(p1, Mat.identity(ctx, n)))
                    rows.extend(sysm.entries)
        if piece.kind == "fixed":
            V = piece.v
            sysm = mat_sub(mat_kron(Mat.identity(ctx, n), _transpose(V)),
                           mat_kron(V, Mat.identity(ctx, n)))
            rows.extend(sysm.entries)
        sysmat = grid_mat(ctx, len(rows), n * n, rows)
        _, basis = solve(sysmat, Mat.zero(ctx, len(rows), 1))
        # membership: express vec(W) in the kernel basis
        if not basis:
            return False
        stacked = grid_mat(ctx, n * n, len(basis),
                           [[basis[b].entries[r][0]
                             for b in range(len(basis))]
                            for r in range(n * n)])
        try:
            solve(stacked, vec_row_major(W[toff]))
        except Exception:
            return False
    return True


def _transpose(m):
    return grid_mat(m.ctx, m.cols, m.rows,
                    [[m.entries[j][i] for j in range(m.rows)]
                     for i in range(m.cols)])


def test_solve_residual_and_kernel_exact(rng):
    ctx = ctx_for(3)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = Mat.from_rows(ctx, [[RAT(rng.randint(-2, 2)) for _ in range(n)]
                                for _ in range(m)])
        x = Mat.from_rows(ctx, [[RAT(rng.randint(-2, 2))] for _ in range(n)])
        b = A * x
        part, basis = solve(A, b)
        assert A * part == b
        for v in basis:
            assert (A * v).is_zero()


def test_equiv_unitary_equal_homs_gives_identity():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = lift(KPair([[2]], [[1, 1], [1, 1]]), src, tgt)
    W, wit = equiv_unitary(h, h)
    assert W[0] == Mat.identity(ctx, 2)


def test_equiv_unitary_opposite_phase_routings():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[2]], [[1, 1], [1, 1]])
    h1 = lift(kp, src, tgt)
    # the opposite routing: phases swapped, conjugator compensates
    h2 = EqHom(src, tgt,
               [Arrangement([Slot(0, 1), Slot(0, 1)],
                            Mat.permutation(ctx, [1, 0]))], unital=True)
    assert hom_validate(h2).ok and induced_map(h2) == kp
    W, wit = equiv_unitary(h1, h2)
    V = tgt.pieces[0].v
    assert W[0].is_unitary()
    assert W[0] * V == V * W[0]
    assert equal_as_maps(conjugate_hom(W, h2), h1)
    # oracle: W lies in the independently solved intertwiner space
    assert intertwiner_space_membership(h1, h2, W)
    # witness invariants: commutant elements have order p
    for entry in wit.entries:
        if entry.case == "FF":
            assert mat_power(entry.L, 2) == Mat.identity(ctx, entry.L.rows)
            assert mat_power(entry.N, 2) == Mat.identity(ctx, entry.N.rows)


def test_equiv_unitary_cycle_target_components_equal():
    ctx = ctx_for(3)
    src = cycle_form(ctx, 1)
    tgt = cycle_form(ctx, 2)
    fvec = [1, 1, 0]
    F = [[fvec[(r - c) % 3] for c in range(3)] for r in range(3)]
    kp = KPair(F, [[2]])
    h1 = lift(kp, src, tgt)
    w0 = Mat.diag(ctx, [ctx.zeta_p(1), ctx.one])
    h2 = EqHom(src, tgt,
               [Arrangement(list(arr.slots), w0 * arr.conj)
                for arr in h1.arrangements], unital=True)
    assert hom_validate(h2).ok
    W, _ = equiv_unitary(h1, h2)
    assert W[0] == W[1] == W[2]
    assert equal_as_maps(conjugate_hom(W, h2), h1)


def test_equiv_unitary_rejects_different_pairs():
    ctx = ctx_for(2)
    src = cycle_form(ctx, 1)
    tgt = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 1)])
    invA, invB = invariant_of(src), invariant_of(tgt)
    pairs = ksearch(invA, invB, 2)
    assert len(pairs) >= 2
    h1 = lift(pairs[0], src, tgt)
    h2 = lift(pairs[1], src, tgt)
    with pytest.raises(KDataMismatch):
        equiv_unitary(h1, h2)


def _hadamard_twisted():
    """p = 2: two 1x1 copies at phases 0 and 1, and the same hom with the
    Hadamard matrix on them. The commutant elements are diag(1, -1) and
    the swap."""
    ctx = ctx_for(2)
    h1 = lift(KPair([[2]], [[1, 1], [1, 1]]), fixed_form(ctx, [0]),
              fixed_form(ctx, [0, 1]))
    ginv = ctx.sqrt_group_order().inv()
    G = Mat.from_rows(ctx, [[ginv, ginv], [ginv, -1 * ginv]])
    h2 = EqHom(h1.source, h1.target,
               [Arrangement(list(h1.arrangements[0].slots),
                            h1.arrangements[0].conj * G)], unital=True)
    return h1, h2, None


def test_equiv_unitary_fourier_twisted_commutant():
    # a hand-twisted hom whose commutant element is not diagonal: its
    # eigenvectors still pair up by a field scalar
    h1, h2, _ = _hadamard_twisted()
    assert hom_validate(h2).ok and induced_map(h2) == induced_map(h1)
    W, wit = equiv_unitary(h1, h2)
    assert equal_as_maps(conjugate_hom(W, h2), h1)
    assert intertwiner_space_membership(h1, h2, W)
    assert _outcome(corner_equiv_unitary, h1, h2) == (W, wit.entries)


def test_compose_cycle_case_embeddings_validates():
    # fixed -> cycle -> cycle chain; the composite validates exactly
    ctx = ctx_for(2)
    a = fixed_form(ctx, [0])
    b = cycle_form(ctx, 1)
    c = cycle_form(ctx, 2)
    h1 = lift(KPair([[1], [1]], [[1, 1]]), a, b)
    F = [[1, 1], [1, 1]]
    h2 = lift(KPair(F, [[2]]), b, c)
    comp = hom_compose(h2, h1)
    assert hom_validate(comp).ok
    assert induced_map(comp).F == [[2], [2]]


def test_hom_compose_associative_on_lifted_chain():
    ctx = ctx_for(2)
    a = fixed_form(ctx, [0])
    b = cycle_form(ctx, 1)
    c = fixed_form(ctx, [0, 1])
    d = fixed_form(ctx, [0, 0, 1, 1])
    h1 = lift(KPair([[1], [1]], [[1, 1]]), a, b)
    h2 = lift(KPair([[1, 1]], [[1], [1]]), b, c)
    h3 = lift(KPair([[2]], [[1, 1], [1, 1]]), c, d)
    left = hom_compose(h3, hom_compose(h2, h1))
    right = hom_compose(hom_compose(h3, h2), h1)
    assert left == right
    assert hom_validate(left).ok


def test_equiv_unitary_cycle_to_fixed_variants():
    ctx = ctx_for(2)
    src = cycle_form(ctx, 1)
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[1, 1]], [[1], [1]])
    h1 = lift(kp, src, tgt)
    u = Mat.diag(ctx, [1, -1])      # commutes with diag(1, -1)
    h2 = EqHom(src, tgt,
               [Arrangement(list(h1.arrangements[0].slots),
                            u * h1.arrangements[0].conj)], unital=True)
    assert hom_validate(h2).ok
    W, wit = equiv_unitary(h1, h2)
    assert equal_as_maps(conjugate_hom(W, h2), h1)
    assert intertwiner_space_membership(h1, h2, W)


def test_equiv_unitary_generalized_permutation_fallback(tmp_path):
    """p = 3, three 1x1 slots: X1 is the Fourier matrix and X2 = X1 Q for
    the transposition Q of slots 1 and 2, so the commutant elements are
    L1 = S and L2 = S^2 for the cyclic shift S. Their eigenprojections
    pair up only at eigenvalue 1, so the projection average is rank one;
    per eigenspace, every eigenvector has squared norm 1/3 on both
    sides, so Z pairs them with s = 1."""
    ctx = ctx_for(3)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1, 2])
    ginv = ctx.sqrt_group_order().inv()
    dft = Mat.from_rows(ctx, [[ctx.zeta_p(j * k) * ginv for k in range(3)]
                              for j in range(3)])
    h1, h2 = (EqHom(src, tgt, [Arrangement([Slot(0, 1) for _ in range(3)],
                                           x)], unital=True)
              for x in (dft, dft * Mat.permutation(ctx, [0, 2, 1])))
    assert hom_validate(h1).ok and hom_validate(h2).ok
    assert induced_map(h1) == induced_map(h2)
    W, wit = equiv_unitary(h1, h2)
    (entry,) = wit.entries
    s1, s2 = spectral(entry.L, 3), spectral(entry.N, 3)
    z0 = s1[0] * s2[0] + s1[1] * s2[1] + s1[2] * s2[2]
    assert z0 * z0 == z0 and z0.trace() == ctx.one      # rank one
    assert _outcome(corner_equiv_unitary, h1, h2) == (W, wit.entries)
    V = tgt.pieces[0].v
    assert W[0] * V == V * W[0]
    assert equal_as_maps(conjugate_hom(W, h2), h1)
    paths = [str(tmp_path / name) for name in ("h1.json", "h2.json", "w.json")]
    save_json(paths[0], h1)
    save_json(paths[1], h2)
    assert main(["equiv", paths[0], paths[1], "--out", paths[2]]) == 0
    with open(paths[2]) as fh:
        assert fh.read() == dumps(W) + "\n"


def _fourier_permuted(p):
    """At field order p: p 1x1 slots under the p x p Fourier conjugator,
    and the same hom with its slots permuted. The commutant elements are
    non-diagonal p x p unitaries with rank-one eigenspaces."""
    ctx = ctx_for(p, p)
    src, tgt = fixed_form(ctx, [0]), fixed_form(ctx, list(range(p)))
    ginv = ctx.sqrt_group_order().inv()
    dft = Mat.from_rows(ctx, [[ctx.zeta_p(j * k) * ginv for k in range(p)]
                              for j in range(p)])
    perm = Mat.permutation(ctx, [0, 2, 1] + list(range(3, p))) * \
        Mat.permutation(ctx, [(j + 1) % p for j in range(p)])
    h1, h2 = (EqHom(src, tgt, [Arrangement([Slot(0, 1) for _ in range(p)],
                                           x)], unital=True)
              for x in (dft, dft * perm))
    return h1, h2, None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exponent_commute_check_matches_the_product_oracle(p):
    """equiv_unitary's check that W commutes with V = diag(zeta_p^e),
    read off W's nonzeros and e, agrees with W V == V W on fixed-point
    unitaries and on their one-entry corruptions; on a cycle piece
    (V = I, e = ()) everything commutes."""
    ctx = ctx_for(p)
    rng = random.Random(p)
    seen = set()
    for _ in range(40):
        form = fixed_form(ctx, sorted(rng.randrange(p)
                                      for _ in range(rng.randint(1, 5))))
        v = form.pieces[0].v
        w = fixed_point_unitary(form, rng)[0]
        for x in (w, corrupt_entry(w, rng)):
            got = _commutes_on_exponents(x, form.piece_exponents[0])
            assert got == (x * v == v * x)
            seen.add(got)
    assert seen == {True, False}
    w = fixed_point_unitary(cycle_form(ctx, 3), rng)[0]
    assert _commutes_on_exponents(corrupt_entry(w, rng), ())


@pytest.mark.parametrize("p", [5, 7])
def test_equiv_unitary_fourier_hom_against_permuted_slots(p):
    h1, h2, _ = _fourier_permuted(p)
    V = h1.target.pieces[0].v
    assert hom_validate(h1).ok and hom_validate(h2).ok
    assert induced_map(h1) == induced_map(h2)
    W, wit = equiv_unitary(h1, h2)
    (entry,) = wit.entries
    assert not entry.L.is_diagonal() and not entry.N.is_diagonal()
    assert entry.Z.is_unitary() and entry.L * entry.Z == entry.Z * entry.N
    assert W[0].is_unitary() and W[0] * V == V * W[0]
    assert equal_as_maps(conjugate_hom(W, h2), h1)


def _fourier_copies():
    """p = 2 (order 16): three 1x1 copies of a fixed piece at phases 0, 0
    and 1, and the same hom with the 2x2 Fourier matrix on copies 1 and
    2. The commutant elements are L1 = diag(1, 1, -1) and L2 = 1 (+)
    [[0, 1], [1, 0]], which the retired search could not conjugate."""
    ctx = ctx_for(2)
    h1 = lift(KPair([[3]], [[2, 1], [1, 2]]), fixed_form(ctx, [0]),
              fixed_form(ctx, [0, 0, 1]))
    g = ctx.sqrt_group_order().inv()
    twist = Mat.from_rows(ctx, [[1, 0, 0], [0, g, g], [0, g, -1 * g]])
    h2 = EqHom(h1.source, h1.target,
               [Arrangement(list(h1.arrangements[0].slots),
                            h1.arrangements[0].conj * twist)], unital=True)
    return h1, h2, None


def test_equiv_unitary_pairs_a_swap_with_a_diagonal(tmp_path):
    h1, h2, _ = _fourier_copies()
    ctx = h1.source.ctx
    assert hom_validate(h2).ok and induced_map(h1) == induced_map(h2)
    W, wit = equiv_unitary(h1, h2)
    (entry,) = wit.entries
    assert entry.L == Mat.diag(ctx, [1, 1, -1])
    assert entry.N == Mat.from_rows(ctx, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert entry.Z.is_unitary() and entry.L * entry.Z == entry.Z * entry.N
    assert equal_as_maps(conjugate_hom(W, h2), h1)
    paths = [str(tmp_path / name) for name in ("h1.json", "h2.json", "w.json")]
    save_json(paths[0], h1)
    save_json(paths[1], h2)
    assert main(["equiv", paths[0], paths[1], "--out", paths[2]]) == 0
    with open(paths[2]) as fh:
        assert fh.read() == dumps(W) + "\n"


def test_equiv_unitary_pairs_a_two_cycle_over_q_i():
    """p = 2, order 4: two copies of a 1x1 fixed piece at phases 0 and 1,
    and the same hom twisted by ((1 + i) / 2) [[1, 1], [1, -1]]. The
    commutant elements are diag(1, -1) and the swap, a 2-cycle, whose
    eigenvector norm ratio 1/2 takes 1 + i in Q(i); without the Gauss sum
    sqrt 2 this used to raise TwistRootOutsideField."""
    ctx = ctx_for(2, 4)
    a, b = fixed_form(ctx, [0]), fixed_form(ctx, [0, 1])
    h1 = lift(ksearch(invariant_of(a), invariant_of(b), 3)[0], a, b)
    s = (ctx.one + ctx.root(1)) * RAT(1, 2)
    twist = Mat.from_rows(ctx, [[s, s], [s, -1 * s]])
    arr = h1.arrangements[0]
    h2 = EqHom(a, b, [Arrangement(list(arr.slots), arr.conj * twist)])
    assert hom_validate(h2).ok and induced_map(h1) == induced_map(h2)
    W, wit = equiv_unitary(h1, h2)
    (entry,) = wit.entries
    assert entry.L == Mat.diag(ctx, [1, -1])
    assert entry.N == Mat.permutation(ctx, [1, 0])
    assert entry.Z == twist
    assert equal_as_maps(conjugate_hom(W, h2), h1)


def _commutant_twist(draw, h, t):
    """A unitary commuting with target block t's slot embedding:
    Z (x) I_k at the slots of one source block with c >= 2 slots there;
    the identity when no source block repeats. Z is the p x p Fourier
    matrix on p of them (when c >= p), the rotation [[3, -4], [4, 3]] / 5
    on two of them, or a cyclic shift of all of them times root-of-unity
    phases. A monomial Z, or one mixing slots of one eigenvalue shift
    only (conftest.slot_shifts), leaves the commutant element diagonal.
    So a source block with slots at two or more shifts is drawn when
    there is one, it is not shifted, and Fourier and rotation take one
    slot of each shift first."""
    ctx, p = h.source.ctx, h.source.p
    starts, pos = {}, 0
    for slot, d in zip(h.arrangements[t].slots, slot_shifts(h, t)):
        starts.setdefault(slot.src, []).append((d, pos))
        pos += slot.size
    n = h.target.block_sizes[t]
    twist = Mat.identity(ctx, n)
    repeated = sorted(s for s, at in starts.items() if len(at) >= 2)
    if not repeated:
        return twist
    mixed = [s for s in repeated if len({ph for ph, _ in starts[s]}) >= 2]
    s = draw(st.sampled_from(mixed or repeated))
    slots, k = starts[s], h.source.block_sizes[s]
    # the i-th slot of each phase comes before the (i+1)-th of any phase
    at = [ra for _, _, ra in sorted(
        (sum(q == ph for q, _ in slots[:i]), i, ra)
        for i, (ph, ra) in enumerate(slots))]
    c = len(at)
    Z = [list(row) for row in Mat.identity(ctx, c).entries]
    mix = draw(st.sampled_from(["fourier"] * (c >= p) + ["rotation"]
                               + ["shift"] * (not mixed)))
    if mix == "fourier":
        ginv = ctx.sqrt_group_order().inv()
        for j in range(p):
            for q in range(p):
                Z[j][q] = ctx.zeta_p(j * q) * ginv
        Z = grid_mat(ctx, c, c, Z)
    elif mix == "rotation":
        for j, q, x in ((0, 0, 3), (0, 1, -4), (1, 0, 4), (1, 1, 3)):
            Z[j][q] = ctx.scalar(RAT(x, 5))
        Z = grid_mat(ctx, c, c, Z)
    else:
        r = draw(st.integers(1, c - 1))
        Z = Mat.permutation(ctx, [(j + r) % c for j in range(c)]) * Mat.diag(
            ctx, [ctx.root(e) for e in draw(st.lists(
                st.integers(0, ctx.order - 1), min_size=c, max_size=c))])
    twist = [list(row) for row in twist.entries]
    for a, ra in enumerate(at):
        for b, rb in enumerate(at):
            for w in range(k):
                twist[ra + w][rb + w] = Z.entries[a][b]
    return grid_mat(ctx, n, n, twist)


def _receiving_form(draw, a, most, repeat=False):
    """A form of one or two pieces that receives a unital hom from a:
    each target piece takes, from each source piece, up to `most` copies
    (a fixed piece at drawn phases, a cycle piece as whole bundles), or
    up to 3 copies of a 1x1 fixed piece, enough for a Fourier twist at
    p <= 3. With repeat, the first target piece takes at least two
    copies of a's first piece, and a cycle piece into a cycle target at
    one shift, so that some target block holds one source block twice."""
    ctx, p = a.ctx, a.p
    specs = []
    # two target pieces at p = 5 can make the pair search take a minute
    for t, cycle in enumerate(draw(st.lists(st.booleans(), min_size=1,
                                            max_size=1 if p == 5 else 2))):
        exps, n = [], 0
        for s, (piece, e) in enumerate(zip(a.pieces, a.piece_exponents)):
            twice = repeat and t == s == 0
            ds = draw(st.lists(st.integers(0, p - 1), min_size=2 * twice,
                               max_size=max(2 * twice, 3 if piece.n == 1
                                            and e else most)))
            if twice and cycle and piece.kind == "cycle":
                ds[1] = ds[0]
            if cycle:
                n += len(ds) * piece.n
            elif piece.kind == "fixed":
                exps += [(x + d) % p for d in ds for x in e]
            else:
                exps += list(range(p)) * piece.n * len(ds)
        if not (n or exps):
            piece = a.pieces[0]
            n = piece.n
            exps = list(a.piece_exponents[0]) if piece.kind == "fixed" \
                else list(range(p)) * piece.n
        specs.append(("cycle", n) if cycle else ("fixed", sorted(exps)))
    return mixed_form(ctx, specs)


@st.composite
def _equivalent_homs(draw, hows=("moved", "commutant", "composite")):
    """(h1, h2, other): h1 a lift from a form of at most two pieces into a
    form built to receive it, and h2 with the same induced pair: Ad u o h1
    for a fixed-point unitary u, or h1 with every conj right-multiplied by
    a unitary in the commutant of its slots (then maybe moved by Ad u),
    or, for h1 followed by a lift g, the composite g o h1 against the
    lift of its pair, in either order ("moved", "commutant" and
    "composite" in hows). other is a lift of a different pair over h1's
    forms, or None."""
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = ctx_for(p, None if p == 2 else p)
    how = draw(st.sampled_from(hows))
    a = mixed_form(ctx, draw(st.lists(st.sampled_from(piece_specs(p, 2)),
                                      min_size=1, max_size=2)))
    b = _receiving_form(draw, a, 2, repeat=how == "commutant")
    pairs = ksearch(invariant_of(a), invariant_of(b), 3)
    # the commutant twist needs a source block twice in one target block
    kp = draw(st.sampled_from([q for q in pairs if how != "commutant"
                               or max(map(max, q.F)) >= 2]))
    h1 = lift(kp, a, b)
    others = [q for q in pairs if q != kp]
    other = lift(draw(st.sampled_from(others)), a, b) if others else None
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if how == "composite" and sum(b.block_sizes) <= 6:
        c = _receiving_form(draw, b, 1)
        later = ksearch(invariant_of(b), invariant_of(c), 3)
        comp = hom_compose(lift(draw(st.sampled_from(later)), b, c), h1)
        direct = lift(induced_map(comp), a, c)
        return (comp, direct, None) if draw(st.booleans()) \
            else (direct, comp, None)
    h2 = h1
    if how == "commutant":
        h2 = EqHom(a, b, [Arrangement(list(arr.slots),
                                      arr.conj * _commutant_twist(draw, h1, t))
                          for t, arr in enumerate(h1.arrangements)],
                   unital=True)
    if how != "commutant" or draw(st.booleans()):
        h2 = conjugate_hom(fixed_point_unitary(b, rng), h2)
    return h1, h2, other


def _outcome(equiv, h1, h2):
    try:
        W, wit = equiv(h1, h2)
    except AfzpError as exc:
        return type(exc)
    return W, wit.entries


def _shifted_copies():
    """Three copies of a 1x1 fixed piece at phases 0, 1, 2 (p = 3), and
    the same hom with its slots cyclically shifted: Z is a 3-cycle, so
    placing it transposed would show."""
    ctx = ctx_for(3)
    h1 = lift(KPair([[3]], [[1] * 3] * 3), fixed_form(ctx, [0]),
              fixed_form(ctx, [0, 1, 2]))
    shift = Mat.permutation(ctx, [1, 2, 0])
    h2 = EqHom(h1.source, h1.target,
               [Arrangement(list(h1.arrangements[0].slots),
                            h1.arrangements[0].conj * shift)], unital=True)
    return h1, h2, None


def _swapped_bundles():
    """Two bundles of a cycle piece in one fixed block (p = 2), and the
    same hom with the two slots of the cycle's block 0 swapped with a
    phase: the G_j are monomials that are not symmetric."""
    ctx = ctx_for(2)
    h1 = lift(KPair([[2, 2]], [[2], [2]]), cycle_form(ctx, 1),
              fixed_form(ctx, [0, 0, 1, 1]))
    twist = [list(row) for row in Mat.permutation(ctx, [2, 1, 0, 3]).entries]
    twist[0][2] = ctx.root(1)
    twist = grid_mat(ctx, 4, 4, twist)
    h2 = EqHom(h1.source, h1.target,
               [Arrangement(list(h1.arrangements[0].slots),
                            h1.arrangements[0].conj * twist)], unital=True)
    return h1, h2, None


@settings(max_examples=40, deadline=None)
@example(_shifted_copies())
@example(_swapped_bundles())
@given(_equivalent_homs())
def test_replaying_a_correction_forms_no_gram_product(homs):
    """On validated homs, equiv_unitary(h1, h2) forms no W_t^dagger W_t
    (it decides the sparse K instead, and W_t = X1 K X2^dagger inherits),
    and the replay check equal_as_maps(Ad W o h2, h1) forms no X^dagger X
    at all: each W_t X2 is a product of matrices known unitary. A W
    rebuilt from its rows starts with no verdict, so the same check
    forms one per target block."""
    h1, h2, _ = homs
    assert hom_validate(h1).ok and hom_validate(h2).ok
    seen = []
    matmul = Mat._matmul

    def recording(a, b):
        seen.append((a, b))
        return matmul(a, b)

    with mock.patch.object(Mat, "_matmul", recording):
        try:
            W, _ = equiv_unitary(h1, h2)
        except UnitaryNotFoundInField:
            return
        assert not any(a is b.dagger() for a, b in seen
                       if any(b is w for w in W))
        rebuilt = [Mat(w.ctx, w.rows, w.cols, w.nz, w.vals) for w in W]
        for ws, grams in ((W, 0), (rebuilt, h1.target.m)):
            del seen[:]
            assert equal_as_maps(conjugate_hom(ws, h2), h1)
            assert sum(a is b.dagger() for a, b in seen) == grams


@settings(max_examples=60, deadline=None)
@example(_shifted_copies(), (0, 0, 0))
@example(_swapped_bundles(), (0, 0, 0))
@given(_equivalent_homs(), st.tuples(*[st.integers(0, 2 ** 16)] * 3))
def test_equiv_unitary_matches_corner_oracle(homs, corruption):
    """equiv_unitary and its corner-isometry oracle return identical W and
    witness on homs with equal pairs. Against a hom of another pair, or
    one with a conj column scaled by a root of unity so it is no longer
    equivariant, both raise."""
    h1, h2, other = homs
    assert hom_validate(h1).ok and hom_validate(h2).ok
    assert _outcome(equiv_unitary, h1, h2) == \
        _outcome(corner_equiv_unitary, h1, h2)
    ctx = h2.source.ctx
    t = corruption[0] % h2.target.m
    scale = [ctx.one] * h2.target.block_sizes[t]
    scale[corruption[1] % len(scale)] = ctx.root(
        1 + corruption[2] % (ctx.order - 1))
    arrs = [Arrangement(list(arr.slots), arr.conj) for arr in h2.arrangements]
    arrs[t].conj = arrs[t].conj * Mat.diag(ctx, scale)
    bad = EqHom(h2.source, h2.target, arrs, unital=True)
    for x, y in ((h1, other), (h1, bad), (bad, h1)):
        if y is None:
            continue
        if hom_validate(x).ok and hom_validate(y).ok \
                and induced_map(x) == induced_map(y):
            assert _outcome(equiv_unitary, x, y) == \
                _outcome(corner_equiv_unitary, x, y)
            continue
        for equiv in (equiv_unitary, corner_equiv_unitary):
            with pytest.raises(AfzpError):
                equiv(x, y)


@settings(max_examples=60, deadline=None)
@example(_fourier_copies())
@example(_hadamard_twisted())
@example(_fourier_permuted(3))
@given(_equivalent_homs())
def test_unitary_conjugator_covers_the_search_oracle(homs):
    """Wherever the retired search finds Z for a pair of commutant
    elements that equiv_unitary meets, unitary_conjugator finds one too;
    both are checked exactly. Drawn commutant elements are nearly all
    diagonal, so the examples add non-diagonal ones that the search
    solves by its projection average and by its permutation loop."""
    h1, h2, _ = homs
    met = []

    def recorded(L1, L2, p):
        met.append((L1, L2, p))
        return unitary_conjugator(L1, L2, p)

    with mock.patch("afzp.classify.unitary_conjugator", recorded):
        try:
            equiv_unitary(h1, h2)
        except AfzpError:
            pass
    for L1, L2, p in met:
        try:
            checked_conjugator(unitary_conjugator_search, L1, L2, p)
        except UnitaryNotFoundInField:
            continue
        checked_conjugator(unitary_conjugator, L1, L2, p)


def test_equivalent_homs_reach_non_diagonal_pairs():
    """Over 100 draws of _equivalent_homs' commutant branch at a fixed
    seed, at least a tenth of the conjugator calls equiv_unitary makes
    get a non-diagonal pair, so the oracle comparisons above meet the
    eigenspace path and not only the permutation of a diagonal. (A twist
    that mixed slots of one phase only met 6 in 261 over seeds 0-3.)"""
    met = []

    def recorded(L1, L2, p):
        met.append(not (L1.is_diagonal() and L2.is_diagonal()))
        return unitary_conjugator(L1, L2, p)

    @seed(0)
    @settings(max_examples=100, deadline=None, database=None)
    @given(_equivalent_homs(hows=("commutant",)))
    def correct(homs):
        with mock.patch("afzp.classify.unitary_conjugator", recorded):
            try:
                equiv_unitary(*homs[:2])
            except AfzpError:
                pass

    correct()
    assert met and 10 * sum(met) >= len(met)


def test_commutant_branch_always_twists():
    """Every draw of _equivalent_homs' commutant branch at a fixed seed
    has a source block twice in some target block, so its h2 differs
    from h1 as arrangements."""
    @seed(0)
    @settings(max_examples=100, deadline=None, database=None)
    @given(_equivalent_homs(hows=("commutant",)))
    def twisted(homs):
        h1, h2, _ = homs
        assert h1.arrangements != h2.arrangements

    twisted()


# -- towers and certificates --------------------------------------------------

def test_self_intertwine_with_identity_pairs():
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    rep = verify_certificate(cert)
    assert rep.ok, rep.summary()
    assert cert.a_stages == [0, 1, 2]


@pytest.mark.parametrize("resorted", [False, True], ids=["plain", "resorted"])
@pytest.mark.parametrize("p,depth", [(2, 3), (3, 2), (5, 2)])
def test_product_tower_is_valid(p, depth, resorted):
    """product_tower leaves validation to the towers' consumers; its maps
    pass it in both presentations."""
    assert validate_tower(product_tower(p, depth, resorted)).ok


def test_intertwine_validates_each_tower_once(monkeypatch):
    seen = []

    def counted(tower):
        seen.append(tower)
        return validate_tower(tower)

    monkeypatch.setattr("afzp.classify.validate_tower", counted)
    tA, tB = product_tower(2, 2), product_tower(2, 2, resorted=True)
    intertwine(tA, tA, depth=2)
    assert seen == [tA]
    seen.clear()
    intertwine(tA, tB, depth=2)
    assert seen == [tA, tB]


def test_verify_certificate_validates_a_self_tower_once(monkeypatch):
    tower = product_tower(2, 2)
    cert = loads(dumps(intertwine(tower, tower,
                                  pairs=identity_pairs(tower, 2), depth=2)))
    assert cert.towerA is cert.towerB
    seen = []

    def counted(t):
        seen.append(t)
        return validate_tower(t)

    monkeypatch.setattr("afzp.classify.validate_tower", counted)
    rep = verify_certificate(cert)
    assert rep.ok, rep.summary()
    assert seen == [cert.towerA]
    assert [item.name for item in rep.items[:2]] == ["tower A valid",
                                                      "tower B valid"]


def test_intertwine_against_resorted_variant():
    tA = product_tower(2, 3)
    tB = product_tower(2, 3, resorted=True)
    cert = intertwine(tA, tB, depth=3)
    rep = verify_certificate(cert)
    assert rep.ok, rep.summary()
    # at least one correction is a nontrivial permutation
    nontrivial = 0
    for tri in cert.triangles:
        for w in tri.correction:
            if w != Mat.identity(w.ctx, w.rows):
                nontrivial += 1
    assert nontrivial >= 1


def test_verify_of_a_loaded_certificate_checks_every_conjugator(
        monkeypatch):
    """A loaded certificate's matrices are fresh objects, so replaying
    it forms X^dagger X for every conjugator of every tower map, forward
    and backward hom, and for every correction; no verdict carries over
    from the run that built it."""
    tA = product_tower(2, 2)
    cert = loads(dumps(intertwine(tA, product_tower(2, 2, resorted=True),
                                  depth=2)))
    homs = cert.towerA.maps + cert.towerB.maps + cert.forward + cert.backward
    xs = [arr.conj for h in homs for arr in h.arrangements]
    xs += [w for rec in cert.triangles for w in rec.correction]
    _, count = gram_products(monkeypatch)
    assert verify_certificate(cert).ok
    assert all(count([x]) for x in xs)


def test_intertwine_z3_tower():
    tower = product_tower(3, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    assert verify_certificate(cert).ok


def test_intertwine_stops_at_the_last_given_pair():
    tower = product_tower(2, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2)[:1],
                      depth=2)
    assert (cert.a_stages, cert.b_stages) == ([0], [0])
    assert (len(cert.forward), len(cert.backward)) == (1, 0)
    assert verify_certificate(loads(dumps(cert))).ok
    for depth, pairs in ((0, None), (2, [])):
        with pytest.raises(ReindexFailed):
            intertwine(tower, tower, pairs=pairs, depth=depth)


def test_intertwine_rejects_given_pairs_that_fail_or_do_not_close():
    # fails check_pair at step 0: F doubles the unit class
    tower = product_tower(2, 2)
    good = identity_pairs(tower, 2)
    with pytest.raises(ReindexFailed, match="given pair 0 fails"):
        intertwine(tower, tower, pairs=[KPair([[2]], good[0].phi), good[1]],
                   depth=2)
    # M2 with diag(1, -1), mapped to itself by the identity: swapping the
    # two crossed classes passes check_pair at step 1 but does not close
    # the triangle the backward hom opened
    ctx = ctx_for(2)
    f01 = fixed_form(ctx, [0, 1])
    ident = KPair([[1]], [[1, 0], [0, 1]])
    swap = KPair([[1]], [[0, 1], [1, 0]])
    tower = Tower([f01, f01], [lift(ident, f01, f01)])
    assert check_pair(swap, invariant_of(f01), invariant_of(f01)).ok
    assert verify_certificate(
        intertwine(tower, tower, pairs=[ident, ident], depth=2)).ok
    with pytest.raises(ReindexFailed, match="given pair 1 does not close"):
        intertwine(tower, tower, pairs=[ident, swap], depth=2)


def test_intertwine_checks_each_pair_once(monkeypatch):
    """Each given pair is checked once, by _plan; neither it nor a
    ksearch candidate is checked again by the lift. A non-unital given
    pair still fails the lift with the unital flag."""
    calls = []

    def counted(kp, invA, invB):
        calls.append(kp)
        return check_pair(kp, invA, invB)

    monkeypatch.setattr("afzp.classify.check_pair", counted)
    tower = product_tower(2, 3)
    pairs = identity_pairs(tower, 3)
    assert verify_certificate(
        intertwine(tower, tower, pairs=pairs, depth=3)).ok
    assert calls == pairs
    flat = KPair(pairs[0].F, pairs[0].phi, unital=False)
    with pytest.raises(LiftFailed, match="unital flag"):
        intertwine(tower, tower, pairs=[flat] + pairs[1:], depth=3)


def test_random_towers_realize_the_plan_or_fail_before_any_lift(
        monkeypatch):
    """Seeded random towers against a second presentation of themselves,
    every pair searched. A run that succeeds verifies, and its chain of
    pairs (forward pairs, and the induced pairs of the backward homs) is
    _plan's. The plan keeps each hop's first closing candidate and never
    revisits it, so some of these isomorphic pairs raise ReindexFailed;
    they do so before any lift. Both outcomes must occur."""
    lifts = []
    real = classify._lift
    monkeypatch.setattr(classify, "_lift",
                        lambda *args: lifts.append(args) or real(*args))
    outcomes = set()
    for seed in range(24):
        tA, tB = random_tower_pair(seed)
        depth = len(tA.systems)
        lifts.clear()
        try:
            cert = intertwine(tA, tB, depth=depth)
        except ReindexFailed:
            assert lifts == [], seed
            outcomes.add("no chain")
            continue
        assert verify_certificate(cert).ok, seed
        chain = cert.pairs[:1]
        for chi, psi in zip(cert.backward, cert.pairs[1:]):
            chain += [induced_map(chi), psi]
        assert chain == _plan(tA, tB, depth), seed
        outcomes.add("verified")
    assert outcomes == {"no chain", "verified"}


def test_intertwine_searches_every_hop_at_p7():
    """The machinery works for every prime p it accepts: at p = 7 every
    hop's pair is searched, and the certificate verifies and survives a
    dumps/loads round trip."""
    cert = intertwine(product_tower(7, 2), product_tower(7, 2, resorted=True),
                      depth=2)
    assert verify_certificate(cert).ok
    blob = dumps(cert)
    again = loads(blob)
    assert dumps(again) == blob
    assert verify_certificate(again).ok


def test_certificate_serialization_roundtrip_and_replay():
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    blob = dumps(cert)
    cert2 = loads(blob)
    assert isinstance(cert2, IntertwiningCertificate)
    assert dumps(cert2) == blob
    assert verify_certificate(cert2).ok


def _telescope_certificate():
    """A certificate over stages with gaps, built by hand: tower A is the
    telescope of the p=2 depth-5 product tower B on its stages 0, 2 and
    4, forward homs are identities A_i -> B_2i and backward homs are B's
    composite maps B_2i -> B_2i+2 = A_i+1. Every triangle over B spans
    two of B's maps, so its replay composes them."""
    B = product_tower(2, 5)
    A = Tower([B.systems[s] for s in (0, 2, 4)],
              [B.connecting(0, 2), B.connecting(2, 4)])
    forward = [identity_hom(form) for form in A.systems]
    return IntertwiningCertificate(
        A, B, [0, 1, 2], [0, 2, 4], forward,
        [B.connecting(2 * i, 2 * i + 2) for i in range(2)], [],
        [induced_map(h) for h in forward])


def test_certificate_over_stages_with_gaps_replays():
    cert = _telescope_certificate()
    for got in (cert, loads(dumps(cert))):
        rep = verify_certificate(got)
        assert rep.ok, rep.summary()
        assert "triangle over B2 -> B4 commutes" in [
            item.name for item in rep.items]
    cert.backward[1] = cert.towerB.maps[2]      # B2 -> B3, not B2 -> A2
    failed = [(item.name, item.detail)
              for item in verify_certificate(cert).failures()]
    assert failed == [
        ("backward hom 1 maps B2 -> A2", ""),
        ("triangle over A1 -> A2 commutes",
         "not checked: backward hom 1 is invalid"),
        ("triangle over B2 -> B4 commutes",
         "not checked: backward hom 1 is invalid")]


def test_certificate_detects_corruption():
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    ctx = tower.systems[0].ctx
    # corrupt one entry of one forward conjugator
    bad = loads(dumps(cert))
    arr = bad.forward[1].arrangements[0]
    conj = [list(row) for row in arr.conj.entries]
    conj[0][0] = conj[0][0] + ctx.one
    arr.conj = grid_mat(ctx, arr.conj.rows, arr.conj.cols, conj)
    rep = verify_certificate(bad)
    assert not rep.ok


def test_intertwine_naive_tower_obstructed():
    data = naive_doubling_tower(3)
    assert all(not rep.ok for rep in data["hom_reports"])
    assert all(found == [] for found in data["searches"])
    for rep in data["obstructions"]:
        names = [f.name for f in rep.failures()]
        assert "phi maps special element to special element" in names


def test_intertwine_reports_reindex_failure():
    # towers with incompatible invariants: M2 tower vs trivial-action
    # tower of equal sizes; no unital pair can exist stagewise
    ctx = ctx_for(2)
    tA = product_tower(2, 2)
    triv1 = fixed_form(ctx, [0, 0])
    triv2 = fixed_form(ctx, [0, 0, 0, 0])
    h = EqHom(triv1, triv2,
              [Arrangement([Slot(0, 2), Slot(0, 2)], Mat.identity(ctx, 4))],
              unital=True)
    assert hom_validate(h).ok
    tB = Tower([triv1, triv2], [h])
    with pytest.raises(ReindexFailed):
        intertwine(tA, tB, depth=2)


def test_case_shape_oracle_and_lift_reject_a_non_circulant_pair():
    # a hand-made pair whose phi is not circulant: the checking slicer
    # names the sub-block, and lift refuses it at check_pair before
    # reading any plan
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0, 1])
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[1]], [[1, 1], [0, 1]])
    with pytest.raises(CaseShapeViolation):
        checked_case_params(kp, src, tgt)
    with pytest.raises(PairCheckFailed):
        lift(kp, src, tgt)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_case_params_reads_the_plans_the_checking_slicer_derives(p):
    seen = 0
    for src, tgt in _oracle_grid(p):
        for kp in ksearch(invariant_of(src), invariant_of(tgt)):
            assert _case_params(kp, src, tgt) == \
                checked_case_params(kp, src, tgt)
            seen += 1
    assert seen > 0
