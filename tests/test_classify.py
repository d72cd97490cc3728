import itertools

import pytest

from afzp._rat import RAT
from afzp.classify import (IntertwiningCertificate, Tower, conjugate_hom,
                           equiv_unitary, intertwine, ksearch, lift,
                           verify_certificate)
from afzp.demos import identity_pairs, naive_doubling_tower, product_tower
from afzp.errors import (CaseShapeViolation, KDataMismatch, PairCheckFailed,
                         ReindexFailed)
from afzp.kinv import (KPair, check_pair, imat_mul, induced_map, invariant_of,
                       ivec_mul)
from afzp.matrix import Mat
from afzp.serialize import dumps, loads
from afzp.system import (Arrangement, EqHom, Slot, equal_as_maps,
                         hom_compose, hom_validate)

from conftest import (ctx_for, cycle_form, fixed_form, mixed_form, solve,
                      unit_tuple, vec_row_major)


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
    assert sorted(s.phase for s in h.arrangements[0].slots) == [0, 1]


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
                    p1 = h1.apply(a)[toff]
                    p2 = h2.apply(a)[toff]
                    sysm = ident.kron(_transpose(p2)) - \
                        p1.kron(Mat.identity(ctx, n))
                    rows.extend(sysm.entries)
        if piece.kind == "fixed":
            V = piece.v
            sysm = Mat.identity(ctx, n).kron(_transpose(V)) - \
                V.kron(Mat.identity(ctx, n))
            rows.extend(sysm.entries)
        sysmat = Mat(ctx, len(rows), n * n, rows)
        _, basis = solve(sysmat, Mat.zero(ctx, len(rows), 1))
        # membership: express vec(W) in the kernel basis
        if not basis:
            return False
        stacked = Mat(ctx, n * n, len(basis),
                      [[basis[b].entries[r][0] for b in range(len(basis))]
                       for r in range(n * n)])
        try:
            solve(stacked, vec_row_major(W[toff]))
        except Exception:
            return False
    return True


def _transpose(m):
    return Mat(m.ctx, m.cols, m.rows,
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
               [Arrangement([Slot(0, 1, 1), Slot(0, 1, 0)],
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
            assert entry.L.power(2) == Mat.identity(ctx, entry.L.rows)
            assert entry.N.power(2) == Mat.identity(ctx, entry.N.rows)


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


def test_equiv_unitary_fourier_twisted_commutant():
    # a hand-twisted hom whose commutant element is not diagonal: the
    # projection-average fallback still finds a field unitary
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[2]], [[1, 1], [1, 1]])
    h1 = lift(kp, src, tgt)
    ginv = ctx.sqrt_group_order().inv()
    G = Mat.from_rows(ctx, [[ginv, ginv], [ginv, -1 * ginv]])
    assert G.is_unitary()
    h2 = EqHom(src, tgt,
               [Arrangement(list(h1.arrangements[0].slots),
                            h1.arrangements[0].conj * G)], unital=True)
    assert hom_validate(h2).ok and induced_map(h2) == kp
    W, _ = equiv_unitary(h1, h2)
    assert equal_as_maps(conjugate_hom(W, h2), h1)
    assert intertwiner_space_membership(h1, h2, W)


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


# -- towers and certificates --------------------------------------------------

def test_self_intertwine_with_identity_pairs():
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    rep = verify_certificate(cert)
    assert rep.ok, rep.summary()
    assert cert.a_stages == [0, 1, 2]


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


def test_certificate_serialization_roundtrip_and_replay():
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    blob = dumps(cert)
    cert2 = loads(blob)
    assert isinstance(cert2, IntertwiningCertificate)
    assert dumps(cert2) == blob
    assert verify_certificate(cert2).ok


def test_certificate_detects_corruption():
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    ctx = tower.systems[0].ctx
    # corrupt one entry of one forward conjugator
    bad = loads(dumps(cert))
    conj = bad.forward[1].arrangements[0].conj
    conj.entries[0][0] = conj.entries[0][0] + ctx.one
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


def test_case_shape_violation_reported():
    # hand-made pair with non-circulant phi sneaking past nothing: the
    # slicer names the offending sub-block
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0, 1])
    tgt = fixed_form(ctx, [0, 1])
    from afzp.classify import _case_params
    with pytest.raises(CaseShapeViolation):
        _case_params(KPair([[1]], [[1, 1], [0, 1]]), src, tgt)
