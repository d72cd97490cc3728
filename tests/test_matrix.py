import random

import pytest

from afzp.cyclo import make_root
from afzp.errors import MultisetMismatch, NotOrderP, ShapeMismatch
from afzp.matrix import Mat, match_diagonals, spectral

from conftest import Inconsistent, ctx_for, direct_sum, solve


def test_dagger_of_imaginary_diagonal():
    ctx = ctx_for(2, 4)
    i = make_root(ctx, 1)
    assert Mat.diag(ctx, [i]).dagger() == Mat.diag(ctx, [-i])


def test_kron_identities():
    ctx = ctx_for(2)
    assert Mat.identity(ctx, 2).kron(Mat.identity(ctx, 3)) == \
        Mat.identity(ctx, 6)


def test_trace_of_identity():
    ctx = ctx_for(2)
    for n in (1, 3, 5):
        assert Mat.identity(ctx, n).trace() == ctx.scalar(n)


def test_is_unitary():
    ctx = ctx_for(2)
    assert Mat.diag(ctx, [1, -1]).is_unitary()
    assert not Mat.from_rows(ctx, [[1, 1], [1, 1]]).is_unitary()
    ctx3 = ctx_for(3)
    shift = Mat.permutation(ctx3, [1, 2, 0])
    assert shift.is_unitary()


def test_shape_mismatch():
    ctx = ctx_for(2)
    with pytest.raises(ShapeMismatch):
        Mat.identity(ctx, 2) * Mat.identity(ctx, 3)


def test_spectral_examples():
    ctx = ctx_for(2)
    sd = spectral(Mat.diag(ctx, [1, -1]), 2)
    assert sd.multiplicities == [1, 1]
    assert sd.projections[0] == Mat.diag(ctx, [1, 0])

    ctx3 = ctx_for(3)
    sd = spectral(Mat.identity(ctx3, 3), 3)
    assert sd.multiplicities == [3, 0, 0]

    # eigenvalue counts of the inner unitary on the doubling tower stage
    sd = spectral(Mat.diag(ctx, [1, 1, 1, -1]), 2)
    assert sd.multiplicities == [3, 1]


def test_spectral_rejects_wrong_order():
    ctx = ctx_for(2)
    with pytest.raises(NotOrderP):
        spectral(Mat.diag(ctx, [ctx.one, make_root(ctx, 1)]), 2)


def test_spectral_reconstruction_random():
    rng = random.Random(11)
    for p in (2, 3, 5):
        ctx = ctx_for(p, p * p)
        for _ in range(50):
            n = rng.randint(1, 4)
            exps = [rng.randrange(p) for _ in range(n)]
            V = Mat.diag(ctx, [ctx.zeta_p(e) for e in exps])
            sd = spectral(V, p)
            recon = Mat.zero(ctx, n, n)
            for k in range(p):
                recon = recon + sd.projections[k] * ctx.zeta_p(k)
            assert recon == V
            assert sd.multiplicities == [exps.count(k) for k in range(p)]
            for P in sd.projections:
                assert P * P == P and P.dagger() == P


def test_spectral_projections_commute_with_commutant():
    # anything commuting with V commutes with every averaged projection
    rng = random.Random(5)
    ctx = ctx_for(3)
    exps = [0, 0, 1, 2]
    V = Mat.diag(ctx, [ctx.zeta_p(e) for e in exps])
    sd = spectral(V, 3)
    for _ in range(10):
        # block-diagonal matrices over equal-eigenvalue groups commute with V
        C = Mat.zero(ctx, 4, 4)
        C.entries[0][0] = ctx.scalar(rng.randint(-2, 2))
        C.entries[0][1] = ctx.scalar(rng.randint(-2, 2))
        C.entries[1][0] = ctx.scalar(rng.randint(-2, 2))
        C.entries[1][1] = ctx.scalar(rng.randint(-2, 2))
        C.entries[2][2] = ctx.scalar(rng.randint(-2, 2))
        C.entries[3][3] = ctx.scalar(rng.randint(-2, 2))
        assert V * C == C * V
        for P in sd.projections:
            assert P * C == C * P


def test_match_diagonals_examples():
    ctx = ctx_for(2)
    D = Mat.diag(ctx, [1, -1])
    assert match_diagonals(D, D, 2) == Mat.identity(ctx, 2)
    Q = match_diagonals(D, Mat.diag(ctx, [-1, 1]), 2)
    assert Q == Mat.permutation(ctx, [1, 0])

    D1 = Mat.diag(ctx, [1, 1, -1])
    D2 = Mat.diag(ctx, [1, -1, 1])
    Q = match_diagonals(D1, D2, 2)
    # independent check by direct multiplication
    assert Q.dagger() * D1 * Q == D2
    assert Q == Mat.permutation(ctx, [0, 2, 1])


def test_match_diagonals_random_property():
    rng = random.Random(23)
    for p in (2, 3):
        ctx = ctx_for(p)
        for _ in range(20):
            n = rng.randint(1, 5)
            e1 = [rng.randrange(p) for _ in range(n)]
            e2 = list(e1)
            rng.shuffle(e2)
            D1 = Mat.diag(ctx, [ctx.zeta_p(e) for e in e1])
            D2 = Mat.diag(ctx, [ctx.zeta_p(e) for e in e2])
            Q = match_diagonals(D1, D2, p)
            assert Q.is_unitary()
            assert all(sum(1 for e in row if not e.is_zero()) <= 1
                       for row in Q.entries)
            assert Q.dagger() * D1 * Q == D2


def test_match_diagonals_multiset_mismatch():
    ctx = ctx_for(2)
    with pytest.raises(MultisetMismatch) as info:
        match_diagonals(Mat.diag(ctx, [1, 1]), Mat.diag(ctx, [1, -1]), 2)
    assert info.value.counts1 == [2, 0]
    assert info.value.counts2 == [1, 1]


def test_solve_identity_and_trivial_kernel():
    ctx = ctx_for(2)
    b = Mat.from_rows(ctx, [[3], [5]])
    part, basis = solve(Mat.identity(ctx, 2), b)
    assert part == b and basis == []

    part, basis = solve(Mat.zero(ctx, 1, 1), Mat.zero(ctx, 1, 1))
    assert len(basis) == 1 and basis[0].entries[0][0] == ctx.one


def test_solve_inconsistent():
    ctx = ctx_for(2)
    with pytest.raises(Inconsistent):
        solve(Mat.zero(ctx, 1, 1), Mat.from_rows(ctx, [[1]]))


def test_direct_sum_and_power():
    ctx = ctx_for(2)
    d = direct_sum(Mat.diag(ctx, [1, -1]), Mat.identity(ctx, 1))
    assert d == Mat.diag(ctx, [1, -1, 1])
    s = Mat.permutation(ctx, [1, 0])
    assert s.power(2) == Mat.identity(ctx, 2)
    assert s.power(3) == s
