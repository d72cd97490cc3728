import gc
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from afzp._rat import RAT
from afzp.classify import conjugate_hom, equiv_unitary, ksearch, lift
from afzp.crossed import CrossedElement, crossed_product
from afzp.cyclo import _scalar
from afzp.errors import (MultisetMismatch, NotOrderP, ShapeMismatch,
                         TwistRootOutsideField, UnitaryNotFoundInField)
from afzp.kinv import invariant_of
from afzp.matrix import (Mat, _root_of_norm, blockdiag, diag_root_exponents,
                         spectral, unitary_conjugator)
from afzp.serialize import dumps, loads
from afzp.system import FdSystem, decompose, root_sum

from conftest import (ORACLE_FIELDS, Inconsistent, checked_conjugator,
                      corrupt_entry, ctx_for, dense_blockdiag, dense_dagger,
                      dense_is_diagonal, dense_is_scalar, dense_is_unitary,
                      dense_is_zero, dense_mul, diag_root_exponents_by_hashing,
                      direct_sum, fixed_point_unitary, gram_products,
                      grid_mat, mat_kron, mat_neg,
                      mat_power, match_diagonals, matmul_by_terms, mixed_form,
                      oracle_matrix, oracle_scalar, rand_tuple, solve,
                      sparse_rows_defect, sum_rows_by_coefficients,
                      unitary_conjugator_search, zero_grid)


def test_dagger_of_imaginary_diagonal():
    ctx = ctx_for(2, 4)
    i = ctx.root(1)
    assert Mat.diag(ctx, [i]).dagger() == Mat.diag(ctx, [-i])


def test_kron_identities():
    ctx = ctx_for(2)
    assert mat_kron(Mat.identity(ctx, 2), Mat.identity(ctx, 3)) == \
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
    ps = spectral(Mat.diag(ctx, [1, -1]), 2)
    assert _ranks(ps) == [1, 1]
    assert ps[0] == Mat.diag(ctx, [1, 0])

    ctx3 = ctx_for(3)
    assert _ranks(spectral(Mat.identity(ctx3, 3), 3)) == [3, 0, 0]

    # eigenvalue counts of the inner unitary on the doubling tower stage
    assert _ranks(spectral(Mat.diag(ctx, [1, 1, 1, -1]), 2)) == [3, 1]


def _ranks(projections):
    """The trace of each projection, as an int."""
    return [int(P.trace().rational_part()) for P in projections]


def test_spectral_rejects_wrong_order():
    ctx = ctx_for(2)
    with pytest.raises(NotOrderP):
        spectral(Mat.diag(ctx, [ctx.one, ctx.root(1)]), 2)


def test_spectral_reconstruction_random():
    rng = random.Random(11)
    for p in (2, 3, 5):
        ctx = ctx_for(p, p * p)
        for _ in range(50):
            n = rng.randint(1, 4)
            exps = [rng.randrange(p) for _ in range(n)]
            V = Mat.diag(ctx, [ctx.zeta_p(e) for e in exps])
            ps = spectral(V, p)
            recon = Mat.zero(ctx, n, n)
            for k in range(p):
                recon = recon + ps[k] * ctx.zeta_p(k)
            assert recon == V
            assert _ranks(ps) == [exps.count(k) for k in range(p)]
            for P in ps:
                assert P * P == P and P.dagger() == P


def test_spectral_projections_commute_with_commutant():
    # anything commuting with V commutes with every averaged projection
    rng = random.Random(5)
    ctx = ctx_for(3)
    exps = [0, 0, 1, 2]
    V = Mat.diag(ctx, [ctx.zeta_p(e) for e in exps])
    ps = spectral(V, 3)
    for _ in range(10):
        # block-diagonal matrices over equal-eigenvalue groups commute with V
        C = zero_grid(ctx, 4)
        C[0][0] = ctx.scalar(rng.randint(-2, 2))
        C[0][1] = ctx.scalar(rng.randint(-2, 2))
        C[1][0] = ctx.scalar(rng.randint(-2, 2))
        C[1][1] = ctx.scalar(rng.randint(-2, 2))
        C[2][2] = ctx.scalar(rng.randint(-2, 2))
        C[3][3] = ctx.scalar(rng.randint(-2, 2))
        C = grid_mat(ctx, 4, 4, C)
        assert V * C == C * V
        for P in ps:
            assert P * C == C * P


def test_match_diagonals_examples():
    ctx = ctx_for(2)
    D = Mat.diag(ctx, [1, -1])
    assert unitary_conjugator(D, D, 2) == Mat.identity(ctx, 2)
    Q = unitary_conjugator(D, Mat.diag(ctx, [-1, 1]), 2)
    assert Q == Mat.permutation(ctx, [1, 0])

    D1 = Mat.diag(ctx, [1, 1, -1])
    D2 = Mat.diag(ctx, [1, -1, 1])
    Q = unitary_conjugator(D1, D2, 2)
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
            Q = unitary_conjugator(D1, D2, p)
            assert Q.is_unitary()
            assert all(sum(1 for e in row if not e.is_zero()) <= 1
                       for row in Q.entries)
            assert Q.dagger() * D1 * Q == D2


def test_match_diagonals_multiset_mismatch():
    ctx = ctx_for(2)
    with pytest.raises(MultisetMismatch) as info:
        unitary_conjugator(Mat.diag(ctx, [1, 1]), Mat.diag(ctx, [1, -1]), 2)
    assert info.value.counts1 == [2, 0]
    assert info.value.counts2 == [1, 1]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 2), (2, 4), (2, 16), (3, 3), (3, 9), (3, 36),
                        (5, 5), (7, 7)]),
       st.lists(st.integers(0, 6), min_size=1, max_size=8), st.randoms())
def test_unitary_conjugator_matches_match_diagonals_oracle(field, exps, rnd):
    """On diagonal pairs with equal multisets unitary_conjugator returns
    the permutation match_diagonals returns: equal eigenvalues matched in
    increasing index order."""
    p, order = field
    ctx = ctx_for(p, order)
    e1 = [e % p for e in exps]
    e2 = list(e1)
    rnd.shuffle(e2)
    D1 = Mat.diag(ctx, [ctx.zeta_p(e) for e in e1])
    D2 = Mat.diag(ctx, [ctx.zeta_p(e) for e in e2])
    assert checked_conjugator(unitary_conjugator, D1, D2, p) == \
        checked_conjugator(match_diagonals, D1, D2, p)


def test_unitary_conjugator_pairs_a_swap_with_a_diagonal():
    """p = 2, order 16: L1 = diag(1, 1, -1) against L2 = 1 (+) [[0, 1],
    [1, 0]]. The +1 eigenvectors of L2 are e_0 and (e_1 + e_2) / 2, the
    ratio 1/2 takes s = sqrt 2 / 2, and Z = 1 (+) F_2. The retired search
    finds no Z: the projection average is not a multiple of a unitary,
    and no root-of-unity permutation intertwines the two."""
    ctx = ctx_for(2)
    L1 = Mat.diag(ctx, [1, 1, -1])
    L2 = Mat.from_rows(ctx, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    Z = checked_conjugator(unitary_conjugator, L1, L2, 2)
    half_root2 = ctx.sqrt_group_order() * RAT(1, 2)
    assert Z == Mat.from_rows(ctx, [[1, 0, 0], [0, half_root2, half_root2],
                                    [0, half_root2, -1 * half_root2]])
    with pytest.raises(UnitaryNotFoundInField):
        unitary_conjugator_search(L1, L2, 2)


def test_unitary_conjugator_refuses_an_irrational_norm_ratio():
    """The known trade against the retired search. At p = 2, order 16,
    the Hadamard matrix H (a reflection conjugated by the pi/8 rotation)
    against S H S for the swap S: the first +1 eigenvectors have squared
    norms cos^2(pi/8) and sin^2(pi/8), whose ratio 3 - 2 sqrt 2 is not
    rational, so the construction refuses and names the ratio. The
    search's projection average finds Z."""
    ctx = ctx_for(2)
    half = RAT(1, 2)
    c = (ctx.root(1) + ctx.root(-1)) * half     # cos(pi/8)
    s = (ctx.root(3) + ctx.root(-3)) * half     # sin(pi/8)
    R = Mat.from_rows(ctx, [[c, -1 * s], [s, c]])
    L1 = R * Mat.diag(ctx, [1, -1]) * R.dagger()
    S = Mat.permutation(ctx, [1, 0])
    L2 = S * L1 * S
    checked_conjugator(unitary_conjugator_search, L1, L2, 2)
    root2 = ctx.sqrt_group_order()
    with pytest.raises(UnitaryNotFoundInField) as info:
        unitary_conjugator(L1, L2, 2)
    assert repr(3 - 2 * root2) in str(info.value)
    assert "zeta_p^0" in str(info.value)


@pytest.mark.parametrize("field", [(2, 2), (2, 4), (2, 16), (3, 3), (3, 9),
                                   (3, 36), (5, 5), (5, 100), (7, 7)])
def test_root_of_norm_reads_the_decided_ratios(field):
    """s conj(s) = q for every q = k^2 2^a p^b / c^2 the field decides;
    None for the factor 2 at odd p without i in the field, for q <= 0
    and for another squarefree part. At p = 2 the factor 2 is the Gauss
    sum at order 16 and 1 + i at order 4; order 2 has neither and names
    order 4."""
    p, order = field
    ctx = ctx_for(p, order)
    for a in (0, 1):
        for b in (0, 1):
            for k, c in ((1, 1), (3, 2), (2, 15)):
                q = RAT(k * k * 2 ** a * p ** b, c * c)
                if p == 2 and order == 2 and a != b:
                    with pytest.raises(TwistRootOutsideField,
                                       match="field order >= 4"):
                        _root_of_norm(ctx, q)
                elif a and p != 2 and order % 4:
                    assert _root_of_norm(ctx, q) is None
                else:
                    s = _root_of_norm(ctx, q)
                    assert s.conj() * s == ctx.scalar(q)
    for q in (RAT(0), RAT(-2), RAT(3 if p != 3 else 5), RAT(7 if p != 7
                                                              else 11, 4)):
        assert _root_of_norm(ctx, q) is None


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
    assert mat_power(s, 2) == Mat.identity(ctx, 2)
    assert mat_power(s, 3) == s


# -- indexed kernels against the dense oracles -------------------------------

_KINDS = st.sampled_from(["monomial", "sparse", "dense"])


def _fresh(m):
    """m rebuilt from its dense entries."""
    return grid_mat(m.ctx, m.rows, m.cols, m.entries)


def _checked(m):
    """m, after checking that its stored rows are the ascending nonzero
    columns and values of its entries."""
    assert sparse_rows_defect(m) is None
    return m


def test_entries_cannot_be_written():
    ctx = ctx_for(2)
    m = Mat.identity(ctx, 2)
    with pytest.raises(TypeError):
        m.entries[0][1] = ctx.one
    with pytest.raises(TypeError):
        m.entries[0] = (ctx.one, ctx.one)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6), _KINDS, _KINDS, st.booleans(), st.randoms())
def test_product_and_adjoint_match_the_dense_oracles(field, r, k, c, ka, kb,
                                                     fresh, rnd):
    """a * b and a^dagger equal the dense kernels' on monomial, sparse
    and dense operands of every shape up to 6 (0 included), and store
    the canonical sparse rows of their entries; so do their adjoints."""
    ctx = ctx_for(*field)
    a = oracle_matrix(ctx, rnd, r, k, ka)
    b = oracle_matrix(ctx, rnd, k, c, kb)
    if fresh:
        a, b = _fresh(a), _fresh(b)
    got = _checked(a * b)
    assert got == dense_mul(a, b)
    assert _checked(a.dagger()) == dense_dagger(a)
    assert _checked(got.dagger()) == dense_dagger(got)
    assert _checked(mat_neg(got)) == dense_mul(a, b * -1)
    assert _checked(got * ctx.root(1)) == dense_mul(a, b) * ctx.root(1)
    assert _checked(got * 0).is_zero()


def test_product_keeps_full_and_cancelled_rows_exact():
    """A row that every column reaches keeps them all, and one whose
    sums cancel drops those columns from its stored row."""
    ctx = ctx_for(3, 9)
    a = Mat.from_rows(ctx, [[1, 1, 0], [1, -1, 1], [0, 0, 0]])
    b = Mat.from_rows(ctx, [[0, 1, 2], [0, -1, 1], [1, 0, 0]])
    got = _checked(a * b)
    assert got == dense_mul(a, b)
    assert got.nz == ((2,), (0, 1, 2), ())


# -- product rows summed on integer numerators -------------------------------

_KERNEL_FIELDS = ORACLE_FIELDS + [(7, 7), (7, 49)]


def _mixed_den_matrix(ctx, rnd, rows, cols):
    """rows x cols, dense, each row's entries over the denominators 1, 2,
    3, 4, 6 in turn: a product row's running common denominator grows
    mid-sum (1, 2, 6, 12, 12 along row 0)."""
    return grid_mat(ctx, rows, cols, [
        [ctx.root(rnd.randrange(ctx.order))
         * RAT(rnd.choice((1, -1, 5)), (1, 2, 3, 4, 6)[(i + j) % 5])
         for j in range(cols)] for i in range(rows)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_KERNEL_FIELDS), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.sampled_from(["mixed", "monomial", "sparse",
                                           "dense"]),
       _KINDS, st.booleans(), st.randoms())
def test_product_rows_sum_as_the_per_term_oracle(field, r, k, c, ka, kb,
                                                 few_terms, rnd):
    """a * b stores the very nz and vals tuples of the per-term product
    (one reduced Scalar per term and partial sum), sums each row with
    several nonzeros as the kernel over all coefficients does, and
    equals the dense kernel's, at orders up to 49 (degree 42), on rows whose denominators
    1, 2, 3, 4, 6 grow the running denominator mid-sum, and on rows whose
    terms cancel: row r is w z b_0 - w b_k = 0, with b_k = z b_0, and
    row r + 1 adds v b_1 to it. A shape mismatch raises the oracle's
    ShapeMismatch message. With few_terms, entries are also rationals
    and single powers z^j."""
    ctx = ctx_for(*field)
    a = _mixed_den_matrix(ctx, rnd, r, k) if ka == "mixed" \
        else oracle_matrix(ctx, rnd, r, k, ka, few_terms)
    b = oracle_matrix(ctx, rnd, k, c, kb, few_terms)
    if rnd.random() < 0.5:
        b = _mixed_den_matrix(ctx, rnd, k, c)
    w, v, z = (oracle_scalar(ctx, rnd, few_terms) for _ in range(3))
    b = Mat(ctx, k + 1, c, b.nz + b.nz[:1],
            b.vals + (tuple([z * x for x in b.vals[0]]),))
    cancel = {0: w * z, k: -w}
    a = Mat.from_dicts(ctx, k + 1, [dict(zip(cols, vals)) for cols, vals
                                    in zip(a.nz, a.vals)]
                       + [cancel, {**cancel, (1 if k > 1 else 0): v}])
    got, want = _checked(a * b), matmul_by_terms(a, b)
    assert got.nz == want.nz and got.vals == want.vals
    for i, (acols, avals) in enumerate(zip(a.nz, a.vals)):
        if len(acols) > 1:
            assert (got.nz[i], got.vals[i]) == sum_rows_by_coefficients(
                ctx, avals, [(b.nz[k], b.vals[k]) for k in acols])
    assert got == dense_mul(a, b)
    assert got.nz[r] == ()
    if k > 1:
        assert got.nz[r + 1] == b.nz[1]
    if b.cols != a.rows:
        errors = []
        for mul in (Mat.__mul__, matmul_by_terms):
            with pytest.raises(ShapeMismatch) as err:
                mul(b, a)
            errors.append(str(err.value))
        assert errors == ["%dx%d times %dx%d" % (k + 1, c, r + 2, k + 1)] * 2


def _dense_product_text(p):
    """dumps of seeded dense products and of a crossed product's
    identify(mul(x, y)), all at field order p."""
    ctx = ctx_for(p, p)
    rnd = random.Random(p)
    prods = []
    for r, k, c in ((4, 4, 4), (3, 6, 2), (6, 5, 6)):
        a = oracle_matrix(ctx, rnd, r, k, "dense")
        prods.append(a * oracle_matrix(ctx, rnd, k, c, "dense"))
    form = mixed_form(ctx, [("fixed", [0] + [p - 1] * 2), ("cycle", 2)])
    cp = crossed_product(form)
    x, y = (CrossedElement([rand_tuple(form, rnd) for _ in range(p)])
            for _ in range(2))
    return dumps(prods) + dumps(cp.identify(cp.mul(x, y)))


@pytest.mark.parametrize("p,digest", [
    (2, "b934c36f456490eb9a803b08b570d63a303b4e919e314abd06526e7efa244b41"),
    (3, "077ee5cabe9608dc2f48358b56b31f35884097321bfc056679688b2bc82beb81"),
    (5, "5c9251842d9846508a651e34864834f52b11821b2d2c39e5bae6138beab76a88"),
])
def test_dense_product_bytes_are_pinned(p, digest):
    """The bytes of dense products, which the monomial pinned
    certificates never reach; the digests were taken in format 2 while
    each product row still summed one reduced Scalar per term. Format 3
    changed nothing in these unitaries documents but their version, so
    they are hashed with it written back as 2."""
    text = _dense_product_text(p)
    assert text.count('"afzp_format":3') == 2
    old = text.replace('"afzp_format":3', '"afzp_format":2')
    assert hashlib.sha256(old.encode()).hexdigest() == digest


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 6),
       st.sampled_from(["unitary", "monomial", "sparse", "dense"]),
       st.booleans(), st.randoms())
def test_is_tests_match_the_dense_oracles(field, n, kind, corrupt, rnd):
    """is_unitary, is_diagonal, is_zero and is_scalar agree
    with the dense kernels on unitaries (0x0 included), other square and
    non-square matrices, diagonal, identity and lambda * I matrices, and
    each of these with one entry corrupted."""
    ctx = ctx_for(*field)
    lam = ctx.root(rnd.randrange(ctx.order))
    mats = [oracle_matrix(ctx, rnd, n, n, kind),
            oracle_matrix(ctx, rnd, n, n + 1, kind),
            oracle_matrix(ctx, rnd, n + 1, n, kind),
            Mat.diag(ctx, [lam] * n), Mat.identity(ctx, n),
            Mat.diag(ctx, [rnd.choice([ctx.zero, lam]) for _ in range(n)]),
            Mat.zero(ctx, n, n + rnd.randrange(2))]
    if corrupt:
        mats = [corrupt_entry(m, rnd) for m in mats]
    for m in mats:
        for x in (m, _fresh(m)):
            assert x.is_unitary() == dense_is_unitary(x)
            assert x.is_diagonal() == dense_is_diagonal(x)
            assert x.is_zero() == dense_is_zero(x)
            assert x.is_scalar() == dense_is_scalar(x)
    if kind == "unitary" and not corrupt:
        assert mats[0].is_unitary()


def _cache_cases(ctx, p, n, rnd):
    """Unitaries of size n: a permutation times roots of unity, and the
    unitary_conjugator Z of L1 = diag(zeta_p^e) and L2 = U^dagger L1 U,
    U one of oracle_matrix's unitaries, whose rational rotation makes Z
    not monomial."""
    images = list(range(n))
    rnd.shuffle(images)
    perm = Mat.permutation(ctx, images) * Mat.diag(
        ctx, [ctx.root(rnd.randrange(ctx.order)) for _ in range(n)])
    L1 = Mat.diag(ctx, [ctx.zeta_p(rnd.randrange(p)) for _ in range(n)])
    U = oracle_matrix(ctx, rnd, n, n, "unitary")
    return [perm, unitary_conjugator(L1, U.dagger() * L1 * U, p)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 5), st.booleans(),
       st.booleans(), st.randoms())
def test_kept_adjoint_and_unitarity_match_fresh_and_dense_oracles(
        field, n, corrupt, unitary_first, rnd):
    """dagger() and is_unitary() give the same answer on a second call,
    the same as on a fresh Mat of the same rows (no verdict is shared
    between equal matrices), and the same as the dense oracles, on
    unitaries and on copies with one entry corrupted; the kept adjoint
    holds no reference back to its matrix."""
    ctx = ctx_for(*field)
    for m in _cache_cases(ctx, field[0], n, rnd):
        if corrupt:
            m = corrupt_entry(m, rnd)
        if unitary_first:
            verdict = m.is_unitary()
        adjoint = m.dagger()
        if not unitary_first:
            verdict = m.is_unitary()
        assert m.dagger() is adjoint and m.is_unitary() is verdict
        fresh = Mat(m.ctx, m.rows, m.cols, m.nz, m.vals)
        assert fresh.dagger() == adjoint and fresh.is_unitary() == verdict
        assert adjoint == dense_dagger(m)
        assert verdict == dense_is_unitary(m)
        assert verdict or corrupt
        assert not any(r is m for r in gc.get_referents(adjoint))


def _verdict_leaf(ctx, rnd, k):
    """A fresh k x k matrix: unitary, monomial, dense, a unitary with one
    entry corrupted, the identity, or a permutation matrix with valid
    or with repeated images."""
    kind = rnd.choice(["unitary", "unitary", "monomial", "dense",
                       "corrupt", "identity", "permutation", "repeated"])
    if kind == "corrupt":
        return corrupt_entry(oracle_matrix(ctx, rnd, k, k, "unitary"), rnd)
    if kind == "identity":
        return Mat.identity(ctx, k)
    if kind in ("permutation", "repeated"):
        images = list(range(k))
        rnd.shuffle(images)
        if kind == "repeated" and k >= 2:
            i, j = rnd.sample(range(k), 2)
            images[i] = images[j]
        return Mat.permutation(ctx, images)
    return oracle_matrix(ctx, rnd, k, k, kind)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.randoms())
def test_inherited_unitarity_matches_the_dense_oracle(field, rnd):
    """Random products, adjoints (taken before and after their matrix's
    verdict), block sums that fill their size or are zero-padded, and
    the leaves above, with verdicts asked for at random points: every
    is_unitary(), known by construction, inherited or computed, equals
    the dense X^dagger X == I and the verdict of a fresh copy."""
    ctx = ctx_for(*field)
    pool = [_verdict_leaf(ctx, rnd, rnd.randint(0, 3)) for _ in range(4)]
    for _ in range(14):
        op = rnd.choice(["leaf", "product", "product", "adjoint",
                         "blocks", "decide"])
        x = rnd.choice(pool)
        if op == "leaf":
            pool.append(_verdict_leaf(ctx, rnd, rnd.randint(0, 3)))
        elif op == "product":
            pool.append(x * rnd.choice([y for y in pool if y.rows == x.cols]))
        elif op == "adjoint":
            if rnd.random() < 0.5:
                x.is_unitary()
            pool.append(x.dagger())
        elif op == "blocks":
            blocks = [m for m in rnd.sample(pool, rnd.randint(1, 3))
                      if m.rows <= 3]
            size = sum(m.rows for m in blocks)
            pool.append(blockdiag(ctx, blocks, size + rnd.randint(0, 1)))
        else:
            x.is_unitary()
    for x in pool:
        assert x.is_unitary() == dense_is_unitary(x) == _fresh(x).is_unitary()
        assert x.dagger().is_unitary() == dense_is_unitary(x)
    wide = oracle_matrix(ctx, rnd, 2, 3, "monomial")
    for first in (wide, wide.dagger()):
        assert not first.is_unitary()
        assert not wide.is_unitary() and not wide.dagger().is_unitary()


def test_unitarity_known_or_inherited_forms_no_product(monkeypatch):
    """is_unitary() forms no product on I, on a permutation matrix, and
    on products, adjoints and full block sums of matrices already known
    unitary; it forms X^dagger X once on a zero-padded block sum, on a
    permutation with a repeated image, and on a rebuilt copy of a known
    unitary, which starts with no verdict."""
    ctx = ctx_for(3)
    u = Mat.diag(ctx, [ctx.zeta_p(1), 1]) * Mat.from_rows(
        ctx, [[RAT(3, 5), RAT(-4, 5)], [RAT(4, 5), RAT(3, 5)]])
    assert u.is_unitary()
    perm = Mat.permutation(ctx, [2, 0, 1])
    known = [Mat.identity(ctx, 3), perm, u * u, u.dagger(),
             (u * u).dagger() * u,
             blockdiag(ctx, [u, Mat.identity(ctx, 1)]) * perm,
             blockdiag(ctx, [], 0)]
    open_ = [blockdiag(ctx, [u], 3), Mat.permutation(ctx, [0, 0, 1]),
             Mat(ctx, 2, 2, u.nz, u.vals)]
    seen, _ = gram_products(monkeypatch)
    assert all(x.is_unitary() for x in known)
    assert seen == []
    assert [x.is_unitary() for x in open_] == [False, False, True]
    assert len(seen) == len(open_)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_diag_root_exponents_match_the_hashing_oracle(p):
    """diag_root_exponents reads each entry's exponent off the field's
    one table of roots (a shared root's mark, or root_exponent's search
    on an unmarked scalar) and agrees with building the map
    zeta_p^k -> k on each call, at field orders 4p^2, p and p^2: on
    diagonals of p-th roots (the empty one too), shared or unmarked
    twins, and on ones with an entry that is not a p-th root, which give
    None."""
    for ctx in (ctx_for(p), ctx_for(p, p), ctx_for(p, p * p)):
        rng = random.Random(p)
        others = [ctx.scalar(2), ctx.zero, ctx.zeta_p(1) * RAT(1, 2)]
        if ctx.order > p:               # zeta_N is no p-th root
            others += [ctx.root(1), _scalar(ctx, ctx.root(1).num, 1)]
        for n in range(6):
            exps = [rng.randrange(p) for _ in range(n)]
            shared = [ctx.zeta_p(e) for e in exps]
            for vals in (shared, [_scalar(ctx, r.num, 1) for r in shared]):
                d = Mat.diag(ctx, vals)
                assert diag_root_exponents(d, p) == exps \
                    == diag_root_exponents_by_hashing(d, p)
                if n:
                    vals = list(vals)
                    vals[rng.randrange(n)] = rng.choice(others)
                    bad = Mat.diag(ctx, vals)
                    assert diag_root_exponents(bad, p) is None \
                        is diag_root_exponents_by_hashing(bad, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS),
       st.lists(st.tuples(st.integers(0, 3), _KINDS), max_size=4),
       st.integers(0, 2), st.randoms())
def test_blockdiag_matches_the_dense_oracle(field, blocks, pad, rnd):
    """Direct sums of square blocks of sizes 0..3, zero-padded or not,
    equal the dense kernel's, with the sparse rows of their entries."""
    ctx = ctx_for(*field)
    mats = [oracle_matrix(ctx, rnd, n, n, kind) for n, kind in blocks]
    total = sum(m.rows for m in mats) + pad
    assert _checked(blockdiag(ctx, mats, total)) == \
        dense_blockdiag(ctx, mats, total)
    assert _checked(blockdiag(ctx, mats)) == dense_blockdiag(ctx, mats)


# -- one storage: sparse rows ------------------------------------------------

def test_permutation_of_4096_retains_under_2_mib():
    """A 4096 x 4096 permutation keeps one column and one value per row:
    well under 2 MiB, where a dense grid of references takes 128 MiB."""
    ctx = ctx_for(2)
    images = list(range(1, 4096)) + [0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = Mat.permutation(ctx, images)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert m.nz[1] == (0,) and m.vals[1] == (ctx.one,)
    assert m.entry(1, 0) == ctx.one and m.entry(1, 1) == ctx.zero
    assert retained < 2 * 2 ** 20


def _assert_canonical(mats):
    for m in mats:
        assert sparse_rows_defect(m) is None
        for i, row in enumerate(m.entries):
            assert [m.entry(i, j) for j in range(m.cols)] == list(row)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(["monomial", "sparse", "dense", "unitary"]),
       st.randoms())
def test_matrix_builders_store_canonical_rows(field, n, c, kind, rnd):
    """Every constructor and kernel of afzp.matrix, on every oracle_matrix
    kind, stores strictly ascending columns and nonzero values only, and
    from_rows of its dense entries gives it back."""
    ctx = ctx_for(*field)
    p = ctx.p
    a = oracle_matrix(ctx, rnd, n, n, kind)
    b = oracle_matrix(ctx, rnd, n, c, "dense" if kind == "unitary" else kind)
    s = oracle_scalar(ctx, rnd)
    images = list(range(n))
    rnd.shuffle(images)
    exps = sorted(rnd.randrange(p) for _ in range(n))
    L1 = Mat.diag(ctx, [ctx.zeta_p(e) for e in exps])
    Q = Mat.permutation(ctx, images)
    L2 = Q * L1 * Q.dagger()
    _assert_canonical([
        a, b, a * b, b.dagger(), a + a, a + mat_neg(a),
        a + corrupt_entry(a, rnd), b * s, b * 0, mat_power(a, 3),
        Mat.zero(ctx, n, c), Mat.identity(ctx, n),
        Mat.diag(ctx, [rnd.choice([ctx.zero, s]) for _ in range(n)]),
        Q, Mat.from_rows(ctx, b.entries),
        Mat.from_dicts(ctx, c, [{j: rnd.choice([ctx.zero, s])
                                 for j in range(c) if rnd.random() < 0.5}
                                for _ in range(n)]),
        blockdiag(ctx, [a, Mat.identity(ctx, 1), a], 2 * n + 3),
        unitary_conjugator(L1, L2, p), *spectral(L2, p)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_engine_builders_store_canonical_rows(p):
    """So do the matrices that lift packs (fixed and cycle targets),
    equiv_unitary places slot by slot (W and its witness), decompose,
    apply_action (root_sum), identify, unidentify, identify_matrix,
    root_sum and the loader build."""
    ctx = ctx_for(p)
    rng = random.Random(p)
    src = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 1)])
    tgt = mixed_form(ctx, [("fixed", sorted([0, 1] + list(range(p)))),
                           ("cycle", p + 2)])
    mats = []
    for kp in ksearch(invariant_of(src), invariant_of(tgt), 3)[:3]:
        h = lift(kp, src, tgt)
        h2 = conjugate_hom(fixed_point_unitary(tgt, rng), h)
        W, wit = equiv_unitary(h, h2)
        mats += W + [arr.conj for arr in h.arrangements + h2.arrangements]
        for e in wit.entries:
            for x in (e.L, e.N, e.Z):
                mats += x if isinstance(x, list) else [x] if x else []
        mats += [arr.conj for arr in loads(dumps(h2)).arrangements]
    v = tgt.pieces[0].v
    u = Mat.permutation(ctx, list(range(v.rows))[::-1]) * \
        Mat.diag(ctx, [ctx.root(k) for k in range(v.rows)])
    c = decompose(FdSystem(ctx, p, [v.rows], (0,), [u * v * u.dagger()]))
    mats += c.iso.conjugators + [c.pieces[0].v]
    x = rand_tuple(tgt, rng)
    mats += tgt.apply_action(x)
    mats.append(root_sum(ctx, v.rows, x[0], [1] * v.rows, [2] * v.rows))
    for form in (src, tgt):
        cp = crossed_product(form)
        ce = CrossedElement([rand_tuple(form, rng) for _ in range(p)])
        ident = cp.identify(ce)
        back = cp.unidentify(ident)
        assert back == ce
        mats += ident + [m for coeff in back.coeffs for m in coeff]
    mats.append(crossed_product(src).identify_matrix())
    _assert_canonical(mats)
