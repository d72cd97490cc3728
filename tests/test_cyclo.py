import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from afzp._rat import RAT
from afzp.cyclo import FieldContext, Scalar, _scalar, root_exponent, sum_rows
from afzp.errors import (ContextMismatch, DivisionByZero, FormatError,
                         TwistRootOutsideField)
from afzp.matrix import Mat
from afzp.serialize import _scalar_text, loads

from conftest import (ORACLE_FIELDS, conj_by_coefficients, ctx_for,
                      cyclotomic_poly_by_division, mul_by_coefficients,
                      scalar_json, sum_rows_by_coefficients)
from fraction_scalar import FracField, FracScalar


def test_root_full_turn_is_one():
    ctx = ctx_for(5, 5)
    assert ctx.root(5) == ctx.one
    assert ctx.root(0) == ctx.one


def test_root_inverse_pair():
    ctx = ctx_for(3, 3)
    assert ctx.root(1) * ctx.root(2) == ctx.one


def test_gaussian_integer_norm():
    ctx = ctx_for(2, 4)
    i = ctx.root(1)
    assert (ctx.one + i) * (ctx.one - i) == ctx.scalar(2)


def test_conj_inverts_roots():
    ctx = ctx_for(3)
    for k in range(ctx.order):
        assert ctx.root(k).conj() == ctx.root(ctx.order - k)


def test_primitive_root_sum_vanishes():
    for p in (2, 3, 5):
        ctx = ctx_for(p, p)
        total = ctx.zero
        for j in range(p):
            total = total + ctx.zeta_p(j)
        assert total.is_zero()


def test_rational_inverse():
    ctx = ctx_for(2)
    assert ctx.scalar(2).inv() == ctx.scalar(RAT(1, 2))


def test_division_by_zero():
    ctx = ctx_for(2)
    with pytest.raises(DivisionByZero):
        ctx.zero.inv()


def test_context_mismatch_rejected():
    a = ctx_for(2, 4).one
    b = ctx_for(2, 16).one
    with pytest.raises(ContextMismatch):
        a + b


def test_unsupported_field_shapes_rejected():
    with pytest.raises(ValueError):
        FieldContext(4)
    with pytest.raises(ValueError):
        FieldContext(3, 12)


_PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@pytest.mark.parametrize("q", _PRIMES_BELOW_50)
def test_cyclotomic_closed_form_matches_division(q):
    """FieldContext reads Phi_N off p and N alone, as Phi_r(x^(N/r)) for
    the radical r of N. Its degree, its low terms and its half turn
    agree with Phi_N from the general division of x^N - 1 at every field
    order q, q^2 and 4q^2."""
    for n in (q, q * q, 4 * q * q):
        phi = cyclotomic_poly_by_division(n)
        d = len(phi) - 1
        ctx = FieldContext(q, n)
        assert (ctx.degree, phi[d]) == (d, 1), n
        assert ctx._low == [(j, c) for j, c in enumerate(phi[:d]) if c], n
        assert ctx._half == (n // 2 if -1 in phi else n), n


@pytest.mark.parametrize("order", ["p", "p^2", "4p^2"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_x_power_matches_the_shift_and_fold_rows(p, order):
    """x^e read off Phi_N is the Fraction reference's row, built by
    shifting x^(e-1) and folding its leading term, for every e below
    max(2d - 1, N): every row a product fold or a root reads. The terms
    are nonzero, by ascending power."""
    n = {"p": p, "p^2": p * p, "4p^2": 4 * p * p}[order]
    ctx, ref = FieldContext(p, n), FracField(p, n)
    assert len(ref._xpow) == max(2 * ctx.degree - 1, n)
    for e, want in enumerate(ref._xpow):
        terms = ctx.x_power(e)
        assert [j for j, _ in terms] == sorted({j for j, _ in terms})
        assert all(terms[k][1] for k in range(len(terms)))
        row = [0] * ctx.degree
        for j, c in terms:
            row[j] = c
        assert tuple(row) == want, e


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_root_exponent_matches_the_search_over_every_root(field):
    """root_exponent, which reads a shared root's mark and four
    candidates off an unmarked scalar's lowest power, agrees with the
    search over zeta_N^k for k < N: on every shared root, on its unmarked
    twin, and on values that are not roots of this field."""
    ctx = ctx_for(*field)
    roots = [ctx.root(k) for k in range(ctx.order)]
    twins = [_scalar(ctx, r.num, 1) for r in roots]
    others = [ctx.zero, ctx.scalar(2), ctx.scalar(RAT(1, 2)),
              ctx.scalar(-1), ctx.one + ctx.root(1), -ctx.root(1),
              ctx.root(1) * 2]
    for a in roots + twins + others:
        want = next((k for k, r in enumerate(roots) if r == a), None)
        assert root_exponent(a) == want


# -- algebraic laws ----------------------------------------------------------

def scalars(ctx):
    coeff = st.integers(-3, 3)
    return st.lists(coeff, min_size=ctx.degree, max_size=ctx.degree).map(
        lambda cs: Scalar(ctx, tuple(RAT(c, 1) for c in cs)))


CTX3 = ctx_for(3, 9)


@settings(max_examples=60, deadline=None)
@given(scalars(CTX3), scalars(CTX3), scalars(CTX3))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(scalars(CTX3))
def test_conjugation_is_involutive_ring_map(a):
    assert a.conj().conj() == a


@settings(max_examples=40, deadline=None)
@given(scalars(CTX3), scalars(CTX3))
def test_conjugation_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


def test_inverse_roundtrip_many(rng):
    ctx = ctx_for(2)
    count = 0
    while count < 100:
        coeffs = tuple(RAT(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(ctx.degree))
        a = Scalar(ctx, coeffs)
        if a.is_zero():
            continue
        assert a.inv() * a == ctx.one
        count += 1


def test_dense_inverse_at_degree_40(rng):
    # the norm-based inverse on fully dense elements of Q(zeta_100)
    ctx = ctx_for(5)
    assert ctx.degree == 40
    for _ in range(5):
        b = Scalar(ctx, [RAT(rng.choice([-1, 1]) * rng.randint(1, 6),
                             rng.randint(1, 6)) for _ in range(ctx.degree)])
        assert all(b.num)
        assert b * b.inv() == ctx.one


def test_roots_are_unimodular():
    for p in (2, 3, 5):
        ctx = ctx_for(p, p * p)
        for k in range(ctx.order):
            r = ctx.root(k)
            assert r * r.conj() == ctx.one
            assert r ** ctx.order == ctx.one


def test_reduction_idempotent():
    # re-wrapping reduced coefficients reproduces the same value
    ctx = ctx_for(3)
    z = ctx.root(ctx.degree + 5)
    again = Scalar(ctx, z.coeffs)
    assert again == z and again.coeffs == z.coeffs


def test_serialization_bit_exact(rng):
    ctx = ctx_for(2)
    for _ in range(25):
        coeffs = tuple(RAT(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(ctx.degree))
        a = Scalar(ctx, coeffs)
        if not a.is_zero():
            assert _decoded(ctx, _scalar_text(a)) == a
    assert _scalar_text(ctx.one) == "0:1"     # denominator-1 rendering


def _decoded(ctx, text):
    """The scalar whose text is text, read by serialize.loads as the
    implementing unitary of a 1x1 system document."""
    doc = {"afzp_format": 3, "kind": "system", "p": ctx.p,
           "order": ctx.order, "blocks": [1], "sigma": [0],
           "impl": [{"rows": 1, "cols": 1, "entries": [[0, 0, text]]}]}
    return loads(json.dumps(doc)).impl[0].entries[0][0]


def _ref_text(ref):
    """The text of a Fraction reference scalar: its nonzero
    coefficients as "e:a/b", in Fraction's own rendering."""
    return " ".join("%d:%s" % (e, c) for e, c in enumerate(ref.coeffs) if c)


# -- the Fraction reference ---------------------------------------------------

_FIELDS = [(p, order) for p in (2, 3, 5) for order in (p, p * p, 4 * p * p)]
# the fields of the kept-terms tests, up to degree 84
_TERM_FIELDS = [(p, order) for p in (2, 3, 5, 7)
                for order in (p, p * p, 4 * p * p)]
_REF = {key: FracField(*key) for key in _TERM_FIELDS}


@st.composite
def _vectors(draw, ctx, dense=True):
    """Rational coefficient vectors of ctx's scalars, mixed denominators
    throughout: dense; sparse (up to three random powers), one power,
    two powers, a scaled root of unity zeta_N^k (one or two terms at
    N = p^2 and 4p^2, dense for k = p - 1 at N = p), rational, zero."""
    degree = ctx.degree
    q = st.builds(RAT, st.integers(-6, 6), st.integers(1, 6))
    shape = draw(st.sampled_from(["dense"] * dense
                                 + ["sparse", "one", "two", "root",
                                    "rational", "zero"]))
    if shape == "dense":
        return draw(st.lists(q, min_size=degree, max_size=degree))
    if shape == "root":
        c = draw(q)
        return [c * x for x in ctx.root(
            draw(st.integers(0, ctx.order - 1))).coeffs]
    out = [RAT(0)] * degree
    count = min(degree, {"sparse": draw(st.integers(0, 3)), "one": 1,
                         "two": 2, "rational": 0, "zero": 0}[shape])
    for j in draw(st.lists(st.integers(0, degree - 1), min_size=count,
                           max_size=count, unique=True)):
        out[j] = draw(q.filter(bool))
    if shape == "rational":
        out[0] = draw(q)
    return out


def _agree(new, ref):
    assert isinstance(new, Scalar) and new.coeffs == ref.coeffs
    assert math.gcd(new.den, *new.num) == 1 and new.den > 0
    assert new.is_zero() == ref.is_zero()
    assert new.rational_part() == ref.rational_part()
    assert scalar_json(new) == ref.to_json()
    assert _scalar_text(new) == _ref_text(ref)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_vector_scalars_match_fraction_reference(data):
    p, order = data.draw(st.sampled_from(_FIELDS))
    ctx, ref = ctx_for(p, order), _REF[p, order]
    # the oracle's extended Euclid takes half a second on a dense inverse
    # at degree 40
    va = data.draw(_vectors(ctx))
    vb = data.draw(_vectors(ctx, dense=ctx.degree <= 20))
    a, b = Scalar(ctx, va), Scalar(ctx, vb)
    ra, rb = FracScalar(ref, tuple(va)), FracScalar(ref, tuple(vb))
    _agree(a, ra)
    _agree(a + b, ra + rb)
    _agree(a - b, ra - rb)
    _agree(-a, -ra)
    _agree(a * b, ra * rb)
    # a rational factor whose numerator is 1 is not the unit
    half = [RAT(1, 2)] + [RAT(0)] * (ctx.degree - 1)
    rhalf = FracScalar(ref, tuple(half))
    _agree(Scalar(ctx, half) * b, rhalf * rb)
    _agree(b * Scalar(ctx, half), rb * rhalf)
    _agree(a.conj(), ra.conj())
    if rb.is_zero():
        with pytest.raises(DivisionByZero):
            b.inv()
    else:
        _agree(b.inv(), rb.inv())
        _agree(a / b, ra / rb)
    assert (a == b) == (ra == rb)
    again = Scalar(ctx, a.coeffs)
    assert again == a and hash(again) == hash(a)
    if not ra.is_zero():
        _agree(_decoded(ctx, _ref_text(ra)), ra)


_CORRUPT = ["1/0", "x", "", "1/2/3", "1.5", "2/-4", " 7 ", "+1", "2/4",
            "0", "-0"]


def _reference_decode(ref, text):
    """The Fraction reference of the scalar decoder: the
    coefficients of text when it is the reference's own text of a
    nonzero scalar, else FormatError."""
    coeffs = [Fraction(0)] * ref.degree
    try:
        for term in text.split(" "):
            e, c = term.split(":")
            coeffs[int(e)] = Fraction(c)
    except (IndexError, ValueError, ZeroDivisionError):
        return FormatError
    got = FracScalar(ref, tuple(coeffs))
    return got.coeffs if text and _ref_text(got) == text else FormatError


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scalar_decoding_errors_match_fraction_reference(data):
    """Corrupted scalar texts are refused exactly when the
    Fraction reference refuses them, and the texts both accept decode to
    the same coefficients."""
    p, order = data.draw(st.sampled_from(_FIELDS))
    ctx, ref = ctx_for(p, order), _REF[p, order]
    terms = _ref_text(FracScalar(ref, tuple(data.draw(
        _vectors(ctx))))).split(" ")
    at = data.draw(st.integers(0, len(terms) - 1))
    e, _, c = terms[at].partition(":")
    change = data.draw(st.sampled_from(["coefficient", "exponent", "drop",
                                        "repeat", "reverse", "none"]))
    if change == "coefficient":
        terms[at] = "%s:%s" % (e, data.draw(st.sampled_from(_CORRUPT)))
    elif change == "exponent":
        terms[at] = "%s:%s" % (data.draw(st.sampled_from(
            [-1, ctx.degree, 2 * ctx.degree - 1, "x", "", " 0"])), c)
    elif change == "drop":
        del terms[at]
    elif change == "repeat":
        terms.insert(at, terms[at])
    elif change == "reverse":
        terms.reverse()
    text = " ".join(terms)

    def outcome():
        try:
            return _decoded(ctx, text).coeffs
        except FormatError:
            return FormatError
    assert outcome() == _reference_decode(ref, text)


# -- kept terms ---------------------------------------------------------------

def _same(new, old):
    """new is old's value in the very same lowest-terms form."""
    assert (new.num, new.den) == (old.num, old.den)


def _nonzero_scalar(ctx, data, dense=True):
    """A nonzero scalar of ctx drawn by _vectors, or zeta_N when the draw
    is zero."""
    a = Scalar(ctx, data.draw(_vectors(ctx, dense)))
    return a if a._nonzero else ctx.root(1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_products_and_conjugates_over_kept_terms_match_the_oracles(data):
    """a * b, b * a and conj, which walk kept terms, equal the bodies that
    scanned every coefficient (conftest) and the Fraction reference, for
    p up to 7 at orders p, p^2 and 4p^2: dense, sparse, one- and two-term
    values, roots, rationals and zero, over mixed denominators."""
    p, order = data.draw(st.sampled_from(_TERM_FIELDS))
    ctx, ref = ctx_for(p, order), _REF[p, order]
    # dense times dense at degree 84 is slow in Fractions
    va = data.draw(_vectors(ctx))
    vb = data.draw(_vectors(ctx, dense=ctx.degree <= 42))
    a, b = Scalar(ctx, va), Scalar(ctx, vb)
    ra, rb = FracScalar(ref, tuple(va)), FracScalar(ref, tuple(vb))
    for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra), (a, a, ra, ra)):
        got = x * y
        _same(got, mul_by_coefficients(x, y))
        _agree(got, rx * ry)
    _same(a.conj(), conj_by_coefficients(a))
    _agree(a.conj(), ra.conj())
    r = ctx.root(data.draw(st.integers(0, ctx.order - 1)))
    _same(r * a, mul_by_coefficients(r, a))
    _agree(r * a, FracScalar(ref, r.coeffs) * ra)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sum_rows_over_kept_terms_matches_the_oracles(data):
    """sum_rows equals the kernel that scanned every coefficient and the
    Fraction reference's sum of products, column by column: on weights
    and values of every _vectors shape and on roots, with mixed
    denominators, and on a last weight that cancels a whole row's
    columns, which sum_rows must drop."""
    p, order = data.draw(st.sampled_from(_TERM_FIELDS))
    ctx, ref = ctx_for(p, order), _REF[p, order]
    dense = ctx.degree <= 20
    weights, rows = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        weights.append(_nonzero_scalar(ctx, data, dense))
        cols = tuple(sorted(data.draw(st.sets(st.integers(0, 4),
                                              min_size=1, max_size=3))))
        rows.append((cols, tuple(_nonzero_scalar(ctx, data, dense)
                                 for _ in cols)))
    cancel = data.draw(st.booleans())
    if cancel:
        weights.append(-weights[0])
        rows.append(rows[0])
    got = sum_rows(ctx, weights, rows)
    want = sum_rows_by_coefficients(ctx, weights, rows)
    assert got[0] == want[0]
    for x, y in zip(got[1], want[1]):
        _same(x, y)
    total = {}
    for a, (cols, vals) in zip(weights, rows):
        for j, b in zip(cols, vals):
            term = FracScalar(ref, a.coeffs) * FracScalar(ref, b.coeffs)
            total[j] = total[j] + term if j in total else term
    keep = sorted(j for j, x in total.items() if not x.is_zero())
    assert list(got[0]) == keep
    for j, x in zip(got[0], got[1]):
        _agree(x, total[j])
    if cancel and len(weights) == 2:
        assert got == ((), ())


def _kept_terms_sources(ctx, data):
    """(name, scalar) for every way a Scalar is made."""
    dense = ctx.degree <= 20
    a, b = (_nonzero_scalar(ctx, data, dense) for _ in range(2))
    k = data.draw(st.integers(0, ctx.order - 1))
    return [("_scalar", _scalar(ctx, a.num, a.den)), ("Scalar", a),
            ("zero", Scalar(ctx, [0] * ctx.degree)),
            ("ctx.scalar", ctx.scalar(data.draw(st.builds(
                RAT, st.integers(-6, 6), st.integers(1, 6))))),
            ("ctx.root", ctx.root(k)), ("neg", -a), ("conj", a.conj()),
            ("inv", a.inv()), ("product", a * b),
            ("root product", ctx.root(k) * b),
            ("sum_rows", sum_rows(ctx, [ctx.root(k), a], [
                ((0,), (ctx.root(1),)), ((0, 1), (b, b))])[1][-1]),
            ("loader", _decoded(ctx, _scalar_text(a)))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kept_terms_are_the_nonzero_coefficients(data):
    """However a Scalar is made, its kept terms are the nonzero (j, c) of
    num, j ascending, built on the first read and kept; a fresh Scalar
    has none kept, and reading them changes neither ==, hash nor the
    scalar text. ctx.root(k) is shared, so its terms may have been read
    before; an unmarked twin of zeta_N stands for a fresh root."""
    p, order = data.draw(st.sampled_from(_FIELDS))
    ctx = ctx_for(p, order)
    fresh = [Scalar(ctx, data.draw(_vectors(ctx))),
             _scalar(ctx, ctx.root(1).num, 1), ctx.scalar(2)]
    assert all(s._terms is None for s in fresh)
    for name, s in _kept_terms_sources(ctx, data):
        twin = _scalar(ctx, s.num, s.den)
        h, text = hash(s), _scalar_text(s)
        assert s == twin and twin._terms is None, name
        t = s.terms
        assert t == tuple((j, c) for j, c in enumerate(s.num) if c), name
        assert s.terms is t and s._terms is t, name
        assert s == twin and twin == s and twin._terms is None, name
        assert hash(s) == h == hash(twin), name
        assert _scalar_text(s) == text == _scalar_text(twin), name


# -- shared, marked roots ------------------------------------------------------

def _twin(s):
    """s's value as a fresh, unmarked Scalar: the general path's operand."""
    return _scalar(s.ctx, s.num, s.den)


def _same_as_general(got, want):
    """got, from a shortcut, is want, from the general path, in form,
    text and hash."""
    assert (got.num, got.den) == (want.num, want.den)
    assert _scalar_text(got) == _scalar_text(want)
    assert hash(got) == hash(want)


def _marks_are_roots(*scalars):
    """A mark k sits only on the shared root zeta_N^k, whose terms are
    x_power(k)."""
    for s in scalars:
        k = s._exponent
        if k is not None:
            assert s.terms == tuple(s.ctx.x_power(k))
            assert s is s.ctx.root(k)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_root_shortcuts_match_the_general_path(data):
    """Products of two marked roots and conjugates of one, which go by
    exponent, equal the general path on unmarked twins, for p up to 7
    at orders p, p^2 and 4p^2; so do products of a root with a
    non-root, a rational and a value that equals a root but is unmarked
    (built from coefficients, or a sum). Only the shared roots carry a
    mark, and each mark is the root's exponent."""
    p, order = data.draw(st.sampled_from(_TERM_FIELDS))
    ctx = ctx_for(p, order)
    N = ctx.order
    ka, kb = (data.draw(st.integers(-2 * N, 2 * N)) for _ in range(2))
    a, b = ctx.root(ka), ctx.root(kb)
    assert a._exponent == ka % N and a is ctx.root(ka + N)
    got = a * b
    assert got is ctx.root(ka + kb)
    _same_as_general(got, _twin(a) * _twin(b))
    _same_as_general(a.conj(), _twin(a).conj())
    assert a.conj() is ctx.root(-ka)
    other = Scalar(ctx, data.draw(_vectors(ctx, dense=ctx.degree <= 42)))
    q = ctx.scalar(data.draw(st.builds(RAT, st.integers(-6, 6),
                                       st.integers(1, 6))))
    unmarked = [Scalar(ctx, b.coeffs), (a + b) - a, b + b - b]
    for x in [other, q] + unmarked:
        assert x._exponent is None
        _same_as_general(a * x, _twin(a) * _twin(x))
        _same_as_general(x * a, _twin(x) * _twin(a))
        _same_as_general(x.conj(), _twin(x).conj())
        _marks_are_roots(a * x, x * a, x.conj())
    for x in unmarked:
        assert x == b and hash(x) == hash(b)
    _marks_are_roots(a, b, got, a.conj(), a ** 3, -a, a + b, q, other)


def test_roots_are_built_once_and_bounded():
    """The table fills on demand, up to N shared roots; one and every
    zeta_p^k are its entries."""
    ctx = FieldContext(3, 9)
    assert ctx.one is ctx.root(0) and ctx.one._exponent == 0
    assert all(ctx.zeta_p(k) is ctx.root(9 // 3 * k) for k in range(-4, 4))
    for k in range(-20, 20):
        ctx.root(k)
    assert len(ctx._roots) == 9
    assert sorted(ctx._roots) == list(range(9))
    assert ctx.zero._exponent is None


def test_a_large_prime_field_builds_only_the_roots_asked_for():
    """At field order p the degree is p - 1, so a table of all p p-th
    roots would hold p^2 integers (32.7 MiB at p = 2003). The field
    builds only the roots asked for: FieldContext(2003, 2003) peaks
    under 4 MiB, and its table holds the roots built so far."""
    tracemalloc.start()
    try:
        ctx = FieldContext(2003, 2003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert list(ctx._roots) == [0]
    ctx.zeta_p(5)
    ctx.root(-1)
    assert sorted(ctx._roots) == [0, 5, 2002]


def test_a_field_of_order_4p2_reads_phi_off_p_and_n():
    """At the default order 4p^2 the degree is d = 2p(p - 1), and Phi_N
    has p - 1 terms, read off p and N. The field keeps no row per power
    of x for the product fold or the conjugate (tables of d rows held
    46 MiB at p = 211): FieldContext(211) peaks under 4 MiB."""
    tracemalloc.start()
    try:
        ctx = FieldContext(211)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert (ctx.degree, len(ctx._low)) == (2 * 211 * 210, 210)


@pytest.mark.parametrize("p,order", [(2, 4), (3, 9), (5, 100)])
def test_rational_scalars_hash_as_their_value(p, order):
    """A rational scalar equals its int or Fraction, so it hashes like
    it: sets and dicts that mix them find each other."""
    ctx = ctx_for(p, order)
    values = [0, 1, -1, 2, 7, RAT(1, 2), RAT(-3, 4), RAT(6, 4)]
    for q in values:
        assert ctx.scalar(q) == q and hash(ctx.scalar(q)) == hash(q)
    assert 1 in {ctx.one} and ctx.one in {1} and 0 in {ctx.zero}
    mixed = {ctx.scalar(2), 2, RAT(2), RAT(1, 2), ctx.scalar(RAT(1, 2)),
             ctx.root(1)}
    assert len(mixed) == 3
    table = {q: i for i, q in enumerate(values)}
    assert all(table[ctx.scalar(q)] == i for i, q in enumerate(values))
    table = {ctx.scalar(q): i for i, q in enumerate(values)}
    assert all(table[q] == i for i, q in enumerate(values))


@pytest.mark.parametrize("make", [
    pytest.param(lambda ctx: ctx.scalar(0.1), id="float"),
    pytest.param(lambda ctx: Mat.from_rows(ctx, [[0.5]]), id="from_rows"),
    pytest.param(lambda ctx: ctx.scalar("1/3"), id="string"),
    pytest.param(lambda ctx: ctx.scalar(float("nan")), id="nan"),
    pytest.param(lambda ctx: Scalar(ctx, [RAT(1, 2), 0.5]), id="Scalar"),
])
def test_field_elements_are_ints_fractions_or_scalars(make):
    """A float, a string or a NaN is no exact field element: TypeError,
    not a silently rounded 0.1 = 3602879701896397/2^55, a parsed string
    or a bare ValueError."""
    with pytest.raises(TypeError, match="an int, a Fraction or a Scalar"):
        make(ctx_for(3, 3))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_gauss_sum_inverse_is_its_conjugate_over_p(p):
    """conj(g) g = p for the Gauss sum g, so conj(g)/p, which lifts read
    as g^-1, is the inverse that the product of g's other Galois
    conjugates gives, at every field order that holds g."""
    for order in (p, p * p, 4 * p * p):
        if p == 2 and order % 8:
            with pytest.raises(TwistRootOutsideField):
                FieldContext(p, order).sqrt_group_order()
            continue
        g = FieldContext(p, order).sqrt_group_order()
        assert g.conj() / p == g.inv()
