"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Scalars are represented in the power basis 1, z, ..., z^(d-1) reduced
modulo the N-th cyclotomic polynomial, with arbitrary-precision rational
coefficients. Equality is coefficient-wise; no floating point enters any
decision path. approx() gives a floating embedding for reporting only.
"""

import math

from ._rat import RAT, R0, R1, rat_from_str, rat_to_str
from .errors import ContextMismatch, DivisionByZero, TwistRootOutsideField

__all__ = [
    "FieldContext", "Scalar", "make_root", "root_order", "approx",
    "cyclotomic_poly",
]


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def cyclotomic_poly(n):
    """Integer coefficient list (ascending) of the n-th cyclotomic
    polynomial, computed by dividing x^n - 1 by all lower Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d == n:
            continue
        phi_d = cyclotomic_poly.cache.get(d)
        if phi_d is None:
            phi_d = cyclotomic_poly(d)
        poly = _poly_divexact(poly, phi_d)
    cyclotomic_poly.cache[n] = poly
    return poly


cyclotomic_poly.cache = {}


def _poly_divexact(num, den):
    # exact division of integer polynomials, ascending coefficients
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, den[dd])
        assert r == 0, "non-exact cyclotomic division"
        out[i - dd] = q
        for j, cj in enumerate(den):
            num[i - dd + j] -= q * cj
    assert all(c == 0 for c in num), "non-exact cyclotomic division"
    return out


_SUPPORTED_SHAPES = ("p", "p^2", "4p^2")


class FieldContext:
    """Field data for Q(zeta_N) tied to a prime group order p.

    N must be one of p, p^2 or 4p^2 (default 4p^2: large enough for the
    p-th and p^2-th roots used in canonical forms, plus sqrt(p) for the
    Fourier-type conjugators).
    """

    __slots__ = ("p", "order", "degree", "_xpow", "_root_cache",
                 "_zcoeffs", "zero", "one", "_gauss")

    def __init__(self, p, order=None):
        if not _is_prime(p):
            raise ValueError("group order %r is not prime" % (p,))
        if order is None:
            order = 4 * p * p
        if order not in (p, p * p, 4 * p * p):
            raise ValueError(
                "unsupported field order %d for p=%d; expected one of %s"
                % (order, p, [p, p * p, 4 * p * p]))
        self.p = p
        self.order = order
        phi = cyclotomic_poly(order)
        self.degree = len(phi) - 1
        d = self.degree
        assert phi[d] == 1
        # xpow[e] = coefficients of x^e reduced mod Phi_N, e in [0, 2d-2];
        # built by shifting and folding the leading term (Phi is monic)
        neg_phi = tuple(RAT(-c) for c in phi[:d])
        xpow = []
        cur = [R1] + [R0] * (d - 1)
        xpow.append(tuple(cur))
        for _ in range(max(2 * d - 2, order - 1)):
            top = cur[d - 1]
            cur = [R0] + cur[:d - 1]
            if top != 0:
                for j in range(d):
                    if neg_phi[j] != 0:
                        cur[j] += top * neg_phi[j]
            xpow.append(tuple(cur))
        self._xpow = xpow
        self._root_cache = {}
        self._zcoeffs = tuple([R0] * d)
        self.zero = Scalar(self, self._zcoeffs)
        self.one = Scalar(self, tuple([R1] + [R0] * (d - 1)))
        self._gauss = None

    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and other.p == self.p and other.order == self.order)

    def __hash__(self):
        return hash((self.p, self.order))

    def __repr__(self):
        return "FieldContext(p=%d, order=%d)" % (self.p, self.order)

    def scalar(self, value):
        """Coerce an int, rational or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.ctx != self:
                raise ContextMismatch("scalar from %r used in %r" % (value.ctx, self))
            return value
        q = RAT(value)
        return Scalar(self, tuple([q] + [R0] * (self.degree - 1)))

    def root(self, k):
        """zeta_N^k, k taken modulo N."""
        k %= self.order
        got = self._root_cache.get(k)
        if got is None:
            got = Scalar(self, self._xpow[k])
            self._root_cache[k] = got
        return got

    def zeta_p(self, k=1):
        """Primitive p-th root of unity to the k-th power."""
        return self.root((self.order // self.p) * k)

    def sqrt_group_order(self):
        """An element g with conj(g) * g = p (quadratic Gauss sum).

        For odd p this lives in Q(zeta_p); for p = 2 it needs zeta_8,
        i.e. field order 16. Raises if the configured field is too small.
        """
        if self._gauss is not None:
            return self._gauss
        p = self.p
        if p == 2:
            if self.order % 8 != 0:
                raise TwistRootOutsideField(16)
            g = self.root(self.order // 8) + self.root(-self.order // 8)
        else:
            g = self.zero
            for t in range(1, p):
                ls = pow(t, (p - 1) // 2, p)
                sign = 1 if ls == 1 else -1
                g = g + self.scalar(sign) * self.zeta_p(t)
        assert g.conj() * g == self.scalar(p)
        self._gauss = g
        return g

    def _reduce(self, dense):
        """Reduce raw coefficients with exponents up to 2d-2."""
        d = self.degree
        out = list(dense[:d]) + [R0] * (d - len(dense[:d]))
        for e in range(d, len(dense)):
            c = dense[e]
            if c == 0:
                continue
            row = self._xpow[e]
            for j in range(d):
                rj = row[j]
                if rj != 0:
                    out[j] += c * rj
        return tuple(out)


class Scalar:
    """An element of Q(zeta_N); immutable, exact."""

    __slots__ = ("ctx", "coeffs", "_nonzero")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs
        self._nonzero = coeffs != ctx._zcoeffs

    def is_zero(self):
        return not self._nonzero

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx != self.ctx:
                raise ContextMismatch(
                    "mixing %r and %r" % (self.ctx, other.ctx))
            return other
        if isinstance(other, int) or type(other) is type(R0):
            return self.ctx.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._nonzero:
            return other
        if not other._nonzero:
            return self
        return Scalar(self.ctx, tuple(a + b for a, b in
                                      zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.ctx, tuple(a - b for a, b in
                                      zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return Scalar(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._nonzero or not other._nonzero:
            return self.ctx.zero
        d = self.ctx.degree
        a, b = self.coeffs, other.coeffs
        # rational factors scale coefficientwise, no convolution needed
        if not any(a[1:]):
            q = a[0]
            if q == 1:
                return other
            return Scalar(self.ctx, tuple(q * x for x in b))
        if not any(b[1:]):
            q = b[0]
            if q == 1:
                return self
            return Scalar(self.ctx, tuple(q * x for x in a))
        raw = [R0] * (2 * d - 1)
        nz_b = [j for j in range(d) if b[j]]
        for i in range(d):
            ai = a[i]
            if ai == 0:
                continue
            for j in nz_b:
                raw[i + j] += ai * b[j]
        return Scalar(self.ctx, self.ctx._reduce(raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int,)) or type(other) is type(R0):
            other = self.ctx.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.order, self.coeffs))

    def __repr__(self):
        d = self.ctx.degree
        terms = []
        for j in range(d):
            c = self.coeffs[j]
            if c == 0:
                continue
            if j == 0:
                terms.append(rat_to_str(c))
            elif c == 1:
                terms.append("z^%d" % j)
            else:
                terms.append("%s*z^%d" % (rat_to_str(c), j))
        return " + ".join(terms) if terms else "0"

    def conj(self):
        """Complex conjugation: zeta_N -> zeta_N^(N-1)."""
        if not self._nonzero:
            return self
        ctx = self.ctx
        if not any(self.coeffs[1:]):
            return self          # rational, hence real
        N = ctx.order
        d = ctx.degree
        out = [R0] * d
        for j in range(d):
            c = self.coeffs[j]
            if c == 0:
                continue
            row = ctx.root((N - j) % N).coeffs
            for k in range(d):
                rk = row[k]
                if rk != 0:
                    out[k] += c * rk
        return Scalar(ctx, tuple(out))

    def inv(self):
        """Field inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self._nonzero:
            raise DivisionByZero("inverse of zero")
        d = self.ctx.degree
        phi = [RAT(c) for c in cyclotomic_poly(self.ctx.order)]
        a = list(self.coeffs)
        inv_poly = _poly_ext_inverse(a, phi)
        return Scalar(self.ctx, self.ctx._reduce(inv_poly))

    def rational_part(self):
        """The rational number this scalar equals, or None."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def to_json(self):
        return {"order": self.ctx.order,
                "coeffs": [rat_to_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj, ctx, memo=None):
        """Decode a scalar object. `memo`, a dict the caller owns for
        this ctx, maps each coefficient-string vector already decoded to
        its Scalar, so every repeat returns the same object."""
        if obj.get("order") != ctx.order:
            raise ContextMismatch(
                "scalar of order %r loaded into field of order %d"
                % (obj.get("order"), ctx.order))
        key = tuple(obj["coeffs"])
        if memo is not None and key in memo:
            return memo[key]
        coeffs = tuple(rat_from_str(c) for c in key)
        if len(coeffs) != ctx.degree:
            raise ContextMismatch("coefficient vector has wrong length")
        got = Scalar(ctx, coeffs)
        if memo is not None:
            memo[key] = got
        return got


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    q = [R0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        f = a[i] / b[db]
        q[i - db] = f
        for j in range(db + 1):
            a[i - db + j] -= f * b[j]
    return _poly_trim(q), _poly_trim(a)


def _poly_ext_inverse(a, mod):
    """Inverse of polynomial a modulo mod over the rationals."""
    # extended Euclid: r0 = mod, r1 = a
    r0, r1 = list(mod), _poly_trim(list(a))
    s0, s1 = [], [R1]  # coefficients applying to a
    while r1:
        q, r = _poly_divmod(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        r0, r1 = r1, r
        s0, s1 = s1, s
    # r0 = gcd (a nonzero constant, since Phi_N is irreducible)
    assert len(r0) == 1, "gcd with cyclotomic modulus not constant"
    c = r0[0]
    return [x / c for x in s0]


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [R0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [R0] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def make_root(ctx, k):
    """zeta_N^k in reduced form. make_root(ctx, 0) is the unit."""
    return ctx.root(k)


def root_order(a):
    """Least m <= N with a^m == 1, or None if a is not an N-th root of
    unity. Only divisors of N need testing."""
    ctx = a.ctx
    for m in _divisors(ctx.order):
        if a ** m == ctx.one:
            return m
    return None


def root_exponent(a):
    """Exponent k in [0, N) with a == zeta_N^k, or None."""
    ctx = a.ctx
    if root_order(a) is None:
        return None
    for k in range(ctx.order):
        if a == ctx.root(k):
            return k
    return None


def approx(a, digits=12):
    """Floating embedding zeta_N -> exp(2*pi*i/N), for reporting only.

    Returns a (real, imag) pair rounded to the requested number of
    decimal digits.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    N = a.ctx.order
    re = 0.0
    im = 0.0
    for j, c in enumerate(a.coeffs):
        if c == 0:
            continue
        f = int(c.numerator) / int(c.denominator)
        re += f * math.cos(2 * math.pi * j / N)
        im += f * math.sin(2 * math.pi * j / N)
    return (round(re, digits), round(im, digits))
