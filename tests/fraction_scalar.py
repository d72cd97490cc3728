"""Reference Q(zeta_N) arithmetic with one Fraction per coefficient.

This is the scalar layer afzp had before it moved to integer numerators
over one denominator (afzp.cyclo), kept as the oracle the fast layer is
tested against: the same power basis modulo Phi_N, the same operations,
the same format-1 JSON rendering, and the same error classes.
"""

from fractions import Fraction

from afzp.errors import DivisionByZero

from conftest import cyclotomic_poly_by_division

R0 = Fraction(0)
R1 = Fraction(1)


def _rat_to_str(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class FracField:
    """Q(zeta_N) with x^e reduced mod Phi_N as Fraction rows."""

    def __init__(self, p, order):
        self.order = order
        phi = cyclotomic_poly_by_division(order)
        self.degree = d = len(phi) - 1
        neg_phi = [Fraction(-c) for c in phi[:d]]
        cur = [R1] + [R0] * (d - 1)
        xpow = [tuple(cur)]
        for _ in range(max(2 * d - 2, order - 1)):
            top = cur[d - 1]
            cur = [R0] + cur[:d - 1]
            if top != 0:
                for j in range(d):
                    cur[j] += top * neg_phi[j]
            xpow.append(tuple(cur))
        self._xpow = xpow
        self._zcoeffs = tuple([R0] * d)
        self.zero = FracScalar(self, self._zcoeffs)
        self.one = FracScalar(self, xpow[0])

    def root(self, k):
        return FracScalar(self, self._xpow[k % self.order])

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
                if row[j] != 0:
                    out[j] += c * row[j]
        return tuple(out)


class FracScalar:
    """An element of Q(zeta_N) as d Fraction coefficients."""

    __slots__ = ("ctx", "coeffs", "_nonzero")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs
        self._nonzero = coeffs != ctx._zcoeffs

    def is_zero(self):
        return not self._nonzero

    def __add__(self, other):
        return FracScalar(self.ctx, tuple(a + b for a, b in
                                          zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return FracScalar(self.ctx, tuple(a - b for a, b in
                                          zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FracScalar(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        d = self.ctx.degree
        a, b = self.coeffs, other.coeffs
        raw = [R0] * (2 * d - 1)
        nz_b = [j for j in range(d) if b[j]]
        for i in range(d):
            if a[i]:
                for j in nz_b:
                    raw[i + j] += a[i] * b[j]
        return FracScalar(self.ctx, self.ctx._reduce(raw))

    def __truediv__(self, other):
        return self * other.inv()

    def __eq__(self, other):
        return (self.ctx.order == other.ctx.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.order, self.coeffs))

    def conj(self):
        """zeta_N -> zeta_N^(N-1)."""
        ctx = self.ctx
        N = ctx.order
        out = [R0] * ctx.degree
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = ctx.root(N - j).coeffs
            for k, rk in enumerate(row):
                out[k] += c * rk
        return FracScalar(ctx, tuple(out))

    def inv(self):
        """Extended Euclid mod Phi_N over the rationals."""
        if not self._nonzero:
            raise DivisionByZero("inverse of zero")
        phi = [Fraction(c)
               for c in cyclotomic_poly_by_division(self.ctx.order)]
        inv_poly = _poly_ext_inverse(list(self.coeffs), phi)
        return FracScalar(self.ctx, self.ctx._reduce(inv_poly))

    def rational_part(self):
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def to_json(self):
        return {"order": self.ctx.order,
                "coeffs": [_rat_to_str(c) for c in self.coeffs]}


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


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [R0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [R0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _poly_ext_inverse(a, mod):
    r0, r1 = list(mod), _poly_trim(list(a))
    s0, s1 = [], [R1]
    while r1:
        q, r = _poly_divmod(r0, r1)
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        r0, r1 = r1, r
    assert len(r0) == 1, "gcd with cyclotomic modulus not constant"
    return [x / r0[0] for x in s0]
