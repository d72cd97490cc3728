"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A scalar is (num[0] + num[1] z + ... + num[d-1] z^(d-1)) / den in the
power basis reduced modulo the N-th cyclotomic polynomial Phi_N, with d
integer numerators over one positive integer denominator in lowest
terms, gcd(den, *num) == 1: the layout of Antic's nf_elem and FLINT's
fmpq_poly. Every value has exactly one such form, so equality and
hashing compare (num, den). Phi_N is monic, so z^e reduces to an integer
row, read off Phi_N's own coefficients (FieldContext.x_power), and
products need integer arithmetic and one gcd only. A Scalar never
changes, so it keeps its nonzero terms (j, num[j]) once they are first
read (Scalar.terms): products, conjugates and sum_rows, the kernel of
matrix products, convolve and walk those terms, not all d coefficients,
and fold mod Phi_N only when a term reached past z^(d-1). sum_rows adds
a row's products unreduced and pays that fold and gcd once per entry.
Each FieldContext shares its N-th roots of unity (FieldContext.root),
and a shared root is marked with its exponent k; the product of two
marked roots is the shared root of the summed exponents and the
conjugate of one the root of -k, with no convolution, fold or gcd.
Field elements are built from ints, Fractions and Scalars only; no
floating point is used anywhere.
"""

import math
from operator import add, sub

from ._rat import RAT
from .errors import ContextMismatch, DivisionByZero, TwistRootOutsideField

__all__ = [
    "FieldContext", "Scalar", "cyclotomic_poly", "sum_rows",
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


def cyclotomic_poly(n):
    """Integer coefficient list (ascending) of the n-th cyclotomic
    polynomial, for n whose radical r is a prime q or 2q, as every field
    order p, p^2 and 4p^2 is: Phi_n(x) = Phi_r(x^(n/r)), where
    Phi_q = 1 + x + ... + x^(q-1) and Phi_2q(x) = Phi_q(-x)."""
    primes, m = [], n
    for d in range(2, n + 1):
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
    q = primes[-1] if primes else 0
    if primes not in ([q], [2, q]):
        raise ValueError("the radical of %d is neither a prime q nor 2q"
                         % (n,))
    step, sign = n // math.prod(primes), -1 if len(primes) == 2 else 1
    poly = [0] * ((q - 1) * step + 1)
    for i in range(q):
        poly[i * step] = sign ** i
    return poly


class FieldContext:
    """Field data for Q(zeta_N) tied to a prime group order p.

    N must be one of p, p^2 or 4p^2 (default 4p^2: large enough for the
    p-th and p^2-th roots used in canonical forms, plus sqrt(p) for the
    Fourier-type conjugators).
    """

    __slots__ = ("p", "order", "degree", "_low", "_half", "_fold", "_conj",
                 "_zeros", "zero", "one", "p_roots", "p_root_exponents",
                 "_gauss", "_roots")

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
        self.degree = d = len(phi) - 1
        assert phi[d] == 1
        # Phi_N = x^d + low: the nonzero (j, c) of low, j ascending
        self._low = [(j, c) for j, c in enumerate(phi[:d]) if c]
        # x^(N/2) = -1 when Phi_N has a -1 coefficient (radical 2q)
        self._half = order // 2 if -1 in phi else order
        # _fold[e - d]: the nonzero (j, c) of x^e for e in [d, 2d-2];
        # _conj[j]: those of conj(x^j) = x^(N-j)
        self._fold = [self.x_power(e) for e in range(d, 2 * d - 1)]
        self._conj = [self.x_power(-j) for j in range(d)]
        self._zeros = (0,) * d
        self._roots = {}
        self.zero = _scalar(self, self._zeros, 1)
        self.one = self.root(0)
        # p_roots[k] = zeta_p^k, and p_root_exponents[zeta_p^k] = k
        self.p_roots = tuple(self.root(order // p * k) for k in range(p))
        self.p_root_exponents = {r: k for k, r in enumerate(self.p_roots)}
        self._gauss = None

    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and other.p == self.p and other.order == self.order)

    def __hash__(self):
        return hash((self.p, self.order))

    def __repr__(self):
        return "FieldContext(p=%d, order=%d)" % (self.p, self.order)

    def scalar(self, value):
        """Coerce an int, Fraction or Scalar into this field; TypeError
        for anything else."""
        if isinstance(value, Scalar):
            if value.ctx != self:
                raise ContextMismatch("scalar from %r used in %r" % (value.ctx, self))
            return value
        q = _rational(value)
        return _scalar(self, (q.numerator,) + self._zeros[1:], q.denominator)

    def x_power(self, e):
        """The nonzero (j, c) of x^e mod Phi_N, j ascending, for any
        integer e. Phi_N(x) = Phi_r(x^s) (see cyclotomic_poly) puts low
        below x^(d - s), so for d <= e < d + s, x^e = -x^(e - d) low
        needs no further fold. Every other e reaches [0, d + s) by
        x^N = 1 and, when Phi_N has a -1 coefficient, x^(N/2) = -1."""
        e %= self.order
        sign = 1
        if e >= self._half:
            e, sign = e - self._half, -1
        shift = e - self.degree
        if shift < 0:
            return [(e, sign)]
        return [(j + shift, -sign * c) for j, c in self._low]

    def root(self, k):
        """zeta_N^k, k taken modulo N. Every call with the same k mod N
        returns one shared Scalar, built on first use and kept, so the
        table holds at most N roots; that Scalar, and only it, is marked
        with its exponent k (Scalar._exponent), which products and
        conjugates of two marked roots read instead of the terms."""
        k %= self.order
        r = self._roots.get(k)
        if r is None:
            num = [0] * self.degree
            for j, c in self.x_power(k):
                num[j] = c
            r = self._roots[k] = _scalar(self, tuple(num), 1)
            r._exponent = k
        return r

    def zeta_p(self, k=1):
        """Primitive p-th root of unity to the k-th power."""
        return self.p_roots[k % self.p]

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


def _rational(value):
    """An int or Fraction as a RAT. Anything else, a float or a string
    among them, is no exact field element: TypeError."""
    if isinstance(value, (int, RAT)):
        return RAT(value)
    raise TypeError("a field element is an int, a Fraction or a Scalar, "
                    "not %r" % (value,))


def _scalar(ctx, num, den):
    """The Scalar num/den; num is a tuple of d ints, den > 0 and
    gcd(den, *num) == 1."""
    s = object.__new__(Scalar)
    s.ctx = ctx
    s.num = num
    s.den = den
    s._nonzero = num != ctx._zeros
    s._terms = None
    s._exponent = None
    return s


def _reduced(ctx, num, den):
    """The Scalar num/den for any den > 0, brought to lowest terms (by
    no gcd when den is 1)."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    return _scalar(ctx, num, den)


class Scalar:
    """An element of Q(zeta_N); immutable, exact.

    Scalar(ctx, coeffs) builds sum_j coeffs[j] z^j from d rationals
    (ints or Fractions; TypeError for anything else); `num` and `den`
    hold the lowest-terms form. _exponent is k when this is the shared
    root zeta_N^k of FieldContext.root, else None, also for a Scalar
    that merely equals a root."""

    __slots__ = ("ctx", "num", "den", "_nonzero", "_terms", "_exponent")

    def __init__(self, ctx, coeffs):
        coeffs = [_rational(c) for c in coeffs]
        if len(coeffs) != ctx.degree:
            raise ContextMismatch("coefficient vector has wrong length")
        # over the lcm of reduced denominators the vector is in lowest terms
        den = math.lcm(*[c.denominator for c in coeffs])
        self.ctx = ctx
        self.num = tuple([c.numerator * (den // c.denominator)
                          for c in coeffs])
        self.den = den
        self._nonzero = self.num != ctx._zeros
        self._terms = None
        self._exponent = None

    @property
    def terms(self):
        """The nonzero (j, num[j]), j ascending, as a tuple: built on the
        first read and kept. Empty for zero; a rational's only term is
        (0, num[0])."""
        t = self._terms
        if t is None:
            t = self._terms = tuple([(j, x) for j, x in enumerate(self.num)
                                     if x])
        return t

    @property
    def coeffs(self):
        """The d rational power-basis coefficients."""
        den = self.den
        return tuple(RAT(x, den) for x in self.num)

    def is_zero(self):
        return not self._nonzero

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch(
                    "mixing %r and %r" % (self.ctx, other.ctx))
            return other
        if isinstance(other, int) or type(other) is RAT:
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
        return _combine(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._nonzero:
            return self
        if not self._nonzero:
            return -other
        return _combine(self, other, sub)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return _scalar(self.ctx, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.ctx
        ka = self._exponent
        if ka is not None:
            kb = other._exponent
            if kb is not None:
                return ctx.root(ka + kb)
        if not self._nonzero or not other._nonzero:
            return ctx.zero
        ta, tb = self.terms, other.terms
        den = self.den * other.den
        # rational factors (one term, at z^0) scale coefficientwise, no
        # convolution needed
        if ta[-1][0] == 0:
            x = ta[0][1]
            if x == 1 and self.den == 1:
                return other
            out = [x * y for y in other.num]
        elif tb[-1][0] == 0:
            y = tb[0][1]
            if y == 1 and other.den == 1:
                return self
            out = [y * x for x in self.num]
        else:
            d = ctx.degree
            raw = [0] * (2 * d - 1)
            for i, x in ta:
                for j, y in tb:
                    raw[i + j] += x * y
            out = raw[:d]
            if ta[-1][0] + tb[-1][0] >= d:
                _fold_high(ctx, raw, out)
        return _reduced(ctx, tuple(out), den)

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
        if isinstance(other, int) or type(other) is RAT:
            other = self.ctx.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self):
        """A rational hashes as its int or Fraction value, which it
        equals; any other value by its field order and lowest terms."""
        t = self.terms
        if not t or t[-1][0] == 0:
            x = self.num[0]
            return hash(x if self.den == 1 else RAT(x, self.den))
        return hash((self.ctx.order, self.num, self.den))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append("z^%d" % j)
            else:
                terms.append("%s*z^%d" % (c, j))
        return " + ".join(terms) if terms else "0"

    def conj(self):
        """Complex conjugation: zeta_N -> zeta_N^(N-1). It maps the
        numerators by an integer matrix that is its own inverse, so the
        result stays in lowest terms over the same denominator. A marked
        root zeta_N^k goes to the shared root zeta_N^(-k)."""
        if self._exponent is not None:
            return self.ctx.root(-self._exponent)
        t = self.terms
        if not t or t[-1][0] == 0:
            return self          # rational, hence real
        ctx = self.ctx
        out = [0] * ctx.degree
        for j, x in t:
            for k, r in ctx._conj[j]:
                out[k] += x * r
        return _scalar(ctx, tuple(out), self.den)

    def inv(self):
        """Field inverse. A rational inverts directly. Otherwise the
        product G of num's other Galois conjugates (zeta_N -> zeta_N^k,
        1 < k < N, gcd(k, N) = 1) has num * G = Norm(num), a positive
        integer because Q(zeta_N) is a CM field for N >= 3, so
        (num/den)^-1 = den * G / Norm(num)."""
        if not self._nonzero:
            raise DivisionByZero("inverse of zero")
        ctx = self.ctx
        t = self.terms
        if t[-1][0] == 0:
            return ctx.scalar(RAT(self.den, t[0][1]))
        N = ctx.order
        g = ctx.one
        for k in range(2, N):
            if math.gcd(k, N) == 1:
                out = [0] * ctx.degree
                for j, x in t:
                    for i, r in ctx.x_power(j * k):
                        out[i] += x * r
                g = g * _scalar(ctx, tuple(out), 1)
        norm = (_scalar(ctx, self.num, 1) * g).num[0]
        return _reduced(ctx, tuple([self.den * x for x in g.num]), norm)

    def rational_part(self):
        """The rational number this scalar equals, or None."""
        if any(self.num[1:]):
            return None
        return RAT(self.num[0], self.den)


def _combine(a, b, op):
    """a op b for op in (add, sub), both nonzero: the numerators over
    a common denominator, then lowest terms."""
    da, db = a.den, b.den
    if da == db:
        return _reduced(a.ctx, tuple(map(op, a.num, b.num)), da)
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    return _reduced(a.ctx, tuple([op(x * sa, y * sb)
                                  for x, y in zip(a.num, b.num)]), da * sa)


def _fold_high(ctx, raw, out):
    """Add the raw numerators at z^d .. z^(2d-2), reduced mod Phi_N,
    into out, the numerators below z^d."""
    for c, row in zip(raw[ctx.degree:], ctx._fold):
        if c:
            for j, r in row:
                out[j] += c * r


def sum_rows(ctx, weights, rows):
    """sum_k weights[k] * rows[k] for nonzero Scalars weights[k] and
    sparse rows (cols, vals) of nonzero Scalars, as the (cols, vals) of
    its nonzero entries, columns ascending.

    Each column's terms are summed on the raw numerators: the unfolded
    convolutions (length 2d - 1) of the factors' nonzero terms go into
    one integer list over a running common denominator, rescaled only
    when a term's denominator does not divide it. The column is folded
    mod Phi_N (when a term reached past z^(d-1)) and brought to lowest
    terms once at the end, and dropped if it cancelled; so it costs one
    fold and one gcd, not one per term and one per partial sum."""
    d = ctx.degree
    width = 2 * d - 1
    acc = {}                   # column -> [raw numerators, denominator]
    for a, (cols, vals) in zip(weights, rows):
        ta = a.terms
        a_den = a.den
        for j, b in zip(cols, vals):
            t = a_den * b.den
            got = acc.get(j)
            if got is None:
                raw = [0] * width
                acc[j] = [raw, t]
                s = 1
            else:
                raw, den = got
                if den == t:
                    s = 1
                else:
                    if den % t:
                        up = t // math.gcd(den, t)
                        raw[:] = [c * up for c in raw]
                        got[1] = den = den * up
                    s = den // t
            # b != 0, so once kept its terms are a nonempty tuple: the
            # slot is read directly, the property only on the first read
            tb = b._terms or b.terms
            for i, x in ta:
                x *= s
                for k, y in tb:
                    raw[i + k] += x * y
    out_cols, out_vals = [], []
    for j in sorted(acc):
        raw, den = acc[j]
        out = raw[:d]
        if any(raw[d:]):
            _fold_high(ctx, raw, out)
        if any(out):
            out_cols.append(j)
            out_vals.append(_reduced(ctx, tuple(out), den))
    return tuple(out_cols), tuple(out_vals)


def root_exponent(a):
    """Exponent k in [0, N) with a == zeta_N^k, or None. x^k is +-x^e,
    or +-x^(e - d) times Phi_N's low terms, whose lowest is 1 (see
    FieldContext.x_power), so a's lowest power j leaves four k."""
    ctx = a.ctx
    terms = list(a.terms)
    if a.den != 1 or not terms:
        return None
    j, d, h = terms[0][0], ctx.degree, ctx._half
    for k in (j, j + h, j + d, j + d + h):
        k %= ctx.order
        if ctx.x_power(k) == terms:
            return k
    return None

