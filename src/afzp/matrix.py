"""Immutable exact matrices over Q(zeta_N), each with a per-row index
of its nonzero entries.

A Mat is a row-major tuple grid of Scalar entries that cannot be
written after construction, so the nonzero index it carries stays
true; products, adjoints, the unitarity, diagonal, zero and scalar
tests and block sums read only nonzero entries through it.

The only eigen-analysis offered is character averaging of finite-order
unitaries, which stays inside the field, and unitary_conjugator built on
it, which pairs the eigenspaces of two order-p unitaries. There is no
general eigensolver and no linear solver: every identity the engine
checks is a matrix product compared against a pattern.
"""

import math

from .cyclo import Scalar
from .errors import (MultisetMismatch, NotOrderP, ShapeMismatch,
                     TwistRootOutsideField, UnitaryNotFoundInField)
from ._rat import RAT, is_integer

__all__ = ["Mat", "SpectralData", "spectral", "unitary_conjugator"]


class Mat:
    """rows x cols matrix of Scalars sharing one FieldContext; immutable.

    entries is a tuple of row tuples. support() is the per-row tuple of
    nonzero column indices in ascending order: built on first use, or
    handed over by the kernel that made the matrix. Products, adjoints,
    the is_* tests and blockdiag walk it instead of the dense grid."""

    __slots__ = ("ctx", "rows", "cols", "entries", "_nz")

    def __init__(self, ctx, rows, cols, entries, nz=None):
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or any(map(cols.__ne__, map(len, entries))):
            raise ShapeMismatch("entry grid does not match %dx%d" % (rows, cols))
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._nz = nz

    def support(self):
        """Per row, the ascending column indices of its nonzero entries."""
        nz = self._nz
        if nz is None:
            nz = self._nz = tuple([
                tuple([j for j, e in enumerate(row) if e._nonzero])
                for row in self.entries])
        return nz

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx, rows, cols=None):
        cols = rows if cols is None else cols
        return Mat(ctx, rows, cols, ((ctx.zero,) * cols,) * rows,
                   ((),) * rows)

    @staticmethod
    def identity(ctx, n):
        zero = (ctx.zero,)
        return Mat(ctx, n, n, [zero * i + (ctx.one,) + zero * (n - 1 - i)
                               for i in range(n)],
                   tuple([(i,) for i in range(n)]))

    @staticmethod
    def diag(ctx, values):
        n = len(values)
        zero = ctx.zero
        grid = [[zero] * n for _ in range(n)]
        nz = []
        for i, v in enumerate(values):
            grid[i][i] = v = ctx.scalar(v) if not isinstance(v, Scalar) else v
            nz.append((i,) if v._nonzero else ())
        return Mat(ctx, n, n, grid, tuple(nz))

    @staticmethod
    def from_rows(ctx, rows):
        ents = [[ctx.scalar(v) if not isinstance(v, Scalar) else v for v in r]
                for r in rows]
        return Mat(ctx, len(ents), len(ents[0]) if ents else 0, ents)

    @staticmethod
    def permutation(ctx, images):
        """Permutation matrix Q with Q e_j = e_images[j]."""
        n = len(images)
        grid = [[ctx.zero] * n for _ in range(n)]
        nz = [[] for _ in range(n)]
        for j, i in enumerate(images):
            grid[i][j] = ctx.one
            nz[i].append(j)
        return Mat(ctx, n, n, grid, tuple(map(tuple, nz)))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._shape_eq(other)
        return Mat(self.ctx, self.rows, self.cols,
                   [[a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._shape_eq(other)
        return Mat(self.ctx, self.rows, self.cols,
                   [[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Mat(self.ctx, self.rows, self.cols,
                   [[-a for a in row] for row in self.entries], self._nz)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self._matmul(other)
        s = other if isinstance(other, Scalar) else self.ctx.scalar(other)
        return Mat(self.ctx, self.rows, self.cols,
                   [[a * s for a in row] for row in self.entries],
                   self._nz if s._nonzero else None)

    def _matmul(self, other):
        """Row by row over the nonzero a_ik b_kj. A row with one nonzero
        a_ik is a_ik times row k of other, with its support (the field
        has no zero divisors). Otherwise a dense accumulator collects the
        columns reached, in the order first reached; the row's support is
        those columns, sorted unless all were reached, less any that
        cancelled."""
        if self.cols != other.rows:
            raise ShapeMismatch("%dx%d times %dx%d"
                                % (self.rows, self.cols,
                                   other.rows, other.cols))
        n = other.cols
        one = self.ctx.one
        zrow = (self.ctx.zero,) * n
        bent, bnz = other.entries, other.support()
        out, index = [], []
        for arow, acols in zip(self.entries, self.support()):
            if len(acols) < 2:
                if not acols:
                    out.append(zrow)
                    index.append(())
                    continue
                k = acols[0]
                aik = arow[k]
                if aik is one:
                    out.append(bent[k])
                else:
                    row = list(zrow)
                    brow = bent[k]
                    for j in bnz[k]:
                        row[j] = aik * brow[j]
                    out.append(row)
                index.append(bnz[k])
                continue
            acc = [None] * n
            touched = []
            for k in acols:
                aik = arow[k]
                brow = bent[k]
                for j in bnz[k]:
                    x = acc[j]
                    if x is None:
                        touched.append(j)
                        acc[j] = aik * brow[j]
                    else:
                        acc[j] = x + aik * brow[j]
            if len(touched) == n:
                out.append(acc)
                index.append(tuple([j for j in range(n) if acc[j]._nonzero]))
                continue
            touched.sort()
            row = list(zrow)
            nz = []
            for j in touched:
                x = row[j] = acc[j]
                if x._nonzero:
                    nz.append(j)
            out.append(row)
            index.append(tuple(nz))
        return Mat(self.ctx, self.rows, n, out, tuple(index))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row)
                         for row in self.entries)
        return "Mat[%s]" % body

    def _shape_eq(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("%dx%d vs %dx%d" % (self.rows, self.cols,
                                                    other.rows, other.cols))

    def dagger(self):
        """Conjugate transpose, by transposing the support."""
        zero = self.ctx.zero
        out = [[zero] * self.rows for _ in range(self.cols)]
        nz = [[] for _ in range(self.cols)]
        for i, (row, cols) in enumerate(zip(self.entries, self.support())):
            for j in cols:
                out[j][i] = row[j].conj()
                nz[j].append(i)
        return Mat(self.ctx, self.cols, self.rows, out, tuple(map(tuple, nz)))

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        t = self.ctx.zero
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def kron(self, other):
        ra, ca, rb, cb = self.rows, self.cols, other.rows, other.cols
        out = [[self.ctx.zero] * (ca * cb) for _ in range(ra * rb)]
        bent, bnz = other.entries, other.support()
        for i, (arow, acols) in enumerate(zip(self.entries, self.support())):
            for j in acols:
                a = arow[j]
                for k, (brow, bcols) in enumerate(zip(bent, bnz)):
                    orow = out[i * rb + k]
                    for l in bcols:
                        orow[j * cb + l] = a * brow[l]
        return Mat(self.ctx, ra * rb, ca * cb, out)

    def is_unitary(self):
        """Square with X^dagger X the identity. A caller that already
        holds X^dagger tests (X^dagger * X).is_identity() itself."""
        return self.rows == self.cols and (self.dagger() * self).is_identity()

    def is_identity(self):
        """Square with support exactly the diagonal, and ones on it."""
        one = self.ctx.one
        return self.rows == self.cols and all(
            cols == (i,) and row[i] == one for i, (row, cols)
            in enumerate(zip(self.entries, self.support())))

    def is_diagonal(self):
        return all(not cols or cols == (i,)
                   for i, cols in enumerate(self.support()))

    def is_zero(self):
        return not any(self.support())

    def is_scalar(self):
        """Returns the scalar s with self == s*I, or None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        s = self.entries[0][0]
        if not s._nonzero:
            return s if self.is_zero() else None
        if all(cols == (i,) and row[i] == s for i, (row, cols)
               in enumerate(zip(self.entries, self.support()))):
            return s
        return None

    def power(self, n):
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        result = Mat.identity(self.ctx, self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


def blockdiag(ctx, mats, total=None):
    """Direct sum of square blocks, zero-padded at the end to `total`."""
    size = sum(m.rows for m in mats)
    if total is None:
        total = size
    zero = ctx.zero
    out, index = [], []
    off = 0
    for m in mats:
        left, right = (zero,) * off, (zero,) * (total - off - m.cols)
        for row, cols in zip(m.entries, m.support()):
            out.append(left + row + right)
            index.append(tuple([off + j for j in cols]))
        off += m.rows
    out.extend([(zero,) * total] * (total - off))
    index.extend([()] * (total - off))
    return Mat(ctx, total, total, out, tuple(index))


class SpectralData:
    """Exact eigenprojections of an order-p unitary.

    projections[k] averages the characters so that
    V = sum_k zeta_p^k projections[k]; multiplicities[k] = trace."""

    def __init__(self, p, projections, multiplicities):
        self.p = p
        self.projections = projections
        self.multiplicities = multiplicities


def spectral(V, p):
    """Character-averaged spectral data of a unitary with V^p = I."""
    ctx = V.ctx
    if V.rows != V.cols:
        raise NotOrderP("matrix is not square")
    n = V.rows
    powers = [Mat.identity(ctx, n)]
    for _ in range(p - 1):
        powers.append(powers[-1] * V)
    if powers[-1] * V != Mat.identity(ctx, n) or not V.is_unitary():
        raise NotOrderP("matrix is not a unitary of order dividing %d" % p)
    inv_p = ctx.scalar(1) / ctx.scalar(p)
    projections = []
    multiplicities = []
    for k in range(p):
        acc = Mat.zero(ctx, n, n)
        for j in range(p):
            acc = acc + powers[j] * ctx.zeta_p(-k * j)
        P = acc * inv_p
        t = P.trace().rational_part()
        if t is None or not is_integer(t) or t < 0:
            raise NotOrderP("projection trace is not a nonnegative integer")
        projections.append(P)
        multiplicities.append(int(t))
    if sum(multiplicities) != n:
        raise NotOrderP("multiplicities do not sum to the dimension")
    return SpectralData(p, projections, multiplicities)


def diag_root_exponents(D, p):
    """Exponents e_i with D = diag(zeta_p^{e_i}), or None if some entry
    is not a p-th root of unity."""
    ctx = D.ctx
    roots = {ctx.zeta_p(k): k for k in range(p)}
    out = []
    for i in range(D.rows):
        e = roots.get(D.entries[i][i])
        if e is None:
            return None
        out.append(e)
    return out


def unitary_conjugator(L1, L2, p):
    """Unitary Z over the field with L1 Z = Z L2, for unitaries with
    L1^p = L2^p = I, built one eigenspace at a time.

    For each exponent d the zeta_p^d eigenspace of each L gets an
    orthogonal basis: the unit vectors of a diagonal L in increasing
    index order, else an unnormalised Gram-Schmidt over the columns of
    spectral(L, p).projections[d], which stays in the field. The i-th
    vectors v_i of L1 and u_i of L2 are paired:

        Z = sum_i s_i v_i u_i^dagger / <u_i, u_i>,
        s_i conj(s_i) = <u_i, u_i> / <v_i, v_i>.

    The class decided is the one where every such ratio is a rational
    k^2 2^a p^b / c^2 with a, b in {0, 1}: s_i is k/c times (1 + i)^a
    (which needs 4 | N) times the Gauss sum ctx.sqrt_group_order()^b; at
    p = 2 the factor 2 is the Gauss sum sqrt 2 at order 16 and 1 + i at
    order 4, and order 2 raises TwistRootOutsideField when it is needed.
    Diagonal pairs always lie in the class (every ratio is 1, and Z is
    the permutation matching equal eigenvalues in increasing index
    order); monomial ones do in every field but Q (every ratio is 1, p
    or 1/p). Outside it a field unitary may still exist after reordering
    or mixing the basis (by Landherr's theorem, hermitian forms over a
    CM field are equivalent iff they agree in rank, signatures and
    determinant modulo norms); this raises UnitaryNotFoundInField naming
    d and the ratio.
    Unequal multiplicities raise MultisetMismatch.
    """
    if not L1.rows == L1.cols == L2.rows == L2.cols:
        raise ShapeMismatch("conjugating %dx%d into %dx%d"
                            % (L2.rows, L2.cols, L1.rows, L1.cols))
    ctx = L1.ctx
    bases1, bases2 = _eigenbases(L1, p), _eigenbases(L2, p)
    counts1 = [len(b) for b in bases1]
    counts2 = [len(b) for b in bases2]
    if counts1 != counts2:
        raise MultisetMismatch(counts1, counts2)
    Z = [[ctx.zero] * L1.cols for _ in range(L1.rows)]
    one = ctx.one
    for d, (b1, b2) in enumerate(zip(bases1, bases2)):
        for (v, nv), (u, nu) in zip(b1, b2):
            s = one if nu == nv else _root_of_norm(
                ctx, (nu / nv).rational_part())
            if s is None:
                raise UnitaryNotFoundInField(
                    "no field scalar of squared norm %r pairs the "
                    "eigenvectors of eigenvalue zeta_p^%d" % (nu / nv, d))
            c = s if nu == one else s / nu
            for row, x in zip(Z, v):
                if x._nonzero:
                    cx = c * x
                    for b, y in enumerate(u):
                        if y._nonzero:
                            row[b] = row[b] + cx * y.conj()
    return Mat(ctx, L1.rows, L1.cols, Z)


def _eigenbases(L, p):
    """Per exponent d, the orthogonal basis of L's zeta_p^d eigenspace
    that unitary_conjugator pairs, as (vector, <vector, vector>)."""
    ctx = L.ctx
    n = L.rows
    bases = [[] for _ in range(p)]
    if L.is_diagonal():
        exps = diag_root_exponents(L, p)
        if exps is None:
            raise NotOrderP("diagonal entries are not p-th roots of unity")
        for i, e in enumerate(exps):
            v = [ctx.zero] * n
            v[i] = ctx.one
            bases[e].append((v, ctx.one))
        return bases
    for basis, P in zip(bases, spectral(L, p).projections):
        for j in range(n):
            w = [row[j] for row in P.entries]
            for u, nu in basis:
                c = _inner(u, w) / nu
                w = [x - c * y for x, y in zip(w, u)]
            if any(x._nonzero for x in w):
                basis.append((w, _inner(w, w)))
    return bases


def _inner(u, w):
    """<u, w> = sum_i conj(u_i) w_i."""
    t = u[0].ctx.zero
    for x, y in zip(u, w):
        if x._nonzero and y._nonzero:
            t = t + x.conj() * y
    return t


def _root_of_norm(ctx, q):
    """s with s conj(s) = q for a rational q = k^2 2^a p^b / c^2 (a, b in
    {0, 1}), from k/c, 1 + i and the Gauss sum; None for any other q, or
    when 1 + i is needed and 4 does not divide the field order. At p = 2
    the factor 2 is the Gauss sum where the field holds it (order 16),
    else 1 + i (order 4); order 2 raises TwistRootOutsideField(4)."""
    if q is None or q <= 0:
        return None
    p = ctx.p
    n = q.numerator * q.denominator     # q = n / denominator^2
    for sf in (1, 2, p, 2 * p):         # the squarefree part of n
        k = math.isqrt(n // sf)
        if k * k * sf == n:
            break
    else:
        return None
    s = ctx.scalar(RAT(k, q.denominator))
    gauss = sf % p == 0 and (p != 2 or ctx.order % 8 == 0)
    if gauss:
        s = s * ctx.sqrt_group_order()
    if sf % 2 == 0 and not (p == 2 and gauss):
        if ctx.order % 4:
            if p == 2:
                raise TwistRootOutsideField(4)
            return None
        s = s * (ctx.one + ctx.root(ctx.order // 4))
    return s
