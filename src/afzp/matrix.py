"""Immutable exact matrices over Q(zeta_N), stored as sparse rows.

Each row of a Mat is the ascending tuple of the columns where it is
nonzero and the parallel tuple of those entries; no zero is stored, so
equal matrices have equal rows. Products, adjoints, sums, block sums and
the unitarity, diagonal, zero and scalar tests cost time and memory in
the nonzeros, not in rows x cols. A product row with several nonzeros
is summed by cyclo.sum_rows on integer numerators, one fold and one gcd
per entry; a row with one nonzero scales the row it selects. from_rows
is the one dense entry point; entries is a dense view, built on each
read, for display and tests. A Mat never changes, so its adjoint is
built once per object, on first use, and kept. So is its unitarity
verdict, which comes from one of three places: it is known by
construction (identity, a permutation matrix), inherited exactly (a
product of two unitaries, the adjoint of a unitary, a block sum of
unitaries that fills its size), or computed once, as X^dagger X == I.
A loaded or hand-built matrix starts with no verdict.

The only eigen-analysis offered is character averaging of finite-order
unitaries, which stays inside the field, and what is built on it:
unitary_conjugator, which pairs the eigenspaces of two order-p
unitaries, and diagonalizer, which pairs one with its sorted diagonal's
unit vectors. There is no general eigensolver and no linear solver:
every identity the engine checks is a matrix product compared against
a pattern.
"""

import math
from bisect import bisect_left

from .cyclo import Scalar, root_exponent, sum_rows
from .errors import (MultisetMismatch, NotOrderP, ShapeMismatch,
                     TwistRootOutsideField, UnitaryNotFoundInField)
from ._rat import RAT, is_integer

__all__ = ["Mat", "spectral", "unitary_conjugator", "diagonalizer"]


class Mat:
    """rows x cols matrix of Scalars sharing one FieldContext; immutable.

    nz[i] is the tuple of ascending columns where row i is nonzero and
    vals[i] the tuple of its entries there. The constructor stores both
    as given, tuples of tuples with no zero value; the constructors,
    kernels and builders make them so. unitary is the unitarity verdict
    when it is known at construction, else None."""

    __slots__ = ("ctx", "rows", "cols", "nz", "vals", "_dagger", "_unitary")

    def __init__(self, ctx, rows, cols, nz, vals, unitary=None):
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.nz = nz
        self.vals = vals
        self._dagger = None
        self._unitary = unitary

    @property
    def entries(self):
        """The dense grid as a tuple of row tuples, built on each read."""
        zero = self.ctx.zero
        out = []
        for cols, vals in zip(self.nz, self.vals):
            row = [zero] * self.cols
            for j, v in zip(cols, vals):
                row[j] = v
            out.append(tuple(row))
        return tuple(out)

    def entry(self, i, j):
        """Entry (i, j)."""
        cols = self.nz[i]
        k = bisect_left(cols, j)
        if k < len(cols) and cols[k] == j:
            return self.vals[i][k]
        return self.ctx.zero

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx, rows, cols=None):
        cols = rows if cols is None else cols
        return Mat(ctx, rows, cols, ((),) * rows, ((),) * rows)

    @staticmethod
    def identity(ctx, n):
        return Mat(ctx, n, n, tuple([(i,) for i in range(n)]),
                   ((ctx.one,),) * n, True)

    @staticmethod
    def diag(ctx, values):
        return Mat.from_dicts(ctx, len(values), [
            {i: ctx.scalar(v)} for i, v in enumerate(values)])

    @staticmethod
    def from_rows(ctx, rows):
        """The matrix of a list of equally long dense rows of Scalars,
        ints or rationals."""
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ShapeMismatch("rows of unequal length")
        return Mat.from_dicts(ctx, cols, [
            {j: ctx.scalar(v) for j, v in enumerate(r)} for r in rows])

    @staticmethod
    def from_dicts(ctx, cols, rows):
        """The len(rows) x cols matrix whose row i holds the entries of
        the dict rows[i], column -> Scalar; zero values are dropped."""
        nz, vals = [], []
        for d in rows:
            keep = tuple(sorted([j for j, v in d.items() if v._nonzero]))
            nz.append(keep)
            vals.append(tuple(map(d.__getitem__, keep)))
        return Mat(ctx, len(rows), cols, tuple(nz), tuple(vals))

    @staticmethod
    def permutation(ctx, images):
        """Permutation matrix Q with Q e_j = e_images[j], unitary when
        every row is hit; repeated images leave the verdict open."""
        rows = [{} for _ in images]
        for j, i in enumerate(images):
            rows[i][j] = ctx.one
        q = Mat.from_dicts(ctx, len(images), rows)
        q._unitary = True if all(rows) else None
        return q

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        """Row by row; a zero matrix adds nothing."""
        self._shape_eq(other)
        if other.is_zero() or self.is_zero():
            return self if other.is_zero() else other
        rows = []
        for ca, va, cb, vb in zip(self.nz, self.vals, other.nz, other.vals):
            acc = dict(zip(ca, va))
            for j, y in zip(cb, vb):
                x = acc.get(j)
                acc[j] = y if x is None else x + y
            rows.append(acc)
        return Mat.from_dicts(self.ctx, self.cols, rows)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self._matmul(other)
        s = other if isinstance(other, Scalar) else self.ctx.scalar(other)
        if not s._nonzero:
            return Mat.zero(self.ctx, self.rows, self.cols)
        return Mat(self.ctx, self.rows, self.cols, self.nz,
                   tuple([tuple([a * s for a in row]) for row in self.vals]))

    def _matmul(self, other):
        """Row by row over the nonzero a_ik. A row with one nonzero a_ik
        is a_ik times row k of other, on its columns (the field has no
        zero divisors), through Scalar's product and its rational
        shortcuts; when a_ik is one it is row k itself. A row with
        several is cyclo.sum_rows of the rows k it selects: each column
        summed on integer numerators, folded and reduced once, and
        dropped if it cancelled. The product of two matrices known
        unitary is unitary."""
        if self.cols != other.rows:
            raise ShapeMismatch("%dx%d times %dx%d"
                                % (self.rows, self.cols,
                                   other.rows, other.cols))
        ctx = self.ctx
        one = ctx.one
        bnz, bvals = other.nz, other.vals
        nz, vals = [], []
        for acols, avals in zip(self.nz, self.vals):
            if len(acols) == 1:
                k, aik = acols[0], avals[0]
                nz.append(bnz[k])
                vals.append(bvals[k] if aik is one
                            else tuple([aik * b for b in bvals[k]]))
                continue
            cols, row = sum_rows(ctx, avals,
                                 [(bnz[k], bvals[k]) for k in acols])
            nz.append(cols)
            vals.append(row)
        return Mat(ctx, self.rows, other.cols, tuple(nz), tuple(vals),
                   True if self._unitary and other._unitary else None)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.nz == other.nz and self.vals == other.vals)

    def __repr__(self):
        body = "; ".join(", ".join(repr(self.entry(i, j))
                                   for j in range(self.cols))
                         for i in range(self.rows))
        return "Mat[%s]" % body

    def _shape_eq(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("%dx%d vs %dx%d" % (self.rows, self.cols,
                                                    other.rows, other.cols))

    def dagger(self):
        """Conjugate transpose: row i's entries move to their columns.
        Kept after the first call, with self's unitarity verdict (X is
        unitary iff X^dagger is); it holds no link back to self."""
        if self._dagger is None:
            nz = [[] for _ in range(self.cols)]
            vals = [[] for _ in range(self.cols)]
            for i, (cols, row) in enumerate(zip(self.nz, self.vals)):
                for j, v in zip(cols, row):
                    nz[j].append(i)
                    vals[j].append(v.conj())
            self._dagger = Mat(self.ctx, self.cols, self.rows,
                               tuple(map(tuple, nz)), tuple(map(tuple, vals)),
                               self._unitary)
        return self._dagger

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        return sum(map(self.entry, range(self.rows), range(self.rows)),
                   self.ctx.zero)

    def is_unitary(self):
        """Square with X^dagger X the identity. A verdict that self or
        its kept adjoint already holds is returned; else one product
        decides it, kept on both."""
        if self._unitary is None:
            d = self.dagger()
            if d._unitary is None:
                d._unitary = self.rows == self.cols and (
                    d * self == Mat.identity(self.ctx, self.rows))
            self._unitary = d._unitary
        return self._unitary

    def is_diagonal(self):
        return all(not cols or cols == (i,) for i, cols in enumerate(self.nz))

    def is_zero(self):
        return not any(self.nz)

    def is_scalar(self):
        """Returns the scalar s with self == s*I, or None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        s = self.entry(0, 0)
        return s if self == Mat.diag(self.ctx, [s] * self.rows) else None


def blockdiag(ctx, mats, total=None):
    """Direct sum of square blocks, zero-padded at the end to `total`.
    Each block's rows keep their values, on shifted columns. Unitary
    when every block is known unitary and they fill `total`."""
    if total is None:
        total = sum(m.rows for m in mats)
    nz, vals = [], []
    off = 0
    for m in mats:
        if off + max(m.rows, m.cols) > total:
            raise ShapeMismatch("blocks overflow %dx%d" % (total, total))
        nz.extend([tuple([off + j for j in cols]) for cols in m.nz]
                  if off else m.nz)
        vals.extend(m.vals)
        off += m.rows
    nz.extend([()] * (total - off))
    vals.extend([()] * (total - off))
    return Mat(ctx, total, total, tuple(nz), tuple(vals),
               True if off == total and all(m._unitary for m in mats)
               else None)


def spectral(V, p):
    """The eigenprojections of a unitary with V^p = I, by character
    averaging: projections[k] = (1/p) sum_j zeta_p^(-kj) V^j, so that
    V = sum_k zeta_p^k projections[k]. Each trace must be a nonnegative
    integer and the traces must sum to the dimension."""
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
    total = 0
    for k in range(p):
        acc = Mat.zero(ctx, n, n)
        for j in range(p):
            acc = acc + powers[j] * ctx.zeta_p(-k * j)
        P = acc * inv_p
        t = P.trace().rational_part()
        if t is None or not is_integer(t) or t < 0:
            raise NotOrderP("projection trace is not a nonnegative integer")
        projections.append(P)
        total += t
    if total != n:
        raise NotOrderP("multiplicities do not sum to the dimension")
    return projections


def diag_root_exponents(D, p):
    """Exponents e_i with D = diag(zeta_p^{e_i}), or None if some entry
    is not a p-th root of unity; p is the field's. Entry i is zeta_N^k,
    k = root_exponent(entry), and zeta_p^e when k = N/p e."""
    s = D.ctx.order // p
    ks = [root_exponent(D.entry(i, i)) for i in range(D.rows)]
    if any(k is None or k % s for k in ks):
        return None
    return [k // s for k in ks]


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
    return _pair(L1.ctx, _eigenbases(L1, p), _eigenbases(L2, p))


def diagonalizer(V, p):
    """(e, Z) for a unitary V with V^p = I: its exponents e in ascending
    order and unitary_conjugator(diag(zeta_p^e), V, p), from one pass
    over V's eigenspaces (the unit vectors are diag(zeta_p^e)'s basis)."""
    bases = _eigenbases(V, p)
    one = V.ctx.one
    exps, units = [], []
    for d, basis in enumerate(bases):
        units.append([([(len(exps) + i, one)], one)
                      for i in range(len(basis))])
        exps.extend([d] * len(basis))
    return exps, _pair(V.ctx, units, bases)


def _pair(ctx, bases1, bases2):
    """Z = sum_i s_i v_i u_i^dagger / <u_i, u_i> over the paired basis
    vectors of each eigenspace (see unitary_conjugator)."""
    counts1 = [len(b) for b in bases1]
    counts2 = [len(b) for b in bases2]
    if counts1 != counts2:
        raise MultisetMismatch(counts1, counts2)
    Z = [{} for _ in range(sum(counts1))]
    zero, one = ctx.zero, ctx.one
    for d, (b1, b2) in enumerate(zip(bases1, bases2)):
        for (v, nv), (u, nu) in zip(b1, b2):
            s = one if nu == nv else _root_of_norm(
                ctx, (nu / nv).rational_part())
            if s is None:
                raise UnitaryNotFoundInField(
                    "no field scalar of squared norm %r pairs the "
                    "eigenvectors of eigenvalue zeta_p^%d" % (nu / nv, d))
            c = s if nu == one else s / nu
            for i, x in v:
                cx, row = c * x, Z[i]
                for b, y in u:
                    row[b] = row.get(b, zero) + cx * y.conj()
    return Mat.from_dicts(ctx, len(Z), Z)


def _eigenbases(L, p):
    """Per exponent d, the orthogonal basis of L's zeta_p^d eigenspace
    that unitary_conjugator pairs, as (vector, <vector, vector>), each
    vector the list of its nonzero (index, entry) pairs."""
    ctx = L.ctx
    n = L.rows
    bases = [[] for _ in range(p)]
    if L.is_diagonal():
        exps = diag_root_exponents(L, p)
        if exps is None:
            raise NotOrderP("diagonal entries are not p-th roots of unity")
        for i, e in enumerate(exps):
            bases[e].append(([(i, ctx.one)], ctx.one))
        return bases
    for basis, P in zip(bases, spectral(L, p)):
        dense = []
        for j in range(n):
            w = [P.entry(i, j) for i in range(n)]
            for u, nu in dense:
                c = _inner(u, w) / nu
                w = [x - c * y for x, y in zip(w, u)]
            if any(x._nonzero for x in w):
                dense.append((w, _inner(w, w)))
        basis.extend(([(i, x) for i, x in enumerate(w) if x._nonzero], nw)
                     for w, nw in dense)
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
