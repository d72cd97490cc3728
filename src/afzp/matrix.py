"""Dense exact matrices over Q(zeta_N).

Everything here is plain row-major dense algebra with Scalar entries.
The only eigen-analysis offered is character averaging of finite-order
unitaries, which stays inside the field; there is no general eigensolver
and no linear solver: every identity the engine checks is a matrix
product compared against a pattern.
"""

from .cyclo import Scalar
from .errors import MultisetMismatch, NotOrderP, ShapeMismatch
from ._rat import is_integer

__all__ = ["Mat", "SpectralData", "spectral", "match_diagonals"]


class Mat:
    """rows x cols matrix of Scalars sharing one FieldContext."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeMismatch("entry grid does not match %dx%d" % (rows, cols))
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx, rows, cols=None):
        cols = rows if cols is None else cols
        z = ctx.zero
        return Mat(ctx, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(ctx, n):
        m = Mat.zero(ctx, n, n)
        for i in range(n):
            m.entries[i][i] = ctx.one
        return m

    @staticmethod
    def diag(ctx, values):
        n = len(values)
        m = Mat.zero(ctx, n, n)
        for i, v in enumerate(values):
            m.entries[i][i] = ctx.scalar(v) if not isinstance(v, Scalar) else v
        return m

    @staticmethod
    def from_rows(ctx, rows):
        ents = [[ctx.scalar(v) if not isinstance(v, Scalar) else v for v in r]
                for r in rows]
        return Mat(ctx, len(ents), len(ents[0]) if ents else 0, ents)

    @staticmethod
    def permutation(ctx, images):
        """Permutation matrix Q with Q e_j = e_images[j]."""
        n = len(images)
        m = Mat.zero(ctx, n, n)
        for j, i in enumerate(images):
            m.entries[i][j] = ctx.one
        return m

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
                   [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ShapeMismatch("%dx%d times %dx%d"
                                    % (self.rows, self.cols,
                                       other.rows, other.cols))
            zero = self.ctx.zero
            out = [[zero] * other.cols for _ in range(self.rows)]
            bent = other.entries
            for i, row in enumerate(self.entries):
                orow = out[i]
                for k, aik in enumerate(row):
                    if not aik._nonzero:
                        continue
                    brow = bent[k]
                    for j, bkj in enumerate(brow):
                        if bkj._nonzero:
                            orow[j] = orow[j] + aik * bkj
            return Mat(self.ctx, self.rows, other.cols, out)
        s = other if isinstance(other, Scalar) else self.ctx.scalar(other)
        return Mat(self.ctx, self.rows, self.cols,
                   [[a * s for a in row] for row in self.entries])

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
        """Conjugate transpose."""
        zero = self.ctx.zero
        out = [[zero] * self.rows for _ in range(self.cols)]
        for i in range(self.rows):
            row = self.entries[i]
            for j in range(self.cols):
                e = row[j]
                if e._nonzero:
                    out[j][i] = e.conj()
        return Mat(self.ctx, self.cols, self.rows, out)

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        t = self.ctx.zero
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def kron(self, other):
        ra, ca, rb, cb = self.rows, self.cols, other.rows, other.cols
        out = Mat.zero(self.ctx, ra * rb, ca * cb)
        for i in range(ra):
            for j in range(ca):
                a = self.entries[i][j]
                if a.is_zero():
                    continue
                for k in range(rb):
                    for l in range(cb):
                        b = other.entries[k][l]
                        if not b.is_zero():
                            out.entries[i * rb + k][j * cb + l] = a * b
        return out

    def is_unitary(self):
        if self.rows != self.cols:
            return False
        return self.dagger() * self == Mat.identity(self.ctx, self.rows)

    def is_diagonal(self):
        return all(self.entries[i][j].is_zero()
                   for i in range(self.rows) for j in range(self.cols)
                   if i != j)

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def is_scalar(self):
        """Returns the scalar s with self == s*I, or None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        s = self.entries[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                want = s if i == j else self.ctx.zero
                if self.entries[i][j] != want:
                    return None
        return s

    def power(self, n):
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        result = Mat.identity(self.ctx, self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def from_json(obj, ctx, memo):
        """Decode a format-1 matrix object, each scalar as
        Scalar.from_json with this field's `memo`, whose hits (a Scalar
        is true) skip the call."""
        get, order = memo.get, ctx.order
        ents = [[e.get("order") == order and get(tuple(e["coeffs"]))
                 or Scalar.from_json(e, ctx, memo) for e in row]
                for row in obj["entries"]]
        return Mat(ctx, obj["rows"], obj["cols"], ents)


def blockdiag(ctx, mats, total=None):
    """Direct sum of square blocks, zero-padded at the end to `total`."""
    size = sum(m.rows for m in mats)
    if total is None:
        total = size
    out = Mat.zero(ctx, total, total)
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out.entries[off + i][off + j] = m.entries[i][j]
        off += m.rows
    return out


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


def match_diagonals(D1, D2, p):
    """Permutation Q with Q^dagger * D1 * Q == D2, for diagonal matrices
    of p-th roots of unity with equal eigenvalue multisets. Equal
    eigenvalues are matched in increasing index order."""
    ctx = D1.ctx
    if D1.rows != D2.rows:
        raise ShapeMismatch("diagonals of different sizes")
    e1 = diag_root_exponents(D1, p)
    e2 = diag_root_exponents(D2, p)
    if e1 is None or e2 is None:
        raise NotOrderP("diagonal entries are not p-th roots of unity")
    pools = {}
    for i, e in enumerate(e1):
        pools.setdefault(e, []).append(i)
    counts1 = [sum(1 for x in e1 if x == k) for k in range(p)]
    counts2 = [sum(1 for x in e2 if x == k) for k in range(p)]
    if counts1 != counts2:
        raise MultisetMismatch(counts1, counts2)
    images = [0] * D1.rows
    taken = {k: 0 for k in pools}
    for j, e in enumerate(e2):
        pos = pools[e][taken[e]]
        taken[e] += 1
        images[j] = pos
    # Q e_j = e_{images[j]}  =>  (Q^dagger D1 Q)_{jj} = D1_{images[j]}
    return Mat.permutation(ctx, images)
