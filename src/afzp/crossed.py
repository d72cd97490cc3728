"""Explicit crossed products of canonical systems by the order-p action.

The crossed product is always materialized through its identification
with a direct sum of matrix blocks, never as an abstract twisted
algebra:

* a fixed piece (M_n, V) contributes p crossed blocks of size n; the
  r-th block receives B_r = sum_j zeta_p^(-r*j) a_j V^j. The character
  attached to a block is the negative one, which makes the class of the
  averaging projection land exactly on the eigenvalue-count vector of V.
  With V = diag(zeta_p^e) both directions are computed entry by entry:

      B_r[x][y] = sum_j zeta_p^(j*(e_y - r)) a_j[x][y],
      a_j[x][y] = (1/p) sum_r zeta_p^(j*(r - e_y)) B_r[x][y].

* a cycle piece (p copies of M_n, shift) contributes one crossed block
  of size p*n, filled grid-wise: grid block (r, c) holds coefficient
  (c - r) mod p evaluated at piece component (-r) mod p.

The dual generator scales coefficient j by zeta_p^(-j); in identified
coordinates it cyclically rotates the blocks of a fixed piece (block r
receives block r+1) and acts on a cycle piece's single block by
conjugation with diag(1, zeta_p, ..., zeta_p^(p-1)) x I_n.
"""

from dataclasses import dataclass

from .errors import NonIntegralMultiplicity, ShapeMismatch
from .matrix import Mat
from .system import FdSystem, root_sum, zero_tuple
from ._rat import is_integer

__all__ = ["CrossedElement", "CrossedPresentation", "crossed_product",
           "crossed_offsets"]


@dataclass
class CrossedElement:
    """Coefficient tuple (a_0, ..., a_{p-1}) standing for sum a_j U^j;
    each a_j is a tuple of per-block matrices of the source algebra."""
    coeffs: list


def crossed_offsets(c):
    """Crossed blocks of each piece of c: piece i owns blocks
    offs[i] <= b < offs[i + 1] (p per fixed piece, one per cycle piece),
    and offs[-1] is the crossed block count."""
    offs = [0]
    for piece in c.pieces:
        offs.append(offs[-1] + (c.p if piece.kind == "fixed" else 1))
    return offs


class CrossedPresentation:
    def __init__(self, source):
        self.source = source
        self.ctx = source.ctx
        self.p = source.p
        self.block_sizes = []
        self.piece_first_block = crossed_offsets(source)[:-1]
        self.dual_sigma = []  # crossed block b receives dual_sigma[b]
        self.special = []
        self.iota_matrix = []
        p = self.p
        for piece, sb, cb, exps in zip(source.pieces, source.piece_offsets,
                                       self.piece_first_block,
                                       source.piece_exponents):
            if piece.kind == "fixed":
                self.block_sizes.extend([piece.n] * p)
                self.dual_sigma.extend(cb + (r + 1) % p for r in range(p))
                self.special.extend(exps.count(d) for d in range(p))
                embedded = [range(sb, sb + 1)] * p
            else:
                self.block_sizes.append(p * piece.n)
                self.dual_sigma.append(cb)
                self.special.append(piece.n)
                embedded = [range(sb, sb + p)]
            # iota: each crossed block holds one copy of its embedded blocks
            self.iota_matrix.extend([int(s in blocks) for s in range(source.m)]
                                    for blocks in embedded)

    @property
    def m(self):
        return len(self.block_sizes)

    # -- element-level algebra (for property checks) ----------------------

    def zero_element(self):
        return CrossedElement([zero_tuple(self.ctx, self.source.block_sizes)
                               for _ in range(self.p)])

    def embed(self, x):
        """iota(x): coefficient 0 is x, the rest vanish."""
        if len(x) != self.source.m:
            raise ShapeMismatch("tuple has %d blocks, algebra has %d"
                                % (len(x), self.source.m))
        ce = self.zero_element()
        ce.coeffs[0] = list(x)
        return ce

    def canonical_unitary(self, j=1):
        """U^j as a CrossedElement."""
        ce = self.zero_element()
        ce.coeffs[j % self.p] = [Mat.identity(self.ctx, n)
                                 for n in self.source.block_sizes]
        return ce

    def mul(self, x, y):
        """(sum a_j U^j)(sum b_k U^k) with U b U* = alpha(b)."""
        p = self.p
        out = self.zero_element()
        alpha_pows = [list(y.coeffs[k]) for k in range(p)]
        # alpha^j applied lazily per j below
        for j in range(p):
            if j > 0:
                for k in range(p):
                    alpha_pows[k] = self.source.apply_action(alpha_pows[k])
            a = x.coeffs[j]
            if all(m.is_zero() for m in a):
                continue
            for k in range(p):
                b = alpha_pows[k]
                tgt = out.coeffs[(j + k) % p]
                for t in range(self.source.m):
                    tgt[t] = tgt[t] + a[t] * b[t]
        return out

    def adjoint(self, x):
        out = self.zero_element()
        for m_idx in range(self.p):
            j = (-m_idx) % self.p
            a = [mat.dagger() for mat in x.coeffs[j]]
            for _ in range(m_idx):
                a = self.source.apply_action(a)
            out.coeffs[m_idx] = a
        return out

    def dual_coeff(self, x):
        """Dual generator on coefficients: a_j -> zeta_p^(-j) a_j."""
        out = self.zero_element()
        for j in range(self.p):
            w = self.ctx.zeta_p(-j)
            out.coeffs[j] = [mat * w for mat in x.coeffs[j]]
        return out

    # -- identification ----------------------------------------------------

    def identify(self, ce):
        """The *-isomorphism onto the direct sum of matrix blocks."""
        p = self.p
        ctx = self.ctx
        out = []
        for idx, piece in enumerate(self.source.pieces):
            sb = self.source.piece_offsets[idx]
            if piece.kind == "fixed":
                e, rows = self.source.piece_exponents[idx], [0] * piece.n
                for r in range(p):
                    out.append(root_sum(ctx, piece.n, [
                        (ce.coeffs[j][sb], rows, [j * (x - r) for x in e])
                        for j in range(p)], self.source.roots))
            else:
                n = piece.n
                rows = []
                for r in range(p):
                    comp = (-r) % p
                    blocks = [ce.coeffs[(c - r) % p][sb + comp]
                              for c in range(p)]
                    if any(a.rows != n or a.cols != n for a in blocks):
                        raise ShapeMismatch("cycle block is not %dx%d"
                                            % (n, n))
                    rows.extend({c * n + j: v for c, a in enumerate(blocks)
                                 for j, v in zip(a.nz[i], a.vals[i])}
                                for i in range(n))
                out.append(Mat.from_dicts(ctx, p * n, rows))
        return out

    def unidentify(self, mats):
        """Inverse of identify."""
        p = self.p
        ctx = self.ctx
        inv_p = ctx.scalar(1) / ctx.scalar(p)
        roots = [w * inv_p for w in self.source.roots]
        ce = self.zero_element()
        for idx, piece in enumerate(self.source.pieces):
            cb = self.piece_first_block[idx]
            sb = self.source.piece_offsets[idx]
            if piece.kind == "fixed":
                e, rows = self.source.piece_exponents[idx], [0] * piece.n
                for j in range(p):
                    ce.coeffs[j][sb] = root_sum(ctx, piece.n, [
                        (mats[cb + r], rows, [j * (r - x) for x in e])
                        for r in range(p)], roots)
            else:
                n = piece.n
                grid = mats[cb]
                if grid.rows != p * n or grid.cols != p * n:
                    raise ShapeMismatch("cycle block is not %dx%d"
                                        % (p * n, p * n))
                for r in range(p):
                    blocks = [[{} for _ in range(n)] for _ in range(p)]
                    for i in range(n):
                        for j, v in zip(grid.nz[r * n + i],
                                        grid.vals[r * n + i]):
                            blocks[j // n][i][j % n] = v
                    for c, rows in enumerate(blocks):
                        ce.coeffs[(c - r) % p][sb + (-r) % p] = \
                            Mat.from_dicts(ctx, n, rows)
        return ce

    def identify_matrix(self):
        """The matrix of identify: coefficient index major, then source
        block, then row-major entries; same flattening on the output side
        over crossed blocks. Each matrix unit's image is read off the
        exponents: a fixed piece puts zeta_p^(j (e_y - r)) at (x, y) of
        its crossed block r, and a cycle piece puts 1 at (x, y) of grid
        block (-t, j - t) mod p, t being the unit's component."""
        p, src = self.p, self.source
        starts = [0]    # flattened offset of each crossed block
        for n in self.block_sizes:
            starts.append(starts[-1] + n * n)
        out = [{} for _ in range(starts[-1])]
        col = 0
        for j in range(p):
            for piece, cb, e in zip(src.pieces, self.piece_first_block,
                                    src.piece_exponents):
                n = piece.n
                if piece.kind == "fixed":
                    for x in range(n):
                        for y in range(n):
                            for r in range(p):
                                out[starts[cb + r] + x * n + y][col] = \
                                    src.roots[j * (e[y] - r) % p]
                            col += 1
                    continue
                for t in range(p):
                    at = starts[cb] + (-t % p) * n * p * n + (j - t) % p * n
                    for x in range(n):
                        for y in range(n):
                            out[at + x * p * n + y][col] = self.ctx.one
                            col += 1
        return Mat.from_dicts(self.ctx, col, out)

    # -- canonical structure ----------------------------------------------

    def averaging_projection(self):
        """q = (1/p) sum_j U^j, its identified image and the per-block
        ranks (which realize the special element)."""
        ctx = self.ctx
        inv_p = ctx.scalar(1) / ctx.scalar(self.p)
        ce = self.zero_element()
        for j in range(self.p):
            ce.coeffs[j] = [Mat.identity(ctx, n) * inv_p
                            for n in self.source.block_sizes]
        mats = self.identify(ce)
        ranks = []
        for mtx in mats:
            t = mtx.trace().rational_part()
            if t is None or not is_integer(t):
                raise NonIntegralMultiplicity("averaging projection rank")
            ranks.append(int(t))
        return ce, mats, ranks

    def dual_system(self):
        """The dual generator as a validated system on the crossed algebra."""
        ctx = self.ctx
        p = self.p
        impl = []
        for piece in self.source.pieces:
            if piece.kind == "fixed":
                impl.extend(Mat.identity(ctx, piece.n) for _ in range(p))
            else:
                diag = []
                for r in range(p):
                    diag.extend([ctx.zeta_p(r)] * piece.n)
                impl.append(Mat.diag(ctx, diag))
        return FdSystem(ctx, p, list(self.block_sizes),
                        tuple(self.dual_sigma), impl)

    def dual_apply(self, mats):
        sys = self.dual_system()
        return sys.apply_action(mats)


def crossed_product(c):
    """Crossed presentation of a canonical form."""
    return CrossedPresentation(c)

