"""Explicit crossed products of canonical systems by the order-p action.

The crossed product is always materialized through its identification
with a direct sum of matrix blocks, never as an abstract twisted
algebra:

* a fixed piece (M_n, V) contributes p crossed blocks of size n; the
  r-th block receives B_r = sum_j zeta_p^(-r*j) a_j V^j. The character
  attached to a block is the negative one, which makes the class of the
  averaging projection land exactly on the eigenvalue-count vector of V.
* a cycle piece (p copies of M_n, shift) contributes one crossed block
  of size p*n, filled grid-wise: grid block (r, c) holds coefficient
  (c - r) mod p evaluated at piece component (-r) mod p.

The identification is one matrix M, identify_matrix (what afzp crossed
writes), and identify is the Mat product M * col(ce), col reading the
blocks row-major as one column. D = M^dagger M is diagonal, p on a fixed
piece's columns and 1 on a cycle piece's: a tier-1 tested property, not
a runtime check. So unidentify is the product with M^-1 = D^-1 M^dagger,
D read off the piece kinds; M and M^-1 are built once per presentation.

The dual generator scales coefficient j by zeta_p^(-j); in identified
coordinates it cyclically rotates the blocks of a fixed piece (block r
receives block r+1) and acts on a cycle piece's single block by
conjugation with diag(1, zeta_p, ..., zeta_p^(p-1)) x I_n (dual_system).

afzp crossed writes block_sizes, identify_matrix, dual_system and the
integer fields dual_sigma, special and iota_matrix, which are the
dualAct, special and iota of invariant_of(source), shared and not
copied: kinv reads them off the pieces. Which crossed blocks each piece
owns is the source form's crossed_offsets. The element-level algebra
that remains (CrossedElement, zero_element, mul, adjoint, identify,
unidentify) stays only for the crossed-dense benchmark workload and the
property tests, until that workload measures command-level operations
(ROADMAP item 5a).
"""

from dataclasses import dataclass
from itertools import accumulate

from .errors import ShapeMismatch
from .kinv import invariant_of
from .matrix import Mat
from .system import FdSystem, zero_tuple

__all__ = ["CrossedElement", "CrossedPresentation", "crossed_product"]


@dataclass
class CrossedElement:
    """Coefficient tuple (a_0, ..., a_{p-1}) standing for sum a_j U^j;
    each a_j is a tuple of per-block matrices of the source algebra."""
    coeffs: list


class CrossedPresentation:
    def __init__(self, source):
        self.source = source
        self.ctx = source.ctx
        self.p = source.p
        self.block_sizes = []
        for piece in source.pieces:
            if piece.kind == "fixed":
                self.block_sizes.extend([piece.n] * self.p)
            else:
                self.block_sizes.append(self.p * piece.n)
        # the invariant's own lists, shared with invariant_of's cache
        inv = invariant_of(source)
        self.dual_sigma = inv.dualAct  # crossed block b receives dual_sigma[b]
        self.special = inv.special
        self.iota_matrix = inv.iota
        self._ident = self._inv = None  # M and M^-1, built once

    @property
    def m(self):
        return len(self.block_sizes)

    # -- element-level algebra (crossed-dense workload, property tests) ----

    def zero_element(self):
        return CrossedElement([zero_tuple(self.ctx, self.source.block_sizes)
                               for _ in range(self.p)])

    def mul(self, x, y):
        """(sum a_j U^j)(sum b_k U^k) = sum a_j alpha^j(b_k) U^(j+k), with
        U b U* = alpha(b): one apply_action per nonzero a_j with j >= 1
        and each b_k; alpha^0 is never applied."""
        p, m = self.p, self.source.m
        self._check_coeffs(x, y)
        out = self.zero_element()
        for j in range(p):
            a = x.coeffs[j]
            if all(mat.is_zero() for mat in a):
                continue
            for k, b in enumerate(y.coeffs):
                b = self.source.apply_action(b, j) if j else b
                tgt = out.coeffs[(j + k) % p]
                for t in range(m):
                    tgt[t] = tgt[t] + a[t] * b[t]
        return out

    def adjoint(self, x):
        """(sum a_j U^j)^* = sum_m alpha^m(a_(-m)^dagger) U^m: one
        apply_action per coefficient m >= 1."""
        self._check_coeffs(x)
        out = self.zero_element()
        for m in range(self.p):
            a = [mat.dagger() for mat in x.coeffs[-m % self.p]]
            out.coeffs[m] = self.source.apply_action(a, m) if m else a
        return out

    def _check_coeffs(self, *xs):
        if any(len(x.coeffs) != self.p for x in xs):
            raise ShapeMismatch("an element does not have p = %d "
                                "coefficients" % self.p)

    # -- identification ----------------------------------------------------

    def identify(self, ce):
        """The *-isomorphism onto the direct sum of matrix blocks: the
        product M * col(ce), cut back into the crossed blocks."""
        if any(len(a) != self.source.m for a in ce.coeffs):
            raise ShapeMismatch("coefficient tuples do not have %d blocks"
                                % self.source.m)
        col = self._column([a for coeff in ce.coeffs for a in coeff],
                           self.source.block_sizes * self.p)
        return self._blocks(self.identify_matrix() * col, self.block_sizes)

    def unidentify(self, mats):
        """Inverse of identify: the product M^-1 * col(mats), cut back into
        the coefficients' blocks."""
        m = self.source.m
        col = self._column(mats, self.block_sizes)
        out = self._blocks(self._inverse() * col,
                           self.source.block_sizes * self.p)
        return CrossedElement([out[j * m:(j + 1) * m] for j in range(self.p)])

    def _column(self, mats, sizes):
        """col(mats): the row-major entries of the square blocks mats, of
        sizes, as one column Mat."""
        if len(mats) != len(sizes) or any(
                a.rows != n or a.cols != n for a, n in zip(mats, sizes)):
            raise ShapeMismatch("blocks are not %d square blocks of sizes %s"
                                % (len(sizes), sizes))
        nz = [()] * sum(n * n for n in sizes)
        vals, at = list(nz), 0
        for a, n in zip(mats, sizes):
            for cols, row in zip(a.nz, a.vals):
                for c, v in zip(cols, row):
                    nz[at + c] = (0,)
                    vals[at + c] = (v,)
                at += n
        return Mat(self.ctx, len(nz), 1, tuple(nz), tuple(vals))

    def _blocks(self, col, sizes):
        """The square blocks of sizes read row-major from the column col."""
        out, at, cnz, cvals = [], 0, col.nz, col.vals
        for n in sizes:
            nz, vals = [], []
            for _ in range(n):
                cols = tuple([c for c in range(n) if cnz[at + c]])
                nz.append(cols)
                vals.append(tuple([cvals[at + c][0] for c in cols]))
                at += n
            out.append(Mat(self.ctx, n, n, tuple(nz), tuple(vals)))
        return out

    def identify_matrix(self):
        """The matrix M of identify, built once: coefficient index major,
        then source block, then row-major entries; same flattening on the
        output side over crossed blocks. Each matrix unit's image is read
        off the exponents: a fixed piece puts zeta_p^(j (e_y - r)) at
        (x, y) of its crossed block r, and a cycle piece puts 1 at (x, y)
        of grid block (-t, j - t) mod p, t being the unit's component."""
        if self._ident is not None:
            return self._ident
        p, src, ctx = self.p, self.source, self.ctx
        # flattened offset of each crossed block
        starts = list(accumulate([n * n for n in self.block_sizes],
                                 initial=0))
        out = [{} for _ in range(starts[-1])]
        col = 0
        for j in range(p):
            for piece, cb, e in zip(src.pieces, src.crossed_offsets,
                                    src.piece_exponents):
                n = piece.n
                if piece.kind == "fixed":
                    for x in range(n):
                        for y in range(n):
                            for r in range(p):
                                out[starts[cb + r] + x * n + y][col] = \
                                    ctx.zeta_p(j * (e[y] - r))
                            col += 1
                    continue
                for t in range(p):
                    at = starts[cb] + (-t % p) * n * p * n + (j - t) % p * n
                    for x in range(n):
                        for y in range(n):
                            out[at + x * p * n + y][col] = ctx.one
                            col += 1
        self._ident = Mat.from_dicts(ctx, col, out)
        return self._ident

    def _inverse(self):
        """M^-1 = D^-1 M^dagger, built once, D read off the piece kinds."""
        if self._inv is None:
            ctx, p = self.ctx, self.p
            inv_p = ctx.one / ctx.scalar(p)
            d_inv = []
            for piece in self.source.pieces:
                w = inv_p if piece.kind == "fixed" else ctx.one
                d_inv += [w] * (piece.block_count(p) * piece.n ** 2)
            self._inv = Mat.diag(ctx, d_inv * p) * \
                self.identify_matrix().dagger()
        return self._inv

    # -- canonical structure ----------------------------------------------

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


def crossed_product(c):
    """Crossed presentation of a canonical form."""
    return CrossedPresentation(c)

