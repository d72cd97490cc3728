import itertools
import json
import math
import random
from bisect import bisect_right

import pytest

from afzp._rat import RAT, is_integer
from afzp.classify import (IntertwiningCertificate, Tower,
                           UniquenessWitness, WitnessEntry, conjugate_hom,
                           ksearch, lift)
from afzp.crossed import (CrossedElement, CrossedPresentation,
                          crossed_product)
from afzp.cyclo import FieldContext, _scalar
from afzp.errors import (AfzpError, CorrectionFailed, KDataMismatch,
                         MultisetMismatch, NonDiagonalizableWithinField,
                         NonIntegralMultiplicity, NotOrderP, ShapeMismatch,
                         UnitaryNotFoundInField)
from afzp.kinv import (KInvariant, KPair, imat_mul, induced_map,
                       invariant_of, ivec_mul)
from afzp.matrix import (Mat, blockdiag, diag_root_exponents, spectral,
                         unitary_conjugator)
from afzp import serialize
from afzp.report import Report
from afzp.system import (Arrangement, CanonicalForm, EqHom, FdSystem,
                         IrredPiece, Slot, _pattern_defect, equal_as_maps,
                         hom_validate, zero_tuple)


_CTX_CACHE = {}


def ctx_for(p, order=None):
    key = (p, order)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldContext(p, order)
    return _CTX_CACHE[key]


def cyclotomic_poly_by_division(n):
    """Integer coefficient list (ascending) of the n-th cyclotomic
    polynomial for any n >= 1: x^n - 1 divided exactly by Phi_d for
    every proper divisor d of n, each found the same way. The oracle of
    cyclo.cyclotomic_poly's closed form."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly_by_division(d)
            dd = len(den) - 1
            out = [0] * (len(poly) - dd)
            for i in range(len(poly) - 1, dd - 1, -1):
                if not poly[i]:
                    continue
                q, r = divmod(poly[i], den[dd])
                assert r == 0, "non-exact cyclotomic division"
                out[i - dd] = q
                for j, cj in enumerate(den):
                    poly[i - dd + j] -= q * cj
            assert not any(poly), "non-exact cyclotomic division"
            poly = out
    return poly


def fixed_form(ctx, exps):
    """Canonical form with one fixed piece, diagonal exponents as given
    (must be sorted)."""
    v = Mat.diag(ctx, [ctx.zeta_p(e) for e in exps])
    return CanonicalForm(ctx, ctx.p, [IrredPiece("fixed", len(exps), v)])


def cycle_form(ctx, n):
    return CanonicalForm(ctx, ctx.p, [IrredPiece("cycle", n)])


def mixed_form(ctx, pieces):
    """pieces: list of ("fixed", [exps]) or ("cycle", n)."""
    built = []
    for kind, data in pieces:
        if kind == "fixed":
            v = Mat.diag(ctx, [ctx.zeta_p(e) for e in data])
            built.append(IrredPiece("fixed", len(data), v))
        else:
            built.append(IrredPiece("cycle", data))
    return CanonicalForm(ctx, ctx.p, built)


def piece_specs(p, max_n):
    """mixed_form piece specs: every fixed exponent multiset and every
    cycle piece of size at most max_n."""
    return [("fixed", list(e)) for n in range(1, max_n + 1)
            for e in itertools.combinations_with_replacement(range(p), n)] \
        + [("cycle", n) for n in range(1, max_n + 1)]


def fixed_point_unitary(tgt, rng):
    """Deterministic random unitary in the fixed-point algebra of the
    target canonical system (permutations within equal-eigenvalue groups
    times root-of-unity diagonals; constant tuples on cycle pieces)."""
    ctx = tgt.ctx
    p = tgt.p
    out = [None] * tgt.m
    for ti, piece in enumerate(tgt.pieces):
        off = tgt.piece_offsets[ti]
        if piece.kind == "fixed":
            exps = diag_root_exponents(piece.v, p)
            images = list(range(piece.n))
            for val in set(exps):
                grp = [i for i, e in enumerate(exps) if e == val]
                shuffled = grp[:]
                rng.shuffle(shuffled)
                for a, b in zip(grp, shuffled):
                    images[a] = b
            out[off] = Mat.permutation(ctx, images) * Mat.diag(
                ctx, [ctx.root(rng.randrange(ctx.order))
                      for _ in range(piece.n)])
        else:
            images = list(range(piece.n))
            rng.shuffle(images)
            w = Mat.permutation(ctx, images) * Mat.diag(
                ctx, [ctx.root(rng.randrange(ctx.order))
                      for _ in range(piece.n)])
            for r in range(p):
                out[off + r] = w
    return out


def diag_root_exponents_by_hashing(D, p):
    """Oracle for matrix.diag_root_exponents: the map zeta_p^k -> k built
    afresh on each call."""
    ctx = D.ctx
    roots = {ctx.zeta_p(k): k for k in range(p)}
    out = []
    for i in range(D.rows):
        e = roots.get(D.entry(i, i))
        if e is None:
            return None
        out.append(e)
    return out


def _random_form(rng, ctx, max_n):
    """Canonical form of 1-3 pieces, each fixed (random exponents) or a
    cycle, of size at most max_n."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, max_n)
        pieces.append(("fixed", sorted(rng.randrange(ctx.p) for _ in range(n)))
                      if rng.random() < 0.5 else ("cycle", n))
    return mixed_form(ctx, pieces)


def random_tower_pair(seed):
    """Seeded random tower A and a second presentation B of it: p in
    {2, 3}, depth 2-3, 1-3 pieces per stage. Each map of A is the lift of
    a random ksearch(.., 4) pair; B's map i is A's conjugated by a random
    fixed-point unitary of stage i+1, so both towers have the same limit
    and every stage the same invariant and connecting pair."""
    rng = random.Random(seed)
    ctx = ctx_for(rng.choice([2, 3]))
    depth = rng.randint(2, 3)
    stages = [_random_form(rng, ctx, 2)]
    maps = []
    while len(stages) < depth:
        tgt = _random_form(rng, ctx, len(stages) + 2)
        pairs = ksearch(invariant_of(stages[-1]), invariant_of(tgt), 4)
        if pairs:
            maps.append(lift(rng.choice(pairs), stages[-1], tgt))
            stages.append(tgt)
    moved = [conjugate_hom(fixed_point_unitary(h.target, rng), h)
             for h in maps]
    return Tower(stages, maps), Tower(stages, moved)


def rand_rat(rng, span=2):
    return RAT(rng.randint(-span, span), rng.randint(1, 2))


def rand_mat(ctx, rng, n, span=2):
    return Mat.from_rows(ctx, [[rand_rat(rng, span) for _ in range(n)]
                               for _ in range(n)])


def rand_tuple(form, rng, span=2):
    return [rand_mat(form.ctx, rng, n, span) for n in form.block_sizes]


def zero_grid(ctx, rows, cols=None):
    """A rows x cols list grid of zeros, filled in place before the
    (immutable) Mat is built from it once."""
    return [[ctx.zero] * (rows if cols is None else cols)
            for _ in range(rows)]


def grid_mat(ctx, rows, cols, grid):
    """The rows x cols Mat of a dense list grid, its shape checked;
    unlike Mat.from_rows it keeps the column count of a grid with no
    rows."""
    grid = [list(row) for row in grid]
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ShapeMismatch("entry grid does not match %dx%d" % (rows, cols))
    return Mat.from_rows(ctx, grid) if rows else Mat.zero(ctx, 0, cols)


def unit_tuple(ctx, block_sizes, s, i, j):
    """Tuple that is the (i, j) matrix unit in block s, zero elsewhere."""
    a = zero_tuple(ctx, block_sizes)
    unit = zero_grid(ctx, block_sizes[s])
    unit[i][j] = ctx.one
    a[s] = grid_mat(ctx, block_sizes[s], block_sizes[s], unit)
    return a


def apply_hom(h, a):
    """psi(a) for a tuple a over h's source canonical blocks: per target
    block, X blockdiag(slot contents, zero on gaps) X^dagger."""
    ctx = h.source.ctx
    out = []
    for arr, n_t in zip(h.arrangements, h.target.block_sizes):
        blocks = [Mat.zero(ctx, slot.size, slot.size) if slot.src is None
                  else a[slot.src] for slot in arr.slots]
        x = arr.conj
        out.append(x * blockdiag(ctx, blocks, total=n_t) * x.dagger())
    return out


def _star_generators(block_sizes):
    """(s, i, i+1) per block s, (s, 0, 0) per 1x1 block. *-homs equal on
    these are equal: E_ij = E_{i,i+1}...E_{j-1,j} (i < j), E_ji = E_ij^*,
    and E_ii = E_ij E_ji for any j != i."""
    for s, n in enumerate(block_sizes):
        if n == 1:
            yield s, 0, 0
        for i in range(n - 1):
            yield s, i, i + 1


def transport(s, c, a):
    """Push a tuple on s through the recorded rewriting onto c."""
    out = zero_tuple(c.ctx, c.block_sizes)
    for i in range(s.m):
        z = c.iso.conjugators[i]
        out[c.iso.block_map[i]] = z * a[i] * z.dagger()
    return out


def generators_equivariant(h):
    """Oracle for hom_validate's equivariance check on a well-formed hom
    with unitary conjugators: psi(alpha(E)) = beta(psi(E)) on every
    *-generator E of the source, each image built densely."""
    src, tgt = h.source, h.target
    for s, i, j in _star_generators(src.block_sizes):
        a = unit_tuple(src.ctx, src.block_sizes, s, i, j)
        if apply_hom(h, src.apply_action(a)) != \
                tgt.apply_action(apply_hom(h, a)):
            return False
    return True


def generators_equal(h1, h2):
    """Oracle for equal_as_maps: unitary conjugators and equal images of
    every *-generator."""
    if not (h1.source.same_shape(h2.source)
            and h1.target.same_shape(h2.target)
            and all(arr.conj.is_unitary()
                    for h in (h1, h2) for arr in h.arrangements)):
        return False
    src = h1.source
    return all(apply_hom(h1, a) == apply_hom(h2, a)
               for a in (unit_tuple(src.ctx, src.block_sizes, s, i, j)
                         for s, i, j in _star_generators(src.block_sizes)))


def generator_iso_defect(s, c):
    """Oracle for decompose's _iso_defect: the first non-unitary
    conjugator or *-generator on which the transported action differs
    from the canonical one; None if the rewriting is exact."""
    for i, z in enumerate(c.iso.conjugators):
        if not z.is_unitary():
            return "conjugator %d, which is not unitary" % i
    for i, r, q in _star_generators(s.block_sizes):
        a = unit_tuple(s.ctx, s.block_sizes, i, r, q)
        if transport(s, c, system_action(s, a)) != \
                c.apply_action(transport(s, c, a)):
            return "unit (%d,%d) of block %d" % (r, q, i)
    return None


def _all_units(form):
    """Every matrix unit of a form, as a block tuple."""
    for s, n in enumerate(form.block_sizes):
        for i in range(n):
            for j in range(n):
                yield unit_tuple(form.ctx, form.block_sizes, s, i, j)


def all_units_equivariant(h):
    """Oracle for hom_validate's equivariance check: psi(alpha(E)) equals
    beta(psi(E)) on every matrix unit E of the source, not only on the
    *-generators."""
    src, tgt = h.source, h.target
    return all(apply_hom(h, src.apply_action(a))
               == tgt.apply_action(apply_hom(h, a))
               for a in _all_units(src))


def all_units_equal(h1, h2):
    """Oracle for equal_as_maps: equal images of every matrix unit."""
    return (h1.source.same_shape(h2.source)
            and h1.target.same_shape(h2.target)
            and all(apply_hom(h1, a) == apply_hom(h2, a)
                    for a in _all_units(h1.source)))


def _multiplicity(x, what):
    tr = x.trace().rational_part()
    if tr is None or not is_integer(tr) or tr < 0:
        raise NonIntegralMultiplicity("%s is %r" % (what, tr))
    return int(tr)


def sigma_power_is_identity(sigma, p):
    """Whether sigma^p = id, by p passes over the permutation: the oracle
    of validate's "sigma^p = id", which reads it off sigma's orbits."""
    power = list(range(len(sigma)))
    for _ in range(p):
        power = [sigma[i] for i in power]
    return power == list(range(len(sigma)))


def _perm_matrix(sigma):
    """Row t has its 1 in column sigma[t]."""
    return [[int(sigma[t] == s) for s in range(len(sigma))]
            for t in range(len(sigma))]


def _perm_of(matrix):
    """Images of a permutation matrix (row index with the 1, per column)."""
    n = len(matrix)
    out = [None] * n
    for c in range(n):
        for r in range(n):
            if matrix[r][c]:
                out[c] = r
    return out


def matrix_orbits(permB, permA):
    """Orbits of (r, c) under the simultaneous permutation action, walked
    on the matrix of entries: the oracle of classify._entry_orbits."""
    nB, nA = len(permB), len(permA)
    seen = [[False] * nA for _ in range(nB)]
    orbits = []
    for r in range(nB):
        for c in range(nA):
            if seen[r][c]:
                continue
            orb = []
            rr, cc = r, c
            while not seen[rr][cc]:
                seen[rr][cc] = True
                orb.append((rr, cc))
                rr, cc = permB[rr], permA[cc]
            orbits.append(orb)
    return orbits


def _enumerate_equivariant(permB, permA, bound, row_check):
    """All nonnegative matrices constant on simultaneous-permutation
    orbits and accepted by row_check, with entries <= bound unless bound
    is None, in lexicographic order; row_check(mat, partial=True) must be
    monotone, and each orbit's value loop stops at its first rejection."""
    nB, nA = len(permB), len(permA)
    orbits = matrix_orbits(permB, permA)
    results = []

    def rec(idx, mat):
        if idx == len(orbits):
            if row_check(mat):
                results.append([row[:] for row in mat])
            return
        for v in (itertools.count() if bound is None else range(bound + 1)):
            for (r, c) in orbits[idx]:
                mat[r][c] = v
            if not row_check(mat, partial=True):
                break
            rec(idx + 1, mat)
        for (r, c) in orbits[idx]:
            mat[r][c] = 0

    rec(0, [[0] * nA for _ in range(nB)])
    return results


def ordered_ksearch_oracle(invA, invB, bound=None):
    """Oracle for classify.ksearch, in its order: the whole-list
    enumerator over the actions' 0/1 matrices, decoded back to images,
    with whole-matrix products for the unit class (f_check) and for the
    special element and the embedding square (phi_check)."""
    permB = _perm_of(_perm_matrix(invB.act))
    permA = _perm_of(_perm_matrix(invA.act))

    def f_check(mat, partial=False):
        img = ivec_mul(mat, invA.unit)
        if partial:
            return all(img[r] <= invB.unit[r] for r in range(invB.m))
        return img == invB.unit

    fs = _enumerate_equivariant(permB, permA, bound, f_check)
    dualB = _perm_of(_perm_matrix(invB.dualAct))
    dualA = _perm_of(_perm_matrix(invA.dualAct))
    out = []
    for F in fs:
        target_iota = imat_mul(invB.iota, F)

        def phi_check(mat, partial=False, _ti=target_iota):
            simg = ivec_mul(mat, invA.special)
            if partial:
                if any(simg[r] > invB.special[r] for r in range(invB.mC)):
                    return False
                comm = imat_mul(mat, invA.iota)
                return all(comm[r][c] <= _ti[r][c]
                           for r in range(invB.mC) for c in range(invA.m))
            if simg != invB.special:
                return False
            return imat_mul(mat, invA.iota) == _ti

        out.extend(KPair(F, phi) for phi in
                   _enumerate_equivariant(dualB, dualA, bound, phi_check))
    return out


def matrix_intertwining(kp, invA, invB):
    """Oracle for check_pair's two intertwining items, as products with
    the actions' 0/1 matrices: (F actA = actB F, phi dualA = dualB phi)."""
    actA, actB = _perm_matrix(invA.act), _perm_matrix(invB.act)
    dualA, dualB = _perm_matrix(invA.dualAct), _perm_matrix(invB.dualAct)
    return (imat_mul(kp.F, actA, invA.m) == imat_mul(actB, kp.F, invA.m),
            imat_mul(kp.phi, dualA, invA.mC)
            == imat_mul(dualB, kp.phi, invA.mC))


def invariant_oracle(c):
    """Oracle for kinv.invariant_of, assembled afresh on every call and
    read off the crossed product's algebra: act is the form's block
    permutation, dualAct[b] the crossed block whose unit the dual
    generator on coefficients carries into block b, special the ranks
    of the averaging projection, and iota[b][s] the rank in crossed
    block b of the embedded minimal projection E_00 of block s."""
    cp = ElementCrossed(c)
    _, _, special = cp.averaging_projection()
    iota = [[0] * c.m for _ in range(cp.m)]
    for s in range(c.m):
        image = cp.identify(cp.embed(unit_tuple(c.ctx, c.block_sizes, s, 0,
                                                0)))
        for b, mat in enumerate(image):
            iota[b][s] = _multiplicity(mat, "iota entry %d, %d" % (b, s))
    dual = [None] * cp.m
    for b, n in enumerate(cp.block_sizes):
        unit = zero_tuple(c.ctx, cp.block_sizes)
        unit[b] = Mat.identity(c.ctx, n)
        image = cp.identify(cp.dual_coeff(cp.unidentify(unit)))
        moved = [r for r, mat in enumerate(image) if not mat.is_zero()]
        assert len(moved) == 1 and image[moved[0]] == unit[b], \
            "the dual generator does not move crossed block %d's unit " \
            "onto one block's unit" % b
        dual[moved[0]] = b
    return KInvariant(list(c.block_sizes), tuple(c.sigma), tuple(dual),
                      special, iota)


class NotEquivariant(AfzpError):
    """extend_hom was given a hom that fails validation."""


class ExtendedHom:
    """Coefficient-wise extension of an equivariant hom to the crossed
    products, exposed in identified matrix coordinates."""

    def __init__(self, hom, cpA, cpB):
        self.hom = hom
        self.cpA = cpA
        self.cpB = cpB

    def apply(self, mats):
        """Identified-A coordinates in, identified-B coordinates out."""
        ce = self.cpA.unidentify(mats)
        return self.cpB.identify(CrossedElement(
            [list(apply_hom(self.hom, a)) for a in ce.coeffs]))


def extend_hom(h, cpA, cpB):
    """Natural extension of an equivariant hom to the crossed products;
    the hom is validated first."""
    if not (cpA.source.same_shape(h.source)
            and cpB.source.same_shape(h.target)):
        raise ShapeMismatch("crossed presentations do not match the hom")
    rep = hom_validate(h)
    if not rep.ok:
        raise NotEquivariant("hom fails validation:\n" + rep.summary())
    return ExtendedHom(h, cpA, cpB)


def roundtrip_induced(h):
    """Oracle for induced_map, without validating h: F from the traces of
    psi(E_00) per source block, phi from the traces of the extension of h
    to the crossed products, applied to a minimal projection of every
    crossed block through unidentify, h coefficient-wise and identify."""
    src, tgt = h.source, h.target
    images = [apply_hom(h, unit_tuple(src.ctx, src.block_sizes, s, 0, 0))
              for s in range(src.m)]
    F = [[_multiplicity(images[s][t], "trace of block %d -> %d" % (s, t))
          for s in range(src.m)] for t in range(tgt.m)]
    cpA, cpB = crossed_product(src), crossed_product(tgt)
    ext = ExtendedHom(h, cpA, cpB)
    columns = [ext.apply(unit_tuple(src.ctx, cpA.block_sizes, b, 0, 0))
               for b in range(cpA.m)]
    phi = [[_multiplicity(col[r], "crossed trace of block %d -> %d"
                          % (b, r)) for b, col in enumerate(columns)]
           for r in range(cpB.m)]
    return KPair(F, phi, unital=h.unital)


def corner_inclusion(h, tgt):
    """The non-unital hom h followed by the inclusion of its target, a
    corner form of tgt, into tgt: each block of tgt holds the corner's
    block and then a zero gap. The corner has tgt's pieces in order,
    each no larger, with a fixed piece's exponents a sub-multiset of
    tgt's. Corner coordinate i of a block goes to the first free
    position of tgt's block with the same exponent, and the gap to the
    rest in order, so the inclusion commutes with the actions."""
    ctx, corner = tgt.ctx, h.target
    arrs = []
    for t, (arr, n) in enumerate(zip(h.arrangements, tgt.block_sizes)):
        exps, free = tgt.block_exps[t] or [0] * n, set(range(n))
        images = []
        for e in corner.block_exps[t] or [0] * corner.block_sizes[t]:
            images.append(min(i for i in free if exps[i] == e))
            free.discard(images[-1])
        gap = n - len(images)
        images += sorted(free)
        conj = Mat.permutation(ctx, images) * blockdiag(
            ctx, [arr.conj, Mat.identity(ctx, gap)])
        arrs.append(Arrangement(list(arr.slots) + [Slot(None, gap)] * (
            gap > 0), conj))
    return EqHom(h.source, tgt, arrs, unital=False)


class CaseShapeViolation(Exception):
    """A sub-block of (F, phi) lacks the shape equivariance forces."""


def _slice(mat, rows, cols):
    return [[mat[r][c] for c in cols] for r in rows]


def checked_case_params(kp, srcC, tgtC):
    """The plans classify.lift reads, each off the first column of its
    sub-block of the pair, keyed by (source piece, target piece): slices
    (F, phi) along piece boundaries and checks the shape equivariance
    forces on every sub-block (circulant fixed->fixed phi and
    cycle->cycle F, constant fixed->cycle and cycle->fixed F lines with
    the matching phi lines, and their sums) before reading each plan.
    Raises CaseShapeViolation naming the sub-block."""
    p = srcC.p
    srcK = crossed_offsets(srcC)
    tgtK = crossed_offsets(tgtC)
    plans = {}
    for ti, tp in enumerate(tgtC.pieces):
        for si, sp in enumerate(srcC.pieces):
            frows = range(tgtC.piece_offsets[ti],
                          tgtC.piece_offsets[ti] + tp.block_count(p))
            fcols = range(srcC.piece_offsets[si],
                          srcC.piece_offsets[si] + sp.block_count(p))
            prows = range(tgtK[ti], tgtK[ti + 1])
            pcols = range(srcK[si], srcK[si + 1])
            fsub = _slice(kp.F, frows, fcols)
            psub = _slice(kp.phi, prows, pcols)
            tag = ("F" if sp.kind == "fixed" else "C") + \
                  ("F" if tp.kind == "fixed" else "C")
            where = "source piece %d -> target piece %d" % (si, ti)
            if tag == "FF":
                lam = [psub[d][0] for d in range(p)]
                for r in range(p):
                    for c in range(p):
                        if psub[r][c] != lam[(r - c) % p]:
                            raise CaseShapeViolation(
                                "phi sub-block not circulant at %s" % where)
                if sum(lam) != fsub[0][0]:
                    raise CaseShapeViolation(
                        "phi row sum differs from F entry at %s" % where)
                plans[(si, ti)] = ("FF", lam)
            elif tag == "FC":
                cval = fsub[0][0]
                if any(fsub[r][0] != cval for r in range(p)):
                    raise CaseShapeViolation(
                        "F sub-block not a constant column at %s" % where)
                if any(psub[0][c] != cval for c in range(p)):
                    raise CaseShapeViolation(
                        "phi sub-block not the matching constant row at %s"
                        % where)
                plans[(si, ti)] = ("FC", cval)
            elif tag == "CF":
                cval = fsub[0][0]
                if any(fsub[0][c] != cval for c in range(p)):
                    raise CaseShapeViolation(
                        "F sub-block not a constant row at %s" % where)
                if any(psub[r][0] != cval for r in range(p)):
                    raise CaseShapeViolation(
                        "phi sub-block not the matching constant column at %s"
                        % where)
                plans[(si, ti)] = ("CF", cval)
            else:
                fvec = [fsub[d][0] for d in range(p)]
                for r in range(p):
                    for c in range(p):
                        if fsub[r][c] != fvec[(r - c) % p]:
                            raise CaseShapeViolation(
                                "F sub-block not circulant at %s" % where)
                if psub[0][0] != sum(fvec):
                    raise CaseShapeViolation(
                        "phi entry differs from F row sum at %s" % where)
                plans[(si, ti)] = ("CC", fvec)
    return plans


@pytest.fixture
def rng():
    return random.Random(20240901)


class Inconsistent(Exception):
    """The linear system has no solution."""


def _rref(rows, width):
    """In-place reduced row echelon form; returns pivot column list.

    Pivot selection is the first nonzero entry scanning columns left to
    right and rows top to bottom, fractions cleared pairwise, so the
    output is deterministic.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(width):
        pr = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        pinv = piv.inv()
        rows[r] = [e * pinv for e in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def solve(system, rhs):
    """Solve system * x = rhs exactly, by Gaussian elimination.

    Returns (particular, null_basis) where particular is a cols x k Mat
    (k = rhs.cols) and null_basis is a list of cols x 1 Mats spanning the
    kernel. Raises Inconsistent when no solution exists. The oracle of
    the intertwiner-space membership check in test_classify.
    """
    ctx = system.ctx
    if system.rows != rhs.rows:
        raise ShapeMismatch("rhs has %d rows, system has %d"
                            % (rhs.rows, system.rows))
    n = system.cols
    k = rhs.cols
    aug = [system.entries[i][:] + rhs.entries[i][:]
           for i in range(system.rows)]
    pivots = _rref(aug, n)
    rank = len(pivots)
    for i in range(rank, len(aug)):
        if any(not aug[i][n + j].is_zero() for j in range(k)):
            raise Inconsistent("system has no solution")
    zero = ctx.zero
    part = zero_grid(ctx, n, k)
    for r, c in enumerate(pivots):
        for j in range(k):
            part[c][j] = aug[r][n + j]
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        vec = zero_grid(ctx, n, 1)
        vec[free][0] = ctx.one
        for r, c in enumerate(pivots):
            vec[c][0] = zero - aug[r][free]
        basis.append(grid_mat(ctx, n, 1, vec))
    return grid_mat(ctx, n, k, part), basis


def vec_row_major(M):
    """Flatten to an (rows*cols) x 1 column, row-major."""
    out = zero_grid(M.ctx, M.rows * M.cols, 1)
    for i in range(M.rows):
        for j in range(M.cols):
            out[i * M.cols + j][0] = M.entries[i][j]
    return grid_mat(M.ctx, M.rows * M.cols, 1, out)


def _slot_positions(h, t):
    """Offsets of each slot inside target block t's content coordinates."""
    offs = []
    pos = 0
    for slot in h.arrangements[t].slots:
        offs.append(pos)
        pos += slot.size
    return offs


def _corner_isometry(h, t, blocks, interleave=False):
    """Columns of the block-t conjugator at the slots whose source block
    lies in `blocks`, in a canonical order: ascending source block, then
    occurrence order. With interleave=True the order is occurrence-major
    (occurrence 0 of every block, then occurrence 1, ...), the bundle
    layout the packer uses for cycle pieces."""
    ctx = h.source.ctx
    arr = h.arrangements[t]
    offs = _slot_positions(h, t)
    per_block = {b: [] for b in blocks}
    for idx, slot in enumerate(arr.slots):
        if slot.src in per_block:
            per_block[slot.src].append((offs[idx], slot.size))
    ordered = sorted(per_block)
    chosen = []
    if interleave:
        depth = max((len(v) for v in per_block.values()), default=0)
        for b_idx in range(depth):
            for b in ordered:
                if b_idx < len(per_block[b]):
                    chosen.append(per_block[b][b_idx])
    else:
        for b in ordered:
            chosen.extend(per_block[b])
    width = sum(size for _, size in chosen)
    n = h.target.block_sizes[t]
    X = zero_grid(ctx, n, width)
    col = 0
    for off, size in chosen:
        for j in range(size):
            for i in range(n):
                X[i][col] = arr.conj.entries[i][off + j]
            col += 1
    return grid_mat(ctx, n, width, X)


def _pattern_extract(mat, copies, k):
    """Interpret a (copies*k) square matrix as Bhat  x  I_k in copy-major
    layout (entry ((c,i),(c',i')) = Bhat[c][c'] delta_{ii'}). Returns Bhat
    or None if the pattern fails."""
    slots = [(0, k)] * copies
    if _pattern_defect(mat, slots, slots) is not None:
        return None
    return grid_mat(mat.ctx, copies, copies,
                    [[mat.entries[c * k][cc * k] for cc in range(copies)]
                     for c in range(copies)])


def _expand_pattern(bhat, k):
    ctx = bhat.ctx
    copies = bhat.rows
    out = zero_grid(ctx, copies * k)
    for c in range(copies):
        for cc in range(copies):
            v = bhat.entries[c][cc]
            if v.is_zero():
                continue
            for i in range(k):
                out[c * k + i][cc * k + i] = v
    return grid_mat(ctx, copies * k, copies * k, out)


def corner_equiv_unitary(h1, h2):
    """Oracle for classify.equiv_unitary: the same W and witness, built
    from corner isometries (the columns of each conjugator at the slots
    of one source piece) instead of slot coordinates."""
    if not (h1.source.same_shape(h2.source)
            and h1.target.same_shape(h2.target)):
        raise KDataMismatch("homs do not share source and target")
    kp1 = induced_map(h1)
    kp2 = induced_map(h2)
    if kp1.F != kp2.F or kp1.phi != kp2.phi:
        raise KDataMismatch("induced invariant morphisms differ",
                            left=(kp1.F, kp1.phi), right=(kp2.F, kp2.phi))
    if not (h1.unital and h2.unital):
        raise KDataMismatch("equivariant correction implemented for unital "
                            "homs only")
    src, tgt = h1.source, h1.target
    ctx = src.ctx
    p = src.p
    witness = UniquenessWitness()
    W = [None] * tgt.m
    for ti, tp in enumerate(tgt.pieces):
        toff = tgt.piece_offsets[ti]
        if tp.kind == "fixed":
            n = tp.n
            V = tp.v
            wt = Mat.zero(ctx, n, n)
            for si, sp in enumerate(src.pieces):
                soff = src.piece_offsets[si]
                blocks = range(soff, soff + sp.block_count(p))
                bundles = sp.kind == "cycle"
                X1 = _corner_isometry(h1, toff, blocks, interleave=bundles)
                X2 = _corner_isometry(h2, toff, blocks, interleave=bundles)
                if X1.cols == 0:
                    continue
                K1 = X1.dagger() * V * X1
                K2 = X2.dagger() * V * X2
                if sp.kind == "fixed":
                    k = sp.n
                    copies = X1.cols // k
                    ubig = blockdiag(ctx, [sp.v] * copies)
                    L1 = K1 * ubig.dagger()
                    L2 = K2 * ubig.dagger()
                    L1h = _pattern_extract(L1, copies, k)
                    L2h = _pattern_extract(L2, copies, k)
                    if L1h is None or L2h is None:
                        raise UnitaryNotFoundInField(
                            "commutant element leaves the copy pattern; "
                            "hom is not of product type")
                    Z = unitary_conjugator(L1h, L2h, p)
                    G = _expand_pattern(Z, k)
                    wt = wt + X1 * G * X2.dagger()
                    witness.entries.append(
                        WitnessEntry(ti, si, "FF", L=L1h, N=L2h, Z=Z))
                else:
                    k = sp.n
                    c = X1.cols // (p * k)
                    A1 = _cycle_corner_blocks(K1, p, c, k)
                    A2 = _cycle_corner_blocks(K2, p, c, k)
                    if A1 is None or A2 is None:
                        raise UnitaryNotFoundInField(
                            "crossing blocks leave the bundle pattern")
                    # telescoping: G_0 = I, G_j = A1_j G_{j-1} A2_j^dagger
                    Gj = [Mat.identity(ctx, c)]
                    for j in range(1, p):
                        Gj.append(A1[j] * Gj[j - 1] * A2[j].dagger())
                    closure = A1[0] * Gj[p - 1] * A2[0].dagger()
                    if closure != Gj[0]:
                        raise CorrectionFailed(
                            (ti, si), "cycle telescoping does not close")
                    G = zero_grid(ctx, p * c * k)
                    for j in range(p):
                        for b in range(c):
                            for bb in range(c):
                                v = Gj[j].entries[b][bb]
                                if v.is_zero():
                                    continue
                                for w in range(k):
                                    G[_bjw(b, j, w, p, k)][
                                        _bjw(bb, j, w, p, k)] = v
                    G = grid_mat(ctx, p * c * k, p * c * k, G)
                    wt = wt + X1 * G * X2.dagger()
                    witness.entries.append(
                        WitnessEntry(ti, si, "CF", L=A1, N=A2, Z=Gj))
            W[toff] = wt
        else:
            X1 = _corner_isometry(h1, toff, range(src.m))
            X2 = _corner_isometry(h2, toff, range(src.m))
            w0 = X1 * X2.dagger()
            for r in range(p):
                W[toff + r] = w0
            witness.entries.append(WitnessEntry(ti, -1, "cycle-target", Z=w0))
    # exact re-verification before anything is returned
    for t in range(tgt.m):
        if not W[t].is_unitary():
            raise CorrectionFailed(t, "corner sum is not unitary")
    for ti, tp in enumerate(tgt.pieces):
        toff = tgt.piece_offsets[ti]
        if tp.kind == "fixed":
            if W[toff] * tp.v != tp.v * W[toff]:
                raise CorrectionFailed(ti, "W does not commute with the "
                                           "implementing unitary")
    corrected = conjugate_hom(W, h2)
    if not equal_as_maps(corrected, h1):
        raise CorrectionFailed("*", "Ad W o h2 differs from h1")
    witness.W = W
    return W, witness


def _bjw(b, j, w, p, k):
    """Position of (bundle b, cycle component j, inner index w) in the
    bundle-major content layout used by the packer."""
    return b * p * k + j * k + w


def _cycle_corner_blocks(K, p, c, k):
    """Extract the c x c bundle matrices A_j (scalar x I_k pattern) from
    K, where K maps the (j-1)-component group into the j-component group;
    None if K has support outside those corners or breaks the pattern."""
    ctx = K.ctx
    A = []
    for j in range(p):
        blk = zero_grid(ctx, c)
        A.append(blk)
    for b in range(c):
        for j in range(p):
            for w in range(k):
                row = _bjw(b, j, w, p, k)
                for bb in range(c):
                    for jj in range(p):
                        for ww in range(k):
                            col = _bjw(bb, jj, ww, p, k)
                            e = K.entries[row][col]
                            if jj == (j - 1) % p and ww == w:
                                if w == 0:
                                    A[j][b][bb] = e
                                elif A[j][b][bb] != e:
                                    return None
                            elif not e.is_zero():
                                return None
    return [grid_mat(ctx, c, c, blk) for blk in A]


def checked_conjugator(fn, L1, L2, p):
    """fn(L1, L2, p), checked exactly: a unitary Z with L1 Z = Z L2."""
    Z = fn(L1, L2, p)
    assert Z.is_unitary() and L1 * Z == Z * L2
    return Z


# -- the retired conjugator constructions ------------------------------------
# matrix.unitary_conjugator replaced a three-way search in
# classify.equiv_unitary, and matrix.diagonalizer, which pairs eigenspaces
# the same way, a monomial diagonalizer in system.decompose. Both stay
# here as oracles for them.


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


def unitary_conjugator_search(L1, L2, p):
    """Unitary Z with L1 Z = Z L2 for order-p unitaries in the copy
    pattern. Diagonal pairs are matched by permutation; otherwise the
    character-projection average is tried (rescaled into a unitary when
    a field scalar of the right norm exists), then a bounded search over
    root-of-unity scaled permutations. Failure raises
    UnitaryNotFoundInField."""
    ctx = L1.ctx
    if L1.is_diagonal() and L2.is_diagonal():
        return match_diagonals(L1, L2, p)
    f = L1.rows
    try:
        s1 = spectral(L1, p)
        s2 = spectral(L2, p)
    except NotOrderP:
        s1 = s2 = None
    if s1 is not None:
        z0 = Mat.zero(ctx, f, f)
        for d in range(p):
            z0 = z0 + s1[d] * s2[d]
        gram = (z0.dagger() * z0).is_scalar()
        if gram is not None and not gram.is_zero():
            candidates = []
            for row in z0.entries:
                for e in row:
                    if not e.is_zero():
                        candidates.append(e)
                        candidates.append(e * ctx.sqrt_group_order())
            for s in candidates:
                if s.conj() * s == gram:
                    z = z0 * s.inv()
                    if z.is_unitary() and L1 * z == z * L2:
                        return z
    if f > 6:
        raise UnitaryNotFoundInField(
            "non-diagonal commutant elements of size %d exceed the "
            "generalized-permutation search bound" % f)
    roots = [ctx.zeta_p(k) for k in range(p)]
    for perm in itertools.permutations(range(f)):
        base = Mat.permutation(ctx, list(perm))
        for phases in itertools.product(range(p), repeat=f):
            z = base * Mat.diag(ctx, [roots[q] for q in phases])
            if L1 * z == z * L2:
                return z
    raise UnitaryNotFoundInField(
        "no field unitary intertwining the commutant elements was found")


def sort_conjugator(ctx, exps):
    """Permutation Z with Z * diag(exps) * Z^dagger sorted ascending."""
    order = sorted(range(len(exps)), key=lambda i: (exps[i], i))
    images = [0] * len(exps)
    for t, src in enumerate(order):
        images[src] = t
    return Mat.permutation(ctx, images), [exps[i] for i in order]


def _monomial_structure(u):
    """(perm, phases) with u e_j = phases[j] e_{perm[j]}, or None."""
    n = u.rows
    perm = [None] * n
    phases = [None] * n
    for j in range(n):
        hits = [i for i in range(n) if not u.entries[i][j].is_zero()]
        if len(hits) != 1:
            return None
        perm[j] = hits[0]
        phases[j] = u.entries[hits[0]][j]
    if sorted(perm) != list(range(n)):
        return None
    return perm, phases


def _diagonalize_order_p_monomial(u, p):
    """Unitary Z with Z u Z^dagger diagonal, for monomial u with u^p = I.

    Permutation cycles of length p are rotated into eigenvectors with a
    discrete Fourier combination; the 1/sqrt(p) normalizer is the Gauss
    element, so everything stays in the field.
    """
    ctx = u.ctx
    n = u.rows
    ms = _monomial_structure(u)
    if ms is None:
        raise NonDiagonalizableWithinField(
            "implementing unitary is not monomial; re-present the input "
            "with a diagonal or monomial unitary")
    perm, phases = ms
    cols = zero_grid(ctx, n)      # columns are the new basis vectors
    diag = [None] * n
    seen = set()
    slot = 0
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        if len(cycle) == 1:
            cols[start][slot] = ctx.one
            diag[slot] = phases[start]
            slot += 1
            continue
        if len(cycle) != p:
            raise NonDiagonalizableWithinField(
                "monomial cycle of length %d in an order-%d unitary"
                % (len(cycle), p))
        # balance phases: f_t = gamma_t e_{cycle[t]} with u f_t = f_{t+1}
        gammas = [ctx.one]
        for t in range(p - 1):
            gammas.append(gammas[-1] * phases[cycle[t]])
        ginv = ctx.sqrt_group_order().inv()
        for m_eig in range(p):
            for t in range(p):
                cols[cycle[t]][slot] = (
                    gammas[t] * ctx.zeta_p(-t * m_eig) * ginv)
            diag[slot] = ctx.zeta_p(m_eig)
            slot += 1
    # u * col_k = diag[k] * col_k; so cols^dagger * u * cols is diagonal
    z = grid_mat(ctx, n, n, cols).dagger()
    return z, Mat.diag(ctx, diag)


def monomial_diagonalizer(v, p):
    """Oracle for decompose's diagonalizer(v, p) on a diagonal or
    monomial fixed block v: the ascending exponents, and v's
    diagonalizer (the identity when v is diagonal) followed by the
    permutation sorting the diagonal."""
    if v.is_diagonal():
        z0, diag = Mat.identity(v.ctx, v.rows), v
    else:
        z0, diag = _diagonalize_order_p_monomial(v, p)
    zs, exps = sort_conjugator(v.ctx, diag_root_exponents(diag, p))
    return exps, zs * z0


def direct_sum(a, b):
    """The block-diagonal matrix a (+) b."""
    out = zero_grid(a.ctx, a.rows + b.rows, a.cols + b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[i][j] = a.entries[i][j]
    for i in range(b.rows):
        for j in range(b.cols):
            out[a.rows + i][a.cols + j] = b.entries[i][j]
    return grid_mat(a.ctx, a.rows + b.rows, a.cols + b.cols, out)


def ieye(n):
    """The n x n integer identity matrix."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# -- the format-1 and format-2 writers ----------------------------------------
# The library reads and writes format 3 only. These are the old format-1
# writer, without its memos, and the format-2 writer, both without the
# slot phase that format 3 dropped: the byte oracles for the pinned
# format-1 and format-2 digests, the comparer of loaded values that ==
# cannot compare (a crossed presentation), and the source of the
# format-1 and format-2 files the tests check are refused.


def scalar_json(s):
    """The format-1 scalar object {"order": N, "coeffs": d strings "a/b"},
    each coefficient in lowest terms and "/b" omitted when b is 1."""
    den = s.den
    coeffs = []
    for x in s.num:
        g = math.gcd(x, den)
        coeffs.append(str(x // g) if g == den
                      else "%d/%d" % (x // g, den // g))
    return {"order": s.ctx.order, "coeffs": coeffs}


def scalar_text_by_coefficients(s):
    """Oracle for serialize._scalar_text: the format-2 text of s from all
    d numerators, one gcd per nonzero term."""
    den = s.den
    terms = []
    for e, x in enumerate(s.num):
        if x:
            g = math.gcd(x, den)
            terms.append("%d:%d" % (e, x // g) if g == den
                         else "%d:%d/%d" % (e, x // g, den // g))
    return " ".join(terms)


def mat_json(m):
    """The format-1 dense matrix object."""
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_json(e) for e in row] for row in m.entries]}


def dump_format1(obj):
    """The format-1 document of obj: every nested document is complete
    and written again wherever it occurs."""
    doc = {"afzp_format": 1}
    if isinstance(obj, FdSystem):
        doc.update(kind="system", p=obj.p, order=obj.ctx.order,
                   blocks=list(obj.block_sizes),
                   sigma=[i + 1 for i in obj.sigma],
                   impl=[mat_json(u) for u in obj.impl])
    elif isinstance(obj, CanonicalForm):
        doc.update(kind="canonical", p=obj.p, order=obj.ctx.order, pieces=[
            {"kind": pc.kind, "n": pc.n,
             **({"v": mat_json(pc.v)} if pc.kind == "fixed" else {})}
            for pc in obj.pieces])
        if obj.iso is not None:
            doc["iso"] = {"block_map": list(obj.iso.block_map),
                          "conjugators": [mat_json(z)
                                          for z in obj.iso.conjugators]}
    elif isinstance(obj, EqHom):
        doc.update(kind="hom", source=dump_format1(obj.source),
                   target=dump_format1(obj.target), unital=obj.unital,
                   blocks=[{"slots": [{"src": s.src, "size": s.size}
                                      for s in arr.slots],
                            "conj": mat_json(arr.conj)}
                           for arr in obj.arrangements])
    elif isinstance(obj, CrossedPresentation):
        doc.update(kind="crossed", p=obj.p, order=obj.ctx.order,
                   source=dump_format1(obj.source),
                   blocks=list(obj.block_sizes), special=list(obj.special),
                   iota=[row[:] for row in obj.iota_matrix],
                   dual=dump_format1(obj.dual_system()),
                   identify=mat_json(obj.identify_matrix()))
    elif isinstance(obj, KInvariant):
        doc.update(kind="kinvariant", m=obj.m, unit=list(obj.unit),
                   act=_perm_matrix(obj.act), mC=obj.mC,
                   dualAct=_perm_matrix(obj.dualAct),
                   special=list(obj.special), iota=obj.iota)
    elif isinstance(obj, KPair):
        doc.update(kind="kpair", F=obj.F, phi=obj.phi, unital=obj.unital)
    elif isinstance(obj, Tower):
        doc.update(kind="tower",
                   systems=[dump_format1(s) for s in obj.systems],
                   maps=[dump_format1(h) for h in obj.maps])
    elif isinstance(obj, IntertwiningCertificate):
        doc.update(kind="certificate", towerA=dump_format1(obj.towerA),
                   towerB=dump_format1(obj.towerB),
                   a_stages=list(obj.a_stages), b_stages=list(obj.b_stages),
                   pairs=[dump_format1(kp) for kp in obj.pairs],
                   forward=[dump_format1(h) for h in obj.forward],
                   backward=[dump_format1(h) for h in obj.backward],
                   triangles=[{"kind": t.kind, "left": t.left_stage,
                               "right": t.right_stage,
                               "correction": [mat_json(w)
                                              for w in t.correction]}
                              for t in obj.triangles])
    elif isinstance(obj, Report):
        doc.update(kind="report", **obj.to_json())
    else:
        assert isinstance(obj, list) and obj and all(
            isinstance(w, Mat) for w in obj), type(obj)
        doc.update(kind="unitaries", p=obj[0].ctx.p, order=obj[0].ctx.order,
                   W=[mat_json(w) for w in obj])
    return doc


def dumps_format1(obj):
    """The format-1 text of obj, as the library wrote it up to format 2."""
    return json.dumps(dump_format1(obj), indent=2, sort_keys=True)


class _Format2Writer(serialize._Writer):
    """The format-2 bodies: a fixed piece's V as a matrix, sigma 1-based,
    act and dualAct as 0/1 matrices with their sizes m and mC. Matrices,
    scalars and objects are written as in format 3."""

    def body(self, obj):
        if isinstance(obj, FdSystem):
            self.field(obj.ctx)
            return {"kind": "system", "blocks": list(obj.block_sizes),
                    "sigma": [i + 1 for i in obj.sigma],
                    "impl": [self.mat(u) for u in obj.impl]}
        if isinstance(obj, CanonicalForm):
            doc = super().body(obj)
            for pc, out in zip(obj.pieces, doc["pieces"]):
                if out.pop("exponents", None) is not None:
                    out["v"] = self.mat(pc.v)
            return doc
        if isinstance(obj, KInvariant):
            return {"kind": "kinvariant", "m": obj.m, "unit": list(obj.unit),
                    "act": _perm_matrix(obj.act), "mC": obj.mC,
                    "dualAct": _perm_matrix(obj.dualAct),
                    "special": list(obj.special),
                    "iota": [list(r) for r in obj.iota]}
        return super().body(obj)


def dump_format2(obj):
    """The format-2 document of obj, as the library wrote it up to format
    3 but for the slot phase."""
    w = _Format2Writer()
    doc = w.body(obj)
    if w.objects:
        doc["objects"] = w.objects
    if w.ctx is not None:
        doc["p"], doc["order"] = w.ctx.p, w.ctx.order
    doc["afzp_format"] = 2
    return doc


def dumps_format2(obj):
    """The format-2 text of obj."""
    return json.dumps(dump_format2(obj), sort_keys=True,
                      separators=(",", ":"))


def slot_shifts(h, t):
    """Per slot of h's target block t, the eigenvalue shift d that routes
    it: its first column lies in the target's eigenspace of exponent
    e + d (mod p), e the source's first exponent, read at the column's
    first nonzero row of the conjugator. 0 on a gap or where the source
    or target block is a cycle block."""
    src, tgt, arr = h.source, h.target, h.arrangements[t]
    out, col = [], 0
    for slot in arr.slots:
        d = 0
        if slot.src is not None and src.block_exps[slot.src] \
                and tgt.block_exps[t]:
            row = next(i for i, cols in enumerate(arr.conj.nz) if col in cols)
            d = (tgt.block_exps[t][row] - src.block_exps[slot.src][0]) \
                % src.p
        out.append(d)
        col += slot.size
    return out


# -- the crossed layout and the element algebra --------------------------------
# What the library computed or offered before each canonical form recorded
# its crossed layout, and the element-level operations that no command
# calls: the oracles for CanonicalForm.crossed_offsets and block_exps,
# and for the special element, iota_matrix, dual_system and decompose.


def crossed_offsets(c):
    """Crossed blocks of each piece of c: piece i owns blocks
    offs[i] <= b < offs[i + 1] (p per fixed piece, one per cycle piece),
    and offs[-1] is the crossed block count."""
    offs = [0]
    for piece in c.pieces:
        offs.append(offs[-1] + (c.p if piece.kind == "fixed" else 1))
    return offs


def block_exponents(c, t):
    """e with block t of c implemented by diag(zeta_p^e): its fixed
    piece's exponents, or zeros on a cycle block, the piece found by
    bisecting the piece offsets."""
    i = bisect_right(c.piece_offsets, t) - 1
    return c.piece_exponents[i] or [0] * c.block_sizes[t]


def form_system(c):
    """The canonical form c as an explicit FdSystem."""
    impl = [Mat.identity(c.ctx, n) for n in c.block_sizes]
    for piece, off in zip(c.pieces, c.piece_offsets):
        if piece.kind == "fixed":
            impl[off] = piece.v
    return FdSystem(c.ctx, c.p, list(c.block_sizes), tuple(c.sigma), impl)


def system_action(s, a):
    """alpha(a) for a tuple a of per-block matrices of the system s."""
    return [s.impl[i] * a[s.sigma[i]] * s.impl[i].dagger()
            for i in range(s.m)]


class ElementCrossed(CrossedPresentation):
    """A crossed presentation with the element-level operations no
    command calls: the embedding, the canonical unitary, the dual
    generator on coefficients and on identified blocks, and the
    averaging projection."""

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

    def dual_coeff(self, x):
        """Dual generator on coefficients: a_j -> zeta_p^(-j) a_j."""
        out = self.zero_element()
        for j in range(self.p):
            w = self.ctx.zeta_p(-j)
            out.coeffs[j] = [mat * w for mat in x.coeffs[j]]
        return out

    def dual_apply(self, mats):
        """Dual generator on identified blocks."""
        return system_action(self.dual_system(), mats)

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


# -- crossed-product oracles ---------------------------------------------------
# identify, unidentify and CanonicalForm.apply_action as they were before
# they read each fixed piece's exponents: dense products with the powers
# of V, kept as the oracles for the entrywise versions.


class ProductCrossed(ElementCrossed):
    """A crossed presentation whose identify and unidentify multiply by
    the cached powers V^j of each fixed piece's V."""

    def __init__(self, source):
        super().__init__(source)
        self._v_powers = {}

    def _vpow(self, piece_idx, j):
        got = self._v_powers.get((piece_idx, j))
        if got is None:
            v = self.source.pieces[piece_idx].v
            got = mat_power(v, j % self.p)
            self._v_powers[(piece_idx, j)] = got
        return got

    def identify(self, ce):
        """The *-isomorphism onto the direct sum of matrix blocks."""
        p = self.p
        ctx = self.ctx
        out = []
        for idx, piece in enumerate(self.source.pieces):
            sb = self.source.piece_offsets[idx]
            if piece.kind == "fixed":
                for r in range(p):
                    acc = Mat.zero(ctx, piece.n, piece.n)
                    for j in range(p):
                        a = ce.coeffs[j][sb]
                        if a.is_zero():
                            continue
                        acc = acc + (a * self._vpow(idx, j)) * ctx.zeta_p(-r * j)
                    out.append(acc)
            else:
                n = piece.n
                grid = zero_grid(ctx, p * n)
                for r in range(p):
                    comp = (-r) % p
                    for c in range(p):
                        j = (c - r) % p
                        a = ce.coeffs[j][sb + comp]
                        if a.is_zero():
                            continue
                        for i in range(n):
                            for jj in range(n):
                                grid[r * n + i][c * n + jj] = \
                                    a.entries[i][jj]
                out.append(grid_mat(ctx, p * n, p * n, grid))
        return out

    def unidentify(self, mats):
        """Inverse of identify."""
        p = self.p
        ctx = self.ctx
        inv_p = ctx.scalar(1) / ctx.scalar(p)
        ce = self.zero_element()
        offs = crossed_offsets(self.source)
        for idx, piece in enumerate(self.source.pieces):
            cb = offs[idx]
            sb = self.source.piece_offsets[idx]
            if piece.kind == "fixed":
                for j in range(p):
                    acc = Mat.zero(ctx, piece.n, piece.n)
                    for r in range(p):
                        acc = acc + mats[cb + r] * ctx.zeta_p(r * j)
                    ce.coeffs[j][sb] = (acc * inv_p) * self._vpow(idx, -j % p)
            else:
                n = piece.n
                grid = mats[cb]
                for r in range(p):
                    comp = (-r) % p
                    for c in range(p):
                        j = (c - r) % p
                        sub = zero_grid(ctx, n)
                        for i in range(n):
                            for jj in range(n):
                                sub[i][jj] = \
                                    grid.entries[r * n + i][c * n + jj]
                        ce.coeffs[j][sb + comp] = grid_mat(ctx, n, n, sub)
        return ce


def identify_matrix_by_units(cp):
    """CrossedPresentation.identify_matrix as it was before it read the
    exponents: identify applied to every matrix unit of every
    coefficient on a fresh zero element, one column per unit."""
    ctx = cp.ctx
    out = [{} for _ in range(sum(n * n for n in cp.block_sizes))]
    col = 0
    for j in range(cp.p):
        for s, n in enumerate(cp.source.block_sizes):
            for i in range(n):
                for jj in range(n):
                    ce = cp.zero_element()
                    ce.coeffs[j][s] = Mat.from_dicts(
                        ctx, n, [{jj: ctx.one} if r == i else {}
                                 for r in range(n)])
                    at = 0
                    for mtx in cp.identify(ce):
                        for r, (cols, vals) in enumerate(zip(mtx.nz,
                                                             mtx.vals)):
                            for c, v in zip(cols, vals):
                                out[at + r * mtx.cols + c][col] = v
                        at += mtx.rows * mtx.cols
                    col += 1
    return Mat.from_dicts(ctx, col, out)


def _diag_conj(v, a):
    """v * a * v^dagger for diagonal unitary v, in O(n^2) scalar ops."""
    n = a.rows
    d = [v.entries[i][i] for i in range(n)]
    dc = [x.conj() for x in d]
    out = zero_grid(a.ctx, n)
    for i in range(n):
        for j in range(n):
            e = a.entries[i][j]
            if not e.is_zero():
                out[i][j] = d[i] * e * dc[j]
    return grid_mat(a.ctx, n, n, out)


def conj_apply_action(self, a):
    """CanonicalForm.apply_action by conjugation with each fixed piece's
    V (self is the canonical form)."""
    out = list(a)
    for piece, off in zip(self.pieces, self.piece_offsets):
        if piece.kind == "fixed":
            out[off] = _diag_conj(piece.v, a[off])
        else:
            for t in range(self.p):
                out[off + t] = a[off + (t - 1) % self.p]
    return out


# -- dense matrix kernels -----------------------------------------------------
# The dense bodies of Mat's product, adjoint and is_* tests, of blockdiag,
# of the diagonal scaling (now system.root_sum with one term) and of
# system._pattern_defect as they stood before Mat became immutable and
# sparse: they walk every entry of the dense view (Mat.entries) and
# ignore the stored rows, the oracles for the sparse kernels. Writes
# into a Mat became writes into a list grid that builds the Mat once
# (grid_mat).


def dense_mul(self, other):
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
    return grid_mat(self.ctx, self.rows, other.cols, out)


def matmul_by_terms(self, other):
    """Mat._matmul as it summed a row with several nonzeros before
    cyclo.sum_rows: one reduced Scalar per term a_ik b_kj and per partial
    sum, kept in a dict per row. A row with one nonzero is a_ik times row
    k of other, and row k itself when a_ik is one. The oracle of the
    integer kernel."""
    if self.cols != other.rows:
        raise ShapeMismatch("%dx%d times %dx%d"
                            % (self.rows, self.cols,
                               other.rows, other.cols))
    one = self.ctx.one
    bnz, bvals = other.nz, other.vals
    nz, vals = [], []
    for acols, avals in zip(self.nz, self.vals):
        if len(acols) == 1:
            k, aik = acols[0], avals[0]
            nz.append(bnz[k])
            vals.append(bvals[k] if aik is one
                        else tuple([aik * b for b in bvals[k]]))
            continue
        acc = {}
        for k, aik in zip(acols, avals):
            for j, b in zip(bnz[k], bvals[k]):
                x = acc.get(j)
                acc[j] = aik * b if x is None else x + aik * b
        keep = tuple(sorted([j for j, x in acc.items() if x._nonzero]))
        nz.append(keep)
        vals.append(tuple(map(acc.__getitem__, keep)))
    return Mat(self.ctx, self.rows, other.cols, tuple(nz), tuple(vals))


def _lowest_terms(ctx, num, den):
    """The Scalar num/den brought to lowest terms by one gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple([x // g for x in num])
        den //= g
    return _scalar(ctx, num, den)


def mul_by_coefficients(a, b):
    """Scalar.__mul__ as it read the numerators before scalars kept their
    nonzero terms: a rational factor found by num[1:] being zero, b's
    nonzero coefficients listed on every call, all d coefficients of a
    scanned and all d - 1 fold positions walked. The oracle of the
    product over kept terms; a and b are Scalars of one field."""
    ctx = a.ctx
    if not a._nonzero or not b._nonzero:
        return ctx.zero
    an, bn = a.num, b.num
    den = a.den * b.den
    if not any(an[1:]):
        if an[0] == 1 and a.den == 1:
            return b
        out = [an[0] * x for x in bn]
    elif not any(bn[1:]):
        if bn[0] == 1 and b.den == 1:
            return a
        out = [bn[0] * x for x in an]
    else:
        d = ctx.degree
        nz_b = [(j, x) for j, x in enumerate(bn) if x]
        raw = [0] * (2 * d - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in nz_b:
                    raw[i + j] += x * y
        out = raw[:d]
        for c, row in zip(raw[d:], ctx._fold):
            if c:
                for j, r in row:
                    out[j] += c * r
    if den == 1:
        return _scalar(ctx, tuple(out), 1)
    return _lowest_terms(ctx, tuple(out), den)


def conj_by_coefficients(a):
    """Scalar.conj over all d coefficients, the oracle of the conjugate
    over kept terms."""
    num = a.num
    if not any(num[1:]):
        return a
    out = [0] * a.ctx.degree
    for x, row in zip(num, a.ctx._conj):
        if x:
            for k, r in row:
                out[k] += x * r
    return _scalar(a.ctx, tuple(out), a.den)


def sum_rows_by_coefficients(ctx, weights, rows):
    """cyclo.sum_rows before scalars kept their nonzero terms: each
    weight's nonzero coefficients listed per row, every coefficient of
    every value scanned, the running denominator tested by % on every
    term, every column folded over all d - 1 positions and reduced by a
    gcd. The oracle of the kernel over kept terms."""
    d = ctx.degree
    width = 2 * d - 1
    acc = {}
    for a, (cols, vals) in zip(weights, rows):
        a_nz = [(i, x) for i, x in enumerate(a.num) if x]
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
                if den % t:
                    up = t // math.gcd(den, t)
                    raw[:] = [c * up for c in raw]
                    got[1] = den = den * up
                s = den // t
            bn = b.num
            for i, x in a_nz:
                x *= s
                for k, y in enumerate(bn, i):
                    if y:
                        raw[k] += x * y
    out_cols, out_vals = [], []
    for j in sorted(acc):
        raw, den = acc[j]
        out = raw[:d]
        for c, row in zip(raw[d:], ctx._fold):
            if c:
                for k, r in row:
                    out[k] += c * r
        if any(out):
            out_cols.append(j)
            out_vals.append(_lowest_terms(ctx, tuple(out), den))
    return tuple(out_cols), tuple(out_vals)


def dense_dagger(self):
    zero = self.ctx.zero
    out = [[zero] * self.rows for _ in range(self.cols)]
    for i in range(self.rows):
        row = self.entries[i]
        for j in range(self.cols):
            e = row[j]
            if e._nonzero:
                out[j][i] = e.conj()
    return grid_mat(self.ctx, self.cols, self.rows, out)


def gram_products(monkeypatch):
    """Record every Mat product from now on. Returns the list of
    recorded operand pairs and a function counting, over a list of
    matrices x, the recorded products x^dagger * x."""
    seen = []
    matmul = Mat._matmul

    def recording(a, b):
        seen.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "_matmul", recording)

    def count(xs):
        return sum(1 for a, b in seen for x in xs
                   if b is x and a == dense_dagger(x))
    return seen, count


def dense_identity(ctx, n):
    out = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = ctx.one
    return grid_mat(ctx, n, n, out)


def dense_is_unitary(self):
    if self.rows != self.cols:
        return False
    return dense_mul(dense_dagger(self), self) == \
        dense_identity(self.ctx, self.rows)


def dense_is_diagonal(self):
    return all(self.entries[i][j].is_zero()
               for i in range(self.rows) for j in range(self.cols)
               if i != j)


def dense_is_zero(self):
    return all(e.is_zero() for row in self.entries for e in row)


def dense_is_scalar(self):
    if self.rows != self.cols or self.rows == 0:
        return None
    s = self.entries[0][0]
    for i, row in enumerate(self.entries):
        for j, e in enumerate(row):
            if (e != s) if i == j else e._nonzero:
                return None
    return s


def dense_blockdiag(ctx, mats, total=None):
    size = sum(m.rows for m in mats)
    if total is None:
        total = size
    out = zero_grid(ctx, total)
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[off + i][off + j] = m.entries[i][j]
        off += m.rows
    return grid_mat(ctx, total, total, out)


def dense_diag_scaled(left, x, right):
    out = []
    for l, row in zip(left, x.entries):
        out.append(list(row))
        for j, a in enumerate(row):
            if a._nonzero:
                out[-1][j] = l * a * right[j]
    return grid_mat(x.ctx, x.rows, x.cols, out)


def dense_pattern_defect(K, rows, cols):
    col_at = []               # per column: label, index in slot, slot start
    start = 0
    for label, size in cols:
        col_at.extend((label, j, start) for j in range(size))
        start += size
    start = 0
    for lr, size in rows:
        for i in range(size):
            for x, (lc, j, c0) in zip(K.entries[start + i], col_at):
                if lr is None and lc is None:
                    continue
                if lr == lc and i == j:
                    bad = x != K.entries[start][c0]
                else:
                    bad = x._nonzero
                if bad:
                    return (lc if lr is None else lr), i, j
        start += size
    return None


def dense_support(m):
    """The nonzero columns Mat.nz must equal."""
    return tuple(tuple(j for j, e in enumerate(row) if e._nonzero)
                 for row in m.entries)


def dense_values(m):
    """The nonzero values Mat.vals must equal."""
    return tuple(tuple(e for e in row if e._nonzero) for row in m.entries)


def sparse_rows_defect(m):
    """Why m's stored rows are not its canonical sparse form, or None:
    every row's columns strictly ascend inside the shape, its values
    are nonzero and parallel to them, and from_rows of the dense view
    gives m back."""
    if len(m.nz) != m.rows or len(m.vals) != m.rows:
        return "%d column rows and %d value rows for %d rows" \
            % (len(m.nz), len(m.vals), m.rows)
    for i, (cols, vals) in enumerate(zip(m.nz, m.vals)):
        if not (isinstance(cols, tuple) and isinstance(vals, tuple)):
            return "row %d is not stored as tuples" % i
        if len(cols) != len(vals):
            return "row %d has %d columns and %d values" \
                % (i, len(cols), len(vals))
        if list(cols) != sorted(set(cols)) or \
                any(not 0 <= j < m.cols for j in cols):
            return "row %d columns %s" % (i, cols)
        if not all(v._nonzero for v in vals):
            return "row %d stores a zero" % i
    if m.rows and Mat.from_rows(m.ctx, m.entries) != m:
        return "from_rows of the entries differs"
    return None


# -- Mat arithmetic that no caller in afzp uses ------------------------------


def mat_kron(a, b):
    """Kronecker product a (x) b."""
    ctx = a.ctx
    out = zero_grid(ctx, a.rows * b.rows, a.cols * b.cols)
    for i, (acols, avals) in enumerate(zip(a.nz, a.vals)):
        for j, x in zip(acols, avals):
            for k, (bcols, bvals) in enumerate(zip(b.nz, b.vals)):
                orow = out[i * b.rows + k]
                for l, y in zip(bcols, bvals):
                    orow[j * b.cols + l] = x * y
    return grid_mat(ctx, a.rows * b.rows, a.cols * b.cols, out)


def mat_neg(m):
    return m * -1


def mat_sub(a, b):
    return a + mat_neg(b)


def mat_power(m, n):
    """m^n for a square m and n >= 0, as n products."""
    out = Mat.identity(m.ctx, m.rows)
    for _ in range(n):
        out = out * m
    return out


ORACLE_FIELDS = [(p, order) for p in (2, 3, 5)
                 for order in (p, p * p, 4 * p * p)]


def oracle_scalar(ctx, rng, few_terms=False):
    """A nonzero scalar from a small pool (signed roots of unity, some
    scaled by 2 or 1/3), so that sums of products often cancel. With
    few_terms, since the kernels walk nonzero terms, one draw in five is
    as sparse as a value gets: a rational, or one power z^j below z^d.
    Without it the draws are those the pinned product bytes were taken
    on."""
    if few_terms and rng.random() < 0.2:
        scale = rng.choice((1, -1, 2, RAT(1, 3)))
        return ctx.scalar(scale) if rng.random() < 0.5 \
            else ctx.root(rng.randrange(ctx.degree)) * scale
    x = ctx.root(rng.randrange(ctx.order)) * rng.choice((1, -1, 2, RAT(1, 3)))
    y = x + ctx.root(rng.randrange(4))
    return y if rng.random() < 0.2 and y._nonzero else x


def oracle_matrix(ctx, rng, rows, cols, kind, few_terms=False):
    """A rows x cols Mat of one kind: "monomial" (at most one nonzero
    per row and per column), "sparse" (each entry nonzero with
    probability 1/4), "dense" (every entry drawn, cancellations may
    leave zeros) or "unitary" (square: a signed permutation times
    root-of-unity phases, with the rational rotation [[3, -4], [4, 3]] / 5
    on its first two coordinates when rows >= 2 and rng says so). The
    entries other than a unitary's are oracle_scalar draws, with
    few_terms."""
    grid = zero_grid(ctx, rows, cols)
    if kind in ("monomial", "unitary"):
        colset = list(range(cols))
        rng.shuffle(colset)
        for i, j in zip(range(rows), colset):
            grid[i][j] = ctx.root(rng.randrange(ctx.order)) \
                if kind == "unitary" else oracle_scalar(ctx, rng, few_terms)
        m = grid_mat(ctx, rows, cols, grid)
        if kind == "unitary" and rows >= 2 and rng.random() < 0.5:
            r = [[ctx.scalar(RAT(x, 5)) for x in row]
                 for row in ((3, -4), (4, 3))]
            m = blockdiag(ctx, [grid_mat(ctx, 2, 2, r),
                                Mat.identity(ctx, rows - 2)]) * m
        return m
    for row in grid:
        for j in range(cols):
            if kind == "dense" or rng.random() < 0.25:
                x = oracle_scalar(ctx, rng, few_terms)
                row[j] = x - ctx.root(rng.randrange(2)) \
                    if rng.random() < 0.1 else x
    return grid_mat(ctx, rows, cols, grid)


def corrupt_entry(m, rng):
    """m with one entry changed: set to zero, moved off by one, or
    replaced by a root of unity."""
    if not (m.rows and m.cols):
        return m
    grid = [list(row) for row in m.entries]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    ctx = m.ctx
    grid[i][j] = rng.choice([ctx.zero, grid[i][j] + ctx.one,
                             ctx.root(1 + rng.randrange(ctx.order - 1))])
    return grid_mat(ctx, m.rows, m.cols, grid)
