"""The classification invariant as plain integer-matrix data.

For a canonical form the invariant consists of: the ordered group data
of the algebra (block count, unit vector, action permutation), the same
data for the crossed product (dual action permutation, special element)
and the integer matrix of the canonical embedding on classes. Morphisms
of invariants are pairs (F, phi) of nonnegative integer matrices.
"""

from dataclasses import dataclass

from .errors import NonIntegralMultiplicity, ShapeMismatch
from .matrix import Mat
from .system import unit_tuple
from .report import Report
from .crossed import crossed_product, extend_hom
from ._rat import is_integer

__all__ = ["KInvariant", "KPair", "invariant_of", "induced_map",
           "check_pair", "compose_pairs"]


def imat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    return [[sum(a[i][k] * b[k][j] for k in range(inner))
             for j in range(cols)] for i in range(rows)]


def ivec_mul(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def ieye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass
class KInvariant:
    m: int
    unit: list
    act: list            # m x m permutation matrix of the action on classes
    mC: int
    dualAct: list        # mC x mC permutation matrix of the dual action
    special: list
    iota: list           # mC x m embedding matrix

    def __eq__(self, other):
        return (isinstance(other, KInvariant)
                and (self.m, self.unit, self.act, self.mC, self.dualAct,
                     self.special, self.iota)
                == (other.m, other.unit, other.act, other.mC, other.dualAct,
                    other.special, other.iota))


@dataclass
class KPair:
    F: list
    phi: list
    unital: bool = True

    def __eq__(self, other):
        return (isinstance(other, KPair) and self.F == other.F
                and self.phi == other.phi and self.unital == other.unital)


def invariant_of(c):
    """Assemble the invariant of a canonical form, piece by piece."""
    p = c.p
    m = c.m
    unit = list(c.block_sizes)
    # action permutation on classes: block t receives block sigma(t)
    act = [[0] * m for _ in range(m)]
    for piece, off in zip(c.pieces, c.piece_offsets):
        if piece.kind == "fixed":
            act[off][off] = 1
        else:
            for t in range(p):
                act[off + t][off + (t - 1) % p] = 1
    cp = crossed_product(c)
    mC = cp.m
    dual = [[0] * mC for _ in range(mC)]
    for idx, piece in enumerate(c.pieces):
        cb = cp.piece_first_block[idx]
        if piece.kind == "fixed":
            for r in range(p):
                dual[cb + r][cb + (r + 1) % p] = 1
        else:
            dual[cb][cb] = 1
    return KInvariant(m, unit, act, mC, dual, list(cp.special),
                      [row[:] for row in cp.iota_matrix])


def induced_map(h):
    """Invariant morphism of a validated hom, by trace bookkeeping.

    F counts each source block's copies inside each target block; phi is
    read off the extension through the identifications by tracing the
    images of one minimal projection per crossed block. All traces must
    come out as nonnegative integers.
    """
    src, tgt = h.source, h.target
    F = [[0] * src.m for _ in range(tgt.m)]
    for s in range(src.m):
        a = unit_tuple(src.ctx, src.block_sizes, s, 0, 0)
        img = h.apply(a)
        for t in range(tgt.m):
            tr = img[t].trace().rational_part()
            if tr is None or not is_integer(tr) or tr < 0:
                raise NonIntegralMultiplicity(
                    "trace of block %d -> %d is %r" % (s, t, tr))
            F[t][s] = int(tr)
    cpA = crossed_product(src)
    cpB = crossed_product(tgt)
    ext = extend_hom(h, cpA, cpB, check=False)
    phi = [[0] * cpA.m for _ in range(cpB.m)]
    ctx = src.ctx
    for b, n in enumerate(cpA.block_sizes):
        mats = [Mat.zero(ctx, k, k) for k in cpA.block_sizes]
        mats[b].entries[0][0] = ctx.one
        image = ext.apply(mats)
        for r in range(cpB.m):
            tr = image[r].trace().rational_part()
            if tr is None or not is_integer(tr) or tr < 0:
                raise NonIntegralMultiplicity(
                    "crossed trace of block %d -> %d is %r" % (b, r, tr))
            phi[r][b] = int(tr)
    return KPair(F, phi, unital=h.unital)


def check_pair(kp, invA, invB):
    """All order/intertwining/special-element conditions, individually."""
    if (len(kp.F) != invB.m or any(len(r) != invA.m for r in kp.F)
            or len(kp.phi) != invB.mC
            or any(len(r) != invA.mC for r in kp.phi)):
        raise ShapeMismatch("pair shapes do not match the invariants")
    rep = Report()
    rep.add("order preservation (F, phi nonnegative)",
            all(x >= 0 for row in kp.F for x in row)
            and all(x >= 0 for row in kp.phi for x in row))
    rep.add("F intertwines the actions",
            imat_mul(kp.F, invA.act) == imat_mul(invB.act, kp.F))
    rep.add("phi intertwines the dual actions",
            imat_mul(kp.phi, invA.dualAct) == imat_mul(invB.dualAct, kp.phi))
    rep.add("phi maps special element to special element",
            ivec_mul(kp.phi, invA.special) == invB.special,
            "phi * %s = %s, expected %s"
            % (invA.special, ivec_mul(kp.phi, invA.special), invB.special))
    rep.add("embedding square commutes",
            imat_mul(kp.phi, invA.iota) == imat_mul(invB.iota, kp.F))
    if kp.unital:
        rep.add("F preserves the unit class",
                ivec_mul(kp.F, invA.unit) == invB.unit,
                "F * %s = %s, expected %s"
                % (invA.unit, ivec_mul(kp.F, invA.unit), invB.unit))
    unitA_crossed = ivec_mul(invA.iota, invA.unit)
    unitB_crossed = ivec_mul(invB.iota, invB.unit)
    rep.add("crossed unit image (informational)", True,
            "phi maps %s to %s; crossed unit class of codomain is %s"
            % (unitA_crossed, ivec_mul(kp.phi, unitA_crossed),
               unitB_crossed))
    return rep


def compose_pairs(kp1, kp2):
    """kp1 after kp2 (matrix products)."""
    if len(kp2.F) != len(kp1.F[0]) or len(kp2.phi) != len(kp1.phi[0]):
        raise ShapeMismatch("pairs are not composable")
    return KPair(imat_mul(kp1.F, kp2.F), imat_mul(kp1.phi, kp2.phi),
                 unital=kp1.unital and kp2.unital)
