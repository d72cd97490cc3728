"""The classification invariant as plain integer-matrix data.

For a canonical form the invariant consists of: the ordered group data
of the algebra (block count, unit vector, action permutation), the same
data for the crossed product (dual action permutation, special element)
and the integer matrix of the canonical embedding on classes. Morphisms
of invariants are pairs (F, phi) of nonnegative integer matrices.
"""

from dataclasses import dataclass

from .errors import NonIntegralMultiplicity, ShapeMismatch
from .report import Report
from .system import _orbits, _slot_starts
from ._rat import RAT, is_integer

__all__ = ["KInvariant", "KPair", "invariant_of", "induced_map",
           "check_pair", "compose_pairs"]


def imat_mul(a, b, cols=None):
    """a b for lists of rows. b's column count cols defaults to the length
    of its first row, or to 0 when b has no rows."""
    rows, inner = len(a), len(b)
    if cols is None:
        cols = len(b[0]) if b else 0
    assert all(len(r) == inner for r in a)
    return [[sum(a[i][k] * b[k][j] for k in range(inner))
             for j in range(cols)] for i in range(rows)]


def ivec_mul(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


@dataclass
class KInvariant:
    unit: list
    act: tuple           # block t of the algebra receives block act[t]
    dualAct: tuple       # crossed block b receives crossed block dualAct[b]
    special: list
    iota: list           # mC x m embedding matrix

    @property
    def m(self):
        return len(self.unit)

    @property
    def mC(self):
        return len(self.special)


@dataclass
class KPair:
    F: list
    phi: list
    unital: bool = True


def invariant_of(c):
    """The invariant of a canonical form, assembled piece by piece on the
    first call and cached on the form: later calls return the same
    object, which callers share and must not modify."""
    if c._kinv is None:
        c._kinv = _assemble(c)
    return c._kinv


def _assemble(c):
    """The invariant read off c's pieces. A fixed piece gives p crossed
    blocks that the dual action rotates (block r receives block r + 1),
    its exponent counts as their special element, and each embeds the
    piece's block once. A cycle piece gives one crossed block that the
    dual action fixes, special element n, embedding each of the piece's
    p blocks once."""
    p = c.p
    dual, special, iota = [], [], []
    for piece, s, b, exps in zip(c.pieces, c.piece_offsets,
                                 c.crossed_offsets, c.piece_exponents):
        if piece.kind == "fixed":
            dual.extend(b + (r + 1) % p for r in range(p))
            special.extend(exps.count(d) for d in range(p))
            embedded = [range(s, s + 1)] * p
        else:
            dual.append(b)
            special.append(piece.n)
            embedded = [range(s, s + p)]
        iota.extend([int(t in blocks) for t in range(c.m)]
                    for blocks in embedded)
    return KInvariant(list(c.block_sizes), tuple(c.sigma), tuple(dual),
                      special, iota)


def _multiplicity(q, what):
    """The rational q (None when not rational) as a nonnegative int."""
    if q is None or not is_integer(q) or q < 0:
        raise NonIntegralMultiplicity("%s is %r" % (what, q))
    return int(q)


def induced_map(h):
    """Invariant morphism (F, phi) of a validated hom psi, read from its
    slots and conjugators: psi(E_00 of source block s) in target block t
    is P = sum over the slots of s in t of X_t e_c e_c^dagger X_t^dagger,
    c the slot's first position.

    F[t][s] is the trace of P, the number of slots of s in block t. phi
    is the K0 map of the extension of psi to the crossed products
    (identified as in crossed). For a source piece with first block s
    and crossed blocks a + r, and a target piece with first block t and
    crossed blocks b + r' (0 <= r, r' < p):

    * fixed -> fixed: phi[b + r'][a + r] is the sum of P's diagonal,
      |X_t[k, c]|^2 summed over the slots, over the positions k where
      the target's V has exponent (r' - r + e0) mod p, e0 the first
      exponent of the source's V;
    * cycle -> any: each crossed block of the target piece gets the sum
      of F[t'][s] over the blocks t' of the target piece;
    * fixed -> cycle: phi[b][a + r] is that sum divided by p.

    Every entry must be a nonnegative integer.
    """
    src, tgt = h.source, h.target
    p = src.p
    starts = [_slot_starts(h, t) for t in range(tgt.m)]
    F = [[len(c) for c in row] for row in starts]
    offA, offB = src.crossed_offsets, tgt.crossed_offsets
    phi = [[0] * offA[-1] for _ in range(offB[-1])]
    for sp, s, a, s_exps in zip(src.pieces, src.piece_offsets, offA,
                                src.piece_exponents):
        for tp, t, b, b_end, t_exps in zip(tgt.pieces, tgt.piece_offsets,
                                           offB, offB[1:],
                                           tgt.piece_exponents):
            total = sum(F[t + k][s] for k in range(tp.block_count(p)))
            if sp.kind == "cycle":
                for row in range(b, b_end):
                    phi[row][a] = total
            elif tp.kind == "cycle":
                q = _multiplicity(RAT(total, p), "crossed trace of block "
                                  "%d -> %d" % (a, b))
                phi[b][a:a + p] = [q] * p
            else:
                by_exp = [src.ctx.zero] * p
                X = h.arrangements[t].conj
                cols = set(starts[t][s])
                for e, xcols, xvals in zip(t_exps, X.nz, X.vals):
                    for c, x in zip(xcols, xvals):
                        if c in cols:
                            by_exp[e] = by_exp[e] + x.conj() * x
                lam = [_multiplicity(x.rational_part(),
                                     "trace of block %d -> %d at exponent %d"
                                     % (s, t, d)) for d, x in enumerate(by_exp)]
                e0 = s_exps[0]
                for rr in range(p):
                    phi[b + rr][a:a + p] = [lam[(rr - r + e0) % p]
                                            for r in range(p)]
    return KPair(F, phi, unital=h.unital)


def _intertwines(M, permB, permA):
    """M permA = permB M for the permutations' 0/1 matrices, read entry by
    entry: M[r][c] = M[permB[r]][permA[c]]."""
    return all(row[c] == M[permB[r]][permA[c]]
               for r, row in enumerate(M) for c in range(len(permA)))


def check_pair(kp, invA, invB):
    """All order/intertwining/special-element conditions, individually;
    a non-unital pair has the three defect items of _check_defects in
    place of the special-element item, and no unit-class item."""
    if (len(kp.F) != invB.m or any(len(r) != invA.m for r in kp.F)
            or len(kp.phi) != invB.mC
            or any(len(r) != invA.mC for r in kp.phi)):
        raise ShapeMismatch("pair shapes do not match the invariants")
    rep = Report()
    rep.add("order preservation (F, phi nonnegative)",
            all(x >= 0 for row in kp.F for x in row)
            and all(x >= 0 for row in kp.phi for x in row))
    rep.add("F intertwines the actions",
            _intertwines(kp.F, invB.act, invA.act))
    rep.add("phi intertwines the dual actions",
            _intertwines(kp.phi, invB.dualAct, invA.dualAct))
    if kp.unital:
        rep.add("phi maps special element to special element",
                ivec_mul(kp.phi, invA.special) == invB.special,
                "phi * %s = %s, expected %s"
                % (invA.special, ivec_mul(kp.phi, invA.special),
                   invB.special))
    else:
        _check_defects(rep, kp, invA, invB)
    rep.add("embedding square commutes",
            imat_mul(kp.phi, invA.iota, invA.m)
            == imat_mul(invB.iota, kp.F, invA.m))
    if kp.unital:
        rep.add("F preserves the unit class",
                ivec_mul(kp.F, invA.unit) == invB.unit,
                "F * %s = %s, expected %s"
                % (invA.unit, ivec_mul(kp.F, invA.unit), invB.unit))
    return rep


def _check_defects(rep, kp, invA, invB):
    """The special-element items of a non-unital pair. A hom psi sends
    the averaging projection q_A of A x| G to psi(1) q_B, so with
    u = unit_B - F unit_A, the class of 1 - psi(1), and s = special_B -
    phi special_A, the class of (1 - psi(1)) q_B, both are nonnegative,
    and the dual images of (1 - psi(1)) q_B sum to 1 - psi(1) in B x| G:
    iota_B u = sum over k < p of dualAct_B^k s. When u = 0 this forces
    s = 0, the unital pair's condition."""
    u = [b - a for a, b in zip(ivec_mul(kp.F, invA.unit), invB.unit)]
    s = [b - a for a, b in zip(ivec_mul(kp.phi, invA.special),
                               invB.special)]
    rep.add("unit defect unit_B - F unit_A is nonnegative",
            all(x >= 0 for x in u), "unit_B - F * %s = %s" % (invA.unit, u))
    rep.add("special defect special_B - phi special_A is nonnegative",
            all(x >= 0 for x in s),
            "special_B - phi * %s = %s" % (invA.special, s))
    lhs, rhs = ivec_mul(invB.iota, u), _dual_orbit_sum(invB, s)
    rep.add("iota_B maps the unit defect to the dual orbit sum of the "
            "special defect", lhs == rhs,
            "iota_B * %s = %s, sum over k of dualAct_B^k %s = %s"
            % (u, lhs, s, rhs))


def _dual_orbit_sum(inv, s):
    """sum over k < p of dualAct^k applied to s: on each orbit of the
    dual action, the orbit's sum times p / its length. p is the longest
    orbit of act or dualAct; a cycle piece's blocks or a fixed piece's
    crossed blocks make one of length p in every nonzero invariant."""
    orbits = _orbits(inv.dualAct)
    p = max(map(len, orbits + _orbits(inv.act)), default=1)
    out = [0] * len(s)
    for orb in orbits:
        total = sum(s[b] for b in orb) * (p // len(orb))
        for b in orb:
            out[b] = total
    return out


def compose_pairs(kp1, kp2):
    """kp1 after kp2 (matrix products). A middle zero algebra (kp2 with
    no rows) hides the source's class count, so it composes only into a
    zero target."""
    if (kp1.F and not kp2.F) or (kp1.phi and not kp2.phi):
        raise ShapeMismatch("pairs compose through the zero algebra, which "
                            "carries no source class count")
    if (any(len(r) != len(kp2.F) for r in kp1.F)
            or any(len(r) != len(kp2.phi) for r in kp1.phi)):
        raise ShapeMismatch("pairs are not composable")
    return KPair(imat_mul(kp1.F, kp2.F), imat_mul(kp1.phi, kp2.phi),
                 unital=kp1.unital and kp2.unital)
