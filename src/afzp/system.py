"""Finite-dimensional systems with an order-p action.

A system is a direct sum of matrix blocks, a block permutation sigma and
one implementing unitary per block; the generating automorphism acts as

    alpha(a)_i = impl[i] * a_{sigma(i)} * impl[i]^dagger.

decompose() rewrites a validated system as a direct sum of canonical
pieces: single blocks with a sorted diagonal implementing unitary of
order p ("fixed" pieces), and p-tuples of equal blocks cyclically
shifted with identity implementing unitaries ("cycle" pieces). The
rewriting is recorded as an explicit block relabelling plus one
conjugating unitary per original block, and is validated exactly.

Equivariant homomorphisms are stored structurally: per target block an
ordered list of source-block slots plus one conjugating unitary, so that

    psi(a)_t = X_t * iota_t(a) * X_t^dagger,

where iota_t(a) = blockdiag(slot contents) is the slot embedding. This
is the form of every *-homomorphism between finite-dimensional
C*-algebras: multiplicities, then one unitary. So every identity checked
here is one product K per block: for unitary K, K iota'(a) = iota(a) K
for all a exactly when K lies in the commutant pattern of the two slot
labellings (_pattern_defect): lambda * I_k between two slots of the same
source, zero between a slot and anything of another label, free between
two gaps.

* hom_validate: psi is equivariant iff K_t = X_{sigma(t)}^dagger V_t^dagger
  X_t U_t fits for every target block t. V_t is the fixed piece's V (I on
  cycle blocks, whose sigma(t) is the block before t); U_t is diag(V_s)
  over the slots of fixed source blocks s, and a slot of a cycle block s
  is relabelled sigma(s), the block alpha reads from. No V is multiplied:
  entry (k, j) of X_t is scaled by zeta_p^(e_s - e_t), e_t the target's
  exponent at k and e_s the source's at j (zero on cycle blocks).
* maps_defect / equal_as_maps: psi_1 = psi_2 iff X_1^dagger X_2 fits per
  target block, each X unitary (its X^dagger and verdict kept on the
  Mat); maps_defect names the first failing block and unit.
* classify.equiv_unitary: W_t = X_1 K X_2^dagger with K in the slot
  pattern between h1's and h2's slots, and K M_2 = M_1 K on fixed
  pieces for M_i = X_i^dagger V_t X_i, read from each hom's product
  X_t^dagger V_t^dagger X_t U_t (_block_product).
* decompose's rewriting a_i -> Z_i a_i Z_i^dagger (block i to canonical
  block b) is equivariant iff Z_j^dagger V_b^dagger Z_i impl[i] is scalar
  for j = sigma(i), whose canonical block must be the one b reads from.
"""

from dataclasses import dataclass

from .cyclo import root_exponent
from .errors import (NonDiagonalizableWithinField, NotOrderP, ShapeMismatch,
                     SystemMismatch, TwistNotRootOfUnity,
                     TwistRootOutsideField, UnitaryNotFoundInField,
                     AfzpError)
from .matrix import Mat, blockdiag, diag_root_exponents, diagonalizer
from .report import Report

__all__ = [
    "FdSystem", "IrredPiece", "BlockIso", "CanonicalForm", "Slot", "EqHom",
    "validate", "decompose", "hom_validate",
    "hom_compose", "identity_hom", "equal_as_maps", "maps_defect",
]


@dataclass
class FdSystem:
    ctx: object
    p: int
    block_sizes: list
    sigma: tuple          # 0-based images: block i reads from sigma[i]
    impl: list            # one unitary Mat per block

    @property
    def m(self):
        return len(self.block_sizes)


def zero_tuple(ctx, block_sizes):
    return [Mat.zero(ctx, n, n) for n in block_sizes]


def _orbits(sigma):
    """The orbits of the permutation sigma of range(n), each from its
    least element along sigma, in order of those least elements."""
    seen = [False] * len(sigma)
    orbits = []
    for i in range(len(sigma)):
        if seen[i]:
            continue
        orb = [i]
        seen[i] = True
        j = sigma[i]
        while j != i:
            orb.append(j)
            seen[j] = True
            j = sigma[j]
        orbits.append(orb)
    return orbits


def validate(s):
    """Check all structural invariants; report every violation."""
    return _validate(s)[0]


def _validate(s):
    """(validate's report, [(orbit, holonomy), ...]): per orbit of sigma,
    from its least block i, the scalar impl[i] impl[sigma(i)] ...
    impl[sigma^(p-1)(i)], or None where that product is not scalar. The
    list is empty when the report stops before the orbits."""
    rep = Report()
    m = s.m
    rep.add("block count", len(s.impl) == m and len(s.sigma) == m,
            "impl/sigma length vs %d blocks" % m)
    if not rep.ok:
        return rep, []
    rep.add("sigma is a permutation", sorted(s.sigma) == list(range(m)),
            "images %s" % (list(s.sigma),))
    if not rep.ok:
        return rep, []
    orbits = _orbits(s.sigma)   # sigma^p = id iff each orbit length divides p
    rep.add("sigma^p = id", all(s.p % len(orb) == 0 for orb in orbits))
    for i in range(m):
        ni = s.block_sizes[i]
        rep.add("block %d has positive size" % i, ni >= 1,
                "" if ni >= 1 else "size %d" % ni)
        rep.add("block %d size matches its sigma-image" % i,
                ni == s.block_sizes[s.sigma[i]])
        mat = s.impl[i]
        rep.add("impl[%d] shape" % i, mat.rows == ni and mat.cols == ni)
        if mat.rows == ni and mat.cols == ni:
            rep.add("impl[%d] unitary" % i, mat.is_unitary())
    if not rep.ok:
        return rep, []
    holonomies = []
    for orb in orbits:
        rep.add("orbit %s has size 1 or p" % (orb,),
                len(orb) in (1, s.p))
        i = orb[0]
        w = Mat.identity(s.ctx, s.block_sizes[i])
        j = i
        for _ in range(s.p):
            w = w * s.impl[j]
            j = s.sigma[j]
        lam = w.is_scalar()
        rep.add("action has order p on orbit %s" % (orb,),
                lam is not None,
                "" if lam is not None else
                "product of implementing unitaries around the orbit is "
                "not scalar")
        holonomies.append((orb, lam))
    return rep, holonomies


@dataclass
class IrredPiece:
    kind: str             # "fixed" | "cycle"
    n: int
    v: object = None      # fixed: sorted diagonal Mat with V^p = I

    def block_count(self, p):
        return 1 if self.kind == "fixed" else p

    def exponents(self, p):
        """Ascending e with v = diag(zeta_p^e) n x n, else None; () if cycle."""
        if self.kind != "fixed":
            return ()
        if self.v.rows == self.v.cols == self.n and self.v.is_diagonal():
            exps = diag_root_exponents(self.v, p)
            if exps is not None and exps == sorted(exps):
                return tuple(exps)
        return None


@dataclass
class BlockIso:
    """Block relabelling plus per-original-block conjugators: content of
    original block i lands in canonical block block_map[i] as
    conjugators[i] * a_i * conjugators[i]^dagger."""
    block_map: list
    conjugators: list


@dataclass
class CanonicalForm:
    ctx: object
    p: int
    pieces: list
    iso: BlockIso = None

    def __post_init__(self):
        self.block_sizes = []
        self.piece_offsets = []
        self.sigma = []       # block t reads from block sigma[t]
        self.piece_exponents = []   # IrredPiece.exponents per piece
        # per block: its piece's exponents; () on a cycle block, whose
        # zeros are not stored, n being unbounded by a document's size
        self.block_exps = []
        # piece i owns crossed blocks crossed_offsets[i] <= b <
        # crossed_offsets[i + 1]: p per fixed piece, one per cycle piece
        self.crossed_offsets = [0]
        self._kinv = None     # kinv.invariant_of's cache
        for idx, piece in enumerate(self.pieces):
            exps = piece.exponents(self.p)
            if exps is None:
                raise NotOrderP("fixed piece %d: v is not an ascending %dx%d "
                                "diagonal of p-th roots of unity"
                                % (idx, piece.n, piece.n))
            self.piece_exponents.append(exps)
            off = len(self.block_sizes)
            k = piece.block_count(self.p)
            self.piece_offsets.append(off)
            self.block_sizes.extend([piece.n] * k)
            self.sigma.extend(off + (t - 1) % k for t in range(k))
            self.block_exps.extend([exps] * k)
            self.crossed_offsets.append(self.crossed_offsets[-1] + self.p // k)

    @property
    def m(self):
        return len(self.block_sizes)

    def apply_action(self, a, j=1):
        """alpha^j(a), in one pass for any integer j. A fixed piece's
        block, V = diag(zeta_p^e), maps entrywise: alpha^j(a)[x][y] =
        zeta_p^(j (e_x - e_y)) a[x][y]. A cycle piece's blocks move j
        places along the cycle. A tuple of the wrong length or a block
        of the wrong size raises ShapeMismatch."""
        if len(a) != len(self.block_sizes):
            raise ShapeMismatch("tuple has %d blocks, algebra has %d"
                                % (len(a), len(self.block_sizes)))
        out = list(a)
        for piece, off, e in zip(self.pieces, self.piece_offsets,
                                 self.piece_exponents):
            if piece.kind == "fixed":
                out[off] = root_sum(self.ctx, piece.n, a[off],
                                    [j * x for x in e], [-j * x for x in e])
            else:
                for t in range(self.p):
                    b = out[off + t] = a[off + (t - j) % self.p]
                    if (b.rows, b.cols) != (piece.n, piece.n):
                        raise ShapeMismatch("%dx%d block in a piece of size "
                                            "%d" % (b.rows, b.cols, piece.n))
        return out

    def same_shape(self, other):
        return (self.ctx == other.ctx and self.p == other.p
                and self.piece_exponents == other.piece_exponents
                and [(a.kind, a.n) for a in self.pieces]
                == [(b.kind, b.n) for b in other.pieces])


def root_sum(ctx, n, a, ex, ey):
    """The n x n matrix whose (x, y) entry is zeta_p^(ex[x] + ey[y]) *
    a[x][y], on a's rows, kept where the exponents sum to 0 mod p. An a
    that is not n x n raises ShapeMismatch."""
    if a.rows != n or a.cols != n:
        raise ShapeMismatch("%dx%d block in a piece of size %d"
                            % (a.rows, a.cols, n))
    root, p, s = ctx.root, ctx.p, ctx.order // ctx.p
    return Mat(ctx, n, n, a.nz, tuple([
        tuple([v * root(s * k) if (k := (rx + ey[y]) % p) else v
               for y, v in zip(cols, vals)])
        for cols, vals, rx in zip(a.nz, a.vals, ex)]))


def decompose(s):
    """Canonical form of a validated system, with the explicit rewriting.

    Each orbit's holonomy is the scalar validate forms around it. A fixed
    block is scalar-normalized to order p by a p-th root of its
    holonomy's inverse; one pass over its eigenspaces
    (matrix.diagonalizer) gives its ascending exponents and a unitary
    onto that sorted diagonal, which decides every diagonal or monomial
    block. Orbits of size p are rewritten to the standard shift by
    partial products; the holonomy scalar is a root of unity and is
    absorbed by powers of its p-th root.
    """
    rep, holonomies = _validate(s)
    if not rep.ok:
        raise AfzpError("system is not valid:\n" + rep.summary())
    ctx = s.ctx
    p = s.p
    raw_pieces = []   # (sortkey, piece, [(orig block, conjugator), ...])
    for orb, lam in holonomies:
        i = orb[0]
        n = s.block_sizes[i]
        if len(orb) == 1:
            # lam^-1 = conj(lam) for a root of unity
            mu = _p_th_root(ctx, lam.conj(), p, orb)
            v = s.impl[i] if mu == ctx.one else s.impl[i] * mu
            try:
                exps, z = diagonalizer(v, p)
            except UnitaryNotFoundInField as exc:
                raise NonDiagonalizableWithinField("block %d: %s" % (i, exc))
            piece = IrredPiece("fixed", n, Mat.diag(
                ctx, [ctx.zeta_p(e) for e in exps]))
            raw_pieces.append(((0, n, tuple(exps), i), piece, [(i, z)]))
        else:
            # chain[t] = sigma^-t(i) reads from chain[t - 1]
            chain = [orb[-t] for t in range(p)]
            w = Mat.identity(ctx, n)
            partials = [w]
            for t in range(1, p):
                w = w * s.impl[chain[t]].dagger()
                partials.append(w)
            mu = _p_th_root(ctx, lam, p, orb)
            conjs = [(chain[t], partials[t] * (mu ** t)) for t in range(p)]
            raw_pieces.append(((1, n, (), i), IrredPiece("cycle", n), conjs))
    raw_pieces.sort(key=lambda item: item[0])
    pieces = [item[1] for item in raw_pieces]
    block_map = [None] * s.m
    conjugators = [None] * s.m
    pos = 0
    for _, piece, conjs in raw_pieces:
        for (orig, z) in conjs:
            block_map[orig] = pos
            conjugators[orig] = z
            pos += 1
    c = CanonicalForm(ctx, p, pieces, BlockIso(block_map, conjugators))
    bad = _iso_defect(s, c)
    if bad is not None:
        raise AfzpError("internal: recorded rewriting fails on %s" % (bad,))
    return c


def _p_th_root(ctx, lam, p, orb):
    """zeta_N^(a/p) for lam = zeta_N^a, N the field order, the holonomy
    of the orbit orb or its inverse."""
    a = root_exponent(lam)
    if a is None:
        raise TwistNotRootOfUnity(
            "holonomy of orbit %s is not a root of unity" % (orb,))
    if a % p != 0:
        raise TwistRootOutsideField(ctx.order * p)
    return ctx.root(a // p)


def _pattern_defect(K, rows, cols):
    """First entry of K outside the commutant pattern of two slot
    labellings, as (source block, i, j); None if K fits.

    rows and cols list (label, size) per slot, label None for a gap, and
    cut K into blocks. K fits when its block between two slots of the
    same label is lambda * I_k, every other block that touches a slot is
    zero, and blocks between two gaps are free: for unitary K, exactly
    when K iota_cols(a) = iota_rows(a) K for every a, iota placing a's
    blocks on the slots. The answer is the first failing entry in
    row-major order; i and j are its indices inside its row and column
    slot, and the source block is the row's label, or the column's on a
    gap row. Per row only the nonzero entries are read, plus the
    diagonal entries of its same-label slot pairs whose lambda is
    nonzero, where a zero would fail.
    """
    col_at = []               # per column: label, index in slot
    slots = []                # per column slot: label, size, start
    start = 0
    for label, size in cols:
        col_at.extend((label, j) for j in range(size))
        slots.append((label, size, start))
        start += size
    start = 0
    for lr, size in rows:
        # (start column, size, lambda) of each same-label slot pair
        same = [(c0, k, K.entry(start, c0)) for lc, k, c0 in slots
                if lc == lr and lr is not None and k and size]
        for i in range(size):
            diag = {c0 + i: lam for c0, k, lam in same if i < k} \
                if same else {}
            bad = None
            for c, x in zip(K.nz[start + i], K.vals[start + i]):
                if (x != diag[c] if c in diag
                        else lr is not None or col_at[c][0] is not None):
                    bad = c
                    break
            for c, lam in diag.items():
                if bad is not None and c > bad:
                    break
                if lam._nonzero and not K.entry(start + i, c)._nonzero:
                    bad = c
                    break
            if bad is not None:
                lc, j = col_at[bad]
                return (lc if lr is None else lr), i, j
        start += size
    return None


def _iso_defect(s, c):
    """First non-unitary conjugator or failing original block; None if
    the recorded rewriting is exact. Block i lands in canonical block b
    as Z_i a_i Z_i^dagger; equivariance there is Z_i impl_i a_j
    impl_i^dagger Z_i^dagger = V_b Z_j a_j Z_j^dagger V_b^dagger for
    j = sigma(i), whose block must be the one b reads from, i.e. the
    scalar K = Z_j^dagger V_b^dagger Z_i impl_i."""
    zs, block_map = c.iso.conjugators, c.iso.block_map
    for i, z in enumerate(zs):
        if not z.is_unitary():
            return "conjugator %d, which is not unitary" % i
    for i, (b, j) in enumerate(zip(block_map, s.sigma)):
        if block_map[j] != c.sigma[b]:
            return "block %d, whose image does not read from the image " \
                "of block %d" % (i, j)
        n = s.block_sizes[i]
        k = zs[j].dagger() * root_sum(s.ctx, n, zs[i] * s.impl[i],
                                      [-e for e in c.block_exps[b] or [0] * n],
                                      [0] * n)
        bad = _pattern_defect(k, [(i, n)], [(i, n)])
        if bad is not None:
            return "unit (%d,%d) of block %d" % (bad[1], bad[2], i)
    return None


# -- equivariant homomorphisms -------------------------------------------


@dataclass
class Slot:
    """One source-block copy inside a target block. src None marks an
    explicit zero gap of the given size."""
    src: object
    size: int


@dataclass
class Arrangement:
    slots: list
    conj: object          # unitary Mat of the target block size


@dataclass
class EqHom:
    source: CanonicalForm
    target: CanonicalForm
    arrangements: list
    unital: bool = True


def identity_hom(c):
    arrs = []
    for t, n in enumerate(c.block_sizes):
        arrs.append(Arrangement([Slot(t, n)], Mat.identity(c.ctx, n)))
    return EqHom(c, c, arrs, unital=True)


def hom_validate(h):
    """Well-formedness plus exact equivariance.

    With unitary conjugators, psi is equivariant iff at every target
    block t the product K_t = X_{sigma(t)}^dagger V_t^dagger X_t U_t lies in
    the commutant pattern between the slots of block sigma(t) (rows) and
    the slots of t relabelled by the source sigma (columns): V_t is the
    target's V (I on a cycle block, where sigma(t) is the block before
    t) and U_t the source's V over each slot (I on gaps and cycle
    blocks), both entering as zeta_p^(e_s - e_t) (_block_product). The
    failure detail names the first entry of K outside the pattern: its
    source block, in-slot indices and target block."""
    rep = Report()
    src, tgt = h.source, h.target
    rep.add("block count", len(h.arrangements) == tgt.m)
    if not rep.ok:
        return rep
    gaps = 0
    for t, (arr, n_t) in enumerate(zip(h.arrangements, tgt.block_sizes)):
        total = 0
        for slot in arr.slots:
            if slot.src is None:
                gaps += 1
                total += slot.size
            else:
                ok = (0 <= slot.src < src.m
                      and slot.size == src.block_sizes[slot.src])
                rep.add("slot into target block %d" % t, ok,
                        "source block %r, size %d" % (slot.src, slot.size))
                total += slot.size
        rep.add("target block %d is filled" % t, total == n_t,
                "slots cover %d of %d" % (total, n_t))
        rep.add("conjugator %d unitary" % t,
                arr.conj.rows == n_t and arr.conj.is_unitary())
    rep.add("unital flag consistent", h.unital == (gaps == 0),
            "flag %r with %d zero gaps" % (h.unital, gaps))
    if not rep.ok:
        return rep
    for t in range(tgt.m):
        first = h.arrangements[tgt.sigma[t]]
        K, cols = _block_product(h, t, first.conj.dagger())
        bad = _pattern_defect(K, _labels(first.slots), cols)
        if bad is not None:
            rep.add("equivariance", False,
                    "fails on unit (%d,%d) of source block %d "
                    "at target block %d" % (bad[1], bad[2], bad[0], t))
            return rep
    rep.add("equivariance", True, "X_{sigma(t)}^dagger V_t^dagger X_t U_t "
            "lies in the slot commutant pattern at every target block t")
    return rep


def _block_product(h, t, first):
    """(first * V_t^dagger X_t U_t, column labels) at target block t of h:
    V_t is the target's V (I on cycle blocks), U_t the source's V over
    each slot (I on gaps and cycle blocks), and each slot's column is
    labelled by the block alpha reads it from (None on a gap). V_t and
    U_t enter as zeta_p^(e_s - e_t), one root per nonzero of X_t."""
    src, tgt = h.source, h.target
    arr = h.arrangements[t]
    u, cols = [], []
    for slot in arr.slots:
        if slot.src is None:
            u.extend([0] * slot.size)
            cols.append((None, slot.size))
        else:
            u.extend(src.block_exps[slot.src] or [0] * slot.size)
            cols.append((src.sigma[slot.src], slot.size))
    n = tgt.block_sizes[t]
    return first * root_sum(tgt.ctx, n, arr.conj,
                            [-e for e in tgt.block_exps[t] or [0] * n],
                            u), cols


def hom_compose(g, h):
    """g after h. Requires h.target and g.source to be the same form."""
    if not h.target.same_shape(g.source):
        raise SystemMismatch("middle systems differ")
    ctx = g.source.ctx
    arrs = []
    for t, arr_g in enumerate(g.arrangements):
        slots = []
        factors = []
        for slot in arr_g.slots:
            if slot.src is None:
                slots.append(Slot(None, slot.size))
                factors.append(Mat.identity(ctx, slot.size))
            else:
                inner = h.arrangements[slot.src]
                slots.extend(inner.slots)
                factors.append(inner.conj)
        conj = arr_g.conj * blockdiag(ctx, factors,
                                      total=g.target.block_sizes[t])
        arrs.append(Arrangement(slots, conj))
    return EqHom(h.source, g.target, arrs,
                 unital=g.unital and h.unital)


def _labels(slots):
    return [(slot.src, slot.size) for slot in slots]


def _slot_starts(h, t):
    """Start of each slot of h's target block t, listed per source block
    in occurrence order."""
    starts = [[] for _ in range(h.source.m)]
    pos = 0
    for slot in h.arrangements[t].slots:
        if slot.src is not None:
            starts[slot.src].append(pos)
        pos += slot.size
    return starts


def maps_defect(h1, h2):
    """First reason why h1 and h2 differ as maps; None if they are equal.

    They are equal iff per target block X_1^dagger X_2 lies in the
    commutant pattern between h1's slots (rows) and h2's (columns),
    given one arrangement per target block, slots that fill it and a
    unitary conjugator of its size, which are checked first. The reason
    then names, as hom_validate does, the first entry outside the
    pattern: its in-slot indices, source block and target block."""
    if not (h1.source.same_shape(h2.source)
            and h1.target.same_shape(h2.target)):
        return "the homs differ in source or target"
    sizes = h1.target.block_sizes
    for k, h in enumerate((h1, h2), 1):
        if len(h.arrangements) != len(sizes):
            return "hom %d has %d arrangements for %d target blocks" \
                % (k, len(h.arrangements), len(sizes))
        for t, (arr, n_t) in enumerate(zip(h.arrangements, sizes)):
            if sum([slot.size for slot in arr.slots]) != n_t:
                return "the slots of hom %d do not fill target block %d" \
                    % (k, t)
            if not (arr.conj.rows == n_t and arr.conj.is_unitary()):
                return "conjugator %d of hom %d is not unitary" % (t, k)
    for t, (a1, a2) in enumerate(zip(h1.arrangements, h2.arrangements)):
        bad = _pattern_defect(a1.conj.dagger() * a2.conj, _labels(a1.slots),
                              _labels(a2.slots))
        if bad is not None:
            return "fails on unit (%d,%d) of source block %d at target " \
                "block %d" % (bad[1], bad[2], bad[0], t)
    return None


def equal_as_maps(h1, h2):
    """Exact equality as maps: maps_defect(h1, h2) is None."""
    return maps_defect(h1, h2) is None
