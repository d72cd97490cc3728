"""Existence, uniqueness and intertwining.

lift() turns an invariant morphism that passes every pair check into an
explicit unital equivariant hom. The checks force each (source piece,
target piece) sub-block of the pair into one of four shapes (fixed->fixed
circulant, fixed->cycle constant row, cycle->fixed constant column,
cycle->cycle circulant), so its first column is the plan; eigenvalue
budgets are packed deterministically: source pieces in canonical order,
shifts in increasing exponent, positions in increasing index.

equiv_unitary() produces, for two homs with the same induced invariant
morphism, a unitary W in the fixed-point algebra of the target with
Ad W o h2 = h1, built per target block in slot coordinates from
commutant elements of finite order; everything is re-verified exactly
before returning.

intertwine() runs the finite-depth intertwining argument on consecutive
stages 0 .. n-1 of both towers, hop by hop (A_0 -> B_0 -> A_1 -> ...).
It plans first, over integers: one invariant morphism per hop closing
its invariant triangle, so a hop with none is reported before any lift.
Then it lifts each and corrects the lift by an inner equivariant unitary
so the triangle with the previous hom commutes exactly. The
certificate's re-verification recomputes every identity from scratch.
"""

import itertools
from dataclasses import dataclass, field
from operator import mul

from .errors import (CorrectionFailed, KDataMismatch, LiftFailed,
                     PackingInfeasible, PairCheckFailed, ReindexFailed,
                     UnitaryNotFoundInField, AfzpError)
from .kinv import (KPair, check_pair, compose_pairs, induced_map,
                   invariant_of, ivec_mul)
from .matrix import Mat, blockdiag, unitary_conjugator
from .report import Report
from .system import (Arrangement, EqHom, Slot, _block_product, _labels,
                     _orbits, _pattern_defect, _slot_starts, equal_as_maps,
                     hom_compose, hom_validate, identity_hom, maps_defect)

__all__ = ["lift", "equiv_unitary", "ksearch", "Tower", "intertwine",
           "IntertwiningCertificate", "verify_certificate",
           "UniquenessWitness", "conjugate_hom"]


# ---------------------------------------------------------------------------
# existence
# ---------------------------------------------------------------------------


def lift(kp, srcC, tgtC):
    """Explicit unital equivariant hom inducing the given pair exactly."""
    rep = check_pair(kp, invariant_of(srcC), invariant_of(tgtC))
    if rep.ok and not kp.unital:
        rep.add("unital flag", False, "lift requires a unital pair")
    if not rep.ok:
        raise PairCheckFailed(rep)
    return _lift(kp, srcC, tgtC)


def _lift(kp, srcC, tgtC):
    """lift for a unital pair that passes check_pair. The packers read
    each (source piece, target piece) plan off the first column of its
    sub-block of the pair: F act_A = act_B F makes fixed->cycle columns
    and cycle->fixed rows of F constant and cycle->cycle slices
    circulant, phi dualAct_A = dualAct_B phi makes fixed->fixed slices
    of phi circulant, and the embedding square ties their sums
    together."""
    ctx = srcC.ctx
    p = srcC.p
    arrangements = [None] * tgtC.m
    for ti, (tp, t) in enumerate(zip(tgtC.pieces, tgtC.piece_offsets)):
        if tp.kind == "fixed":
            arrangements[t] = _pack_fixed_target(ctx, p, kp, srcC, tgtC, ti)
        else:
            arrangements[t:t + p] = _pack_cycle_target(ctx, p, kp, srcC, t,
                                                       ti, tp)
    h = EqHom(srcC, tgtC, arrangements, unital=True)
    vrep = hom_validate(h)
    if not vrep.ok:
        raise AfzpError("internal: packed hom fails validation:\n"
                        + vrep.summary())
    got = induced_map(h)
    if got != kp:
        raise AfzpError("internal: packed hom induces a different pair")
    return h


def _pack_fixed_target(ctx, p, kp, srcC, tgtC, ti):
    n = tgtC.pieces[ti].n
    t, b = tgtC.piece_offsets[ti], tgtC.crossed_offsets[ti]
    exps = tgtC.piece_exponents[ti]
    pools = {m: iter([i for i, e in enumerate(exps) if e == m])
             for m in range(p)}

    def take(m):
        pos = next(pools[m], None)
        if pos is None:
            raise PackingInfeasible(
                "eigenvalue budget exhausted at exponent %d of target piece %d"
                % (m, ti))
        return pos

    slots = []
    X = [{} for _ in range(n)]
    col = 0
    for sp, s, a, uexps in zip(srcC.pieces, srcC.piece_offsets,
                               srcC.crossed_offsets, srcC.piece_exponents):
        k = sp.n
        if sp.kind == "fixed":
            for d in range(p):
                for _ in range(kp.phi[b + d][a]):
                    slots.append(Slot(s, k))
                    for i in range(k):
                        X[take((uexps[i] + d) % p)][col + i] = ctx.one
                    col += k
        else:  # bundles of the p blocks of a cycle piece
            ginv = ctx.sqrt_group_order().inv()
            for _ in range(kp.F[t][s]):
                base = col
                for j in range(p):
                    slots.append(Slot(s + j, k))
                    col += k
                for m in range(p):
                    for w in range(k):
                        pos = take(m)
                        for j in range(p):
                            X[pos][base + j * k + w] = \
                                ctx.zeta_p(j * m) * ginv
    if col != n:    # each column took one distinct pool entry
        raise PackingInfeasible("target piece %d not exactly filled" % ti)
    return Arrangement(slots, Mat.from_dicts(ctx, n, X))


def _pack_cycle_target(ctx, p, kp, srcC, t, ti, tp):
    n = tp.n
    out = []
    for r in range(p):
        slots = []
        twists = []
        for sp, s, uexps in zip(srcC.pieces, srcC.piece_offsets,
                                srcC.piece_exponents):
            k = sp.n
            if sp.kind == "fixed":
                # V^-r = diag(zeta_p^(-r e))
                ud = Mat.diag(ctx, [ctx.zeta_p(-r * e) for e in uexps])
                for _ in range(kp.F[t][s]):
                    slots.append(Slot(s, k))
                    twists.append(ud)
            else:
                for d in range(p):
                    for _ in range(kp.F[t + d][s]):
                        slots.append(Slot(s + (r - d) % p, k))
                        twists.append(Mat.identity(ctx, k))
        total = sum(slot.size for slot in slots)
        if total != n:
            raise PackingInfeasible(
                "cycle target piece %d block %d holds %d of %d"
                % (ti, r, total, n))
        out.append(Arrangement(slots, blockdiag(ctx, twists, total=n)))
    return out


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------


@dataclass
class WitnessEntry:
    target_piece: int
    source_piece: int
    case: str
    L: object = None
    N: object = None
    Z: object = None


@dataclass
class UniquenessWitness:
    entries: list = field(default_factory=list)
    W: list = field(default_factory=list)    # per target block


def _slot_adjoint(P, rows, cols):
    """Scalars of P^dagger between slots: L[c][c'] = conj(P[cols[c']][rows[c]])
    for the slots starting at rows (c) and at cols (c')."""
    return Mat.from_dicts(P.ctx, len(cols), [
        {k: P.entry(c, r).conj() for k, c in enumerate(cols)} for r in rows])


def _place(K, Z, rows, cols, k):
    """Write Z (x) I_k into K, a list of row dicts: Z[c][c'] I_k between
    the k-slots starting at rows[c] and at cols[c']."""
    for r, zcols, zvals in zip(rows, Z.nz, Z.vals):
        for c, z in zip(zcols, zvals):
            for w in range(k):
                K[r + w][cols[c] + w] = z


def equiv_unitary(h1, h2):
    """Unitary W in the fixed-point algebra of the target with
    Ad W o h2 = h1, for validated unital homs with equal induced pairs.

    Per target block W_t = X1_t K X2_t^dagger, with K in the slot pattern
    between h1's slots (rows) and h2's (columns): Z (x) I_k between the
    slots of each source block. On a cycle target piece K pairs the c-th
    slot of each source block in h1 with the c-th in h2, and the p
    blocks share W_t. On a fixed target block W_t commutes with V_t iff
    K M2 = M1 K for M_i = X_i^dagger V_t X_i. Between the slots of a
    source block b (rows) and of sigma(b) (columns) M_i holds the
    scalars A_b of P_i^dagger (times V_b on a fixed piece), where P_i is
    the product hom_validate checks (system._block_product), which must
    lie in its slot pattern. A fixed source piece needs A1_b Z = Z A2_b
    (matrix.unitary_conjugator, one eigenspace at a time); a cycle
    source piece telescopes G_0 = I, G_j = A1_j G_{j-1} A2_j^dagger.
    Everything is re-verified exactly before returning. W_t is unitary:
    K's verdict is computed on the sparse K, so when X1_t and X2_t are
    known unitary (a validated hom's conjugators are) W_t inherits it as
    a product of unitaries, and otherwise W_t.is_unitary() forms
    W_t^dagger W_t. W_t commutes with V_t = diag(zeta_p^e) iff every
    nonzero of W_t joins two positions of equal exponent, which is
    checked without products.

    Returns (W, witness): W per target block; witness.entries hold, per
    target piece, the L, N and Z of each fixed source piece ("FF"), the
    A1_j, A2_j and G_j of each cycle source piece ("CF"), or the shared
    W_t of a cycle target ("cycle-target").
    """
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
        t = tgt.piece_offsets[ti]
        s1, s2 = _slot_starts(h1, t), _slot_starts(h2, t)
        K = [{} for _ in range(tp.n)]
        if tp.kind == "cycle":
            for b, (rows, cols) in enumerate(zip(s1, s2)):
                _place(K, Mat.identity(ctx, len(rows)), rows, cols,
                       src.block_sizes[b])
        else:
            A = []
            for h, starts in ((h1, s1), (h2, s2)):
                arr = h.arrangements[t]
                P, cols = _block_product(h, t, arr.conj.dagger())
                if _pattern_defect(P, _labels(arr.slots), cols) is not None:
                    raise UnitaryNotFoundInField(
                        "conjugator product at target block %d leaves the "
                        "slot pattern; hom is not equivariant" % t)
                A.append([_slot_adjoint(P, starts[b], starts[src.sigma[b]])
                          for b in range(src.m)])
            A1, A2 = A
            for si, sp in enumerate(src.pieces):
                b0 = src.piece_offsets[si]
                if not s1[b0]:
                    continue
                if sp.kind == "fixed":
                    Z = unitary_conjugator(A1[b0], A2[b0], p)
                    _place(K, Z, s1[b0], s2[b0], sp.n)
                    witness.entries.append(
                        WitnessEntry(ti, si, "FF", L=A1[b0], N=A2[b0], Z=Z))
                    continue
                L1, L2 = A1[b0:b0 + p], A2[b0:b0 + p]
                # telescoping: G_0 = I, G_j = A1_j G_{j-1} A2_j^dagger
                Gj = [Mat.identity(ctx, len(s1[b0]))]
                for j in range(1, p):
                    Gj.append(L1[j] * Gj[j - 1] * L2[j].dagger())
                if L1[0] * Gj[p - 1] * L2[0].dagger() != Gj[0]:
                    raise CorrectionFailed(
                        (ti, si), "cycle telescoping does not close")
                for j in range(p):
                    _place(K, Gj[j], s1[b0 + j], s2[b0 + j], sp.n)
                witness.entries.append(
                    WitnessEntry(ti, si, "CF", L=L1, N=L2, Z=Gj))
        # deciding the sparse K here lets w inherit its verdict from
        # X1, K and X2^dagger, when X1 and X2 are known unitary
        K = Mat.from_dicts(ctx, tp.n, K)
        K.is_unitary()
        w = h1.arrangements[t].conj * K * h2.arrangements[t].conj.dagger()
        for r in range(tp.block_count(p)):
            W[t + r] = w
        if tp.kind == "cycle":
            witness.entries.append(WitnessEntry(ti, -1, "cycle-target", Z=w))
    # exact re-verification before anything is returned
    for t in range(tgt.m):
        if not W[t].is_unitary():
            raise CorrectionFailed(t, "W is not unitary")
    for ti, e in enumerate(tgt.piece_exponents):
        if not _commutes_on_exponents(W[tgt.piece_offsets[ti]], e):
            raise CorrectionFailed(ti, "W does not commute with the "
                                       "implementing unitary")
    corrected = conjugate_hom(W, h2)
    if not equal_as_maps(corrected, h1):
        raise CorrectionFailed("*", "Ad W o h2 differs from h1")
    witness.W = W
    return W, witness


def _commutes_on_exponents(w, e):
    """W V = V W for V = diag(zeta_p^e), e () on a cycle piece (V = I):
    every nonzero of W joins two positions of equal exponent."""
    return not e or all(e[x] == e[y] for x, cols in enumerate(w.nz)
                        for y in cols)


def conjugate_hom(W, h):
    """Ad W o h for a per-target-block tuple of unitaries."""
    arrs = [Arrangement(list(arr.slots), W[t] * arr.conj)
            for t, arr in enumerate(h.arrangements)]
    return EqHom(h.source, h.target, arrs, unital=h.unital)


# ---------------------------------------------------------------------------
# invariant-morphism search
# ---------------------------------------------------------------------------


def _entry_orbits(permB, permA):
    """Orbits of the row-major entry indices r * nA + c under (r, c) ->
    (permB[r], permA[c]); the equivariance constraint forces equal values
    along each orbit."""
    nA = len(permA)
    return _orbits([rb * nA + ca for rb in permB for ca in permA])


def _fits(flat, n, cols, wants, partial):
    """Row-major flat (n columns) times each listed column against its
    wanted column, up to the first that fails: entrywise <= while flat is
    a partial assignment, equal once it is complete."""
    for col, want in zip(cols, wants):
        img = [sum(map(mul, flat[r * n:r * n + n], col))
               for r in range(len(want))]
        if (any(x > w for x, w in zip(img, want)) if partial
                else img != want):
            return False
    return True


def _equivariant(orbits, shape, bound, cols, wants):
    """Every nonnegative rows x cols matrix, shape = (rows, cols), as a
    list of rows, constant on the given orbits of row-major entries with
    mat * col = want for each listed column, entries <= bound unless
    bound is None, in lexicographic order of the orbit values.

    Every column is nonnegative, so raising an orbit's value never turns
    a failed partial check into a pass: each orbit's value loop stops at
    its first failure, which also ends the loop when bound is None."""
    rows, n = shape
    flat = [0] * (rows * n)

    def rec(idx):
        if idx == len(orbits):
            if _fits(flat, n, cols, wants, False):
                yield [flat[i * n:i * n + n] for i in range(rows)]
            return
        for v in (itertools.count() if bound is None else range(bound + 1)):
            for k in orbits[idx]:
                flat[k] = v
            if not _fits(flat, n, cols, wants, True):
                break
            yield from rec(idx + 1)
        for k in orbits[idx]:
            flat[k] = 0

    return rec(0)


def _candidates(invA, invB, bound):
    """The pairs ksearch lists, one at a time and in its order."""
    iotaA = [[row[c] for row in invA.iota] for c in range(invA.m)]
    phi_orbits = None       # built at the first F: most searches find none
    for F in _equivariant(_entry_orbits(invB.act, invA.act),
                          (invB.m, invA.m), bound, [invA.unit], [invB.unit]):
        if phi_orbits is None:
            phi_orbits = _entry_orbits(invB.dualAct, invA.dualAct)
        target = [ivec_mul(invB.iota, [row[c] for row in F])
                  for c in range(invA.m)]
        for phi in _equivariant(phi_orbits, (invB.mC, invA.mC), bound,
                                [invA.special] + iotaA,
                                [invB.special] + target):
            yield KPair(F, phi)


def ksearch(invA, invB, bound=None):
    """Every unital pair passing every check, in deterministic order;
    with an integer bound, only those with all entries <= bound.

    The enumeration proves each check_pair condition, so none is re-run:
    orbit values make F and phi nonnegative and equivariant, and _fits
    checks the unit class, the special element and the embedding square
    column by column.

    The search is finite without a bound: F * unitA = unitB with every
    unitA entry >= 1 caps each F entry, and phi * iotaA = iotaB * F with
    no zero row in iotaA caps each phi entry."""
    return list(_candidates(invA, invB, bound))


# ---------------------------------------------------------------------------
# finite-depth intertwining
# ---------------------------------------------------------------------------


@dataclass
class Tower:
    systems: list            # CanonicalForms
    maps: list               # unital EqHoms between consecutive systems

    def connecting(self, i, j):
        """Composite map from stage i to stage j (i <= j)."""
        if i == j:
            return identity_hom(self.systems[i])
        h = self.maps[i]
        for k in range(i + 1, j):
            h = hom_compose(self.maps[k], h)
        return h


def validate_tower(t):
    rep = Report()
    rep.add("stage count", len(t.maps) == len(t.systems) - 1)
    if not rep.ok:
        return rep
    for i, h in enumerate(t.maps):
        rep.add("map %d endpoints" % i,
                h.source.same_shape(t.systems[i])
                and h.target.same_shape(t.systems[i + 1]))
        sub = hom_validate(h)
        rep.add("map %d valid" % i, sub.ok,
                "" if sub.ok else sub.failures()[0].detail or
                sub.failures()[0].name)
        rep.add("map %d unital" % i, h.unital)
    return rep


@dataclass
class TriangleRecord:
    kind: str                # "A" (chi o psi = conn A) or "B"
    left_stage: int
    right_stage: int
    correction: list         # per-target-block unitaries applied


@dataclass
class IntertwiningCertificate:
    towerA: object
    towerB: object
    a_stages: list           # indices into towerA, increasing
    b_stages: list           # indices into towerB, increasing
    forward: list            # EqHom A_{a_i} -> B_{b_i}
    backward: list           # EqHom B_{b_i} -> A_{a_{i+1}}
    triangles: list          # TriangleRecords in construction order
    pairs: list              # invariant morphisms of the forward maps


def intertwine(tA, tB, pairs=None, depth=3):
    """Finite-depth intertwining with exact triangle identities.

    Stage i of each tower is used for i < steps, steps the least of
    depth, the two tower lengths and len(pairs). The hops are psi_i:
    A_i -> B_i and, unless i is the last, chi_i: B_i -> A_{i+1}. _plan
    picks every hop's invariant morphism; each is then lifted and, from
    the second hop on, corrected so that its triangle commutes.
    """
    # a tower intertwined with itself is validated once
    for name, tower in (("A", tA), ("B", tB))[:2 - (tB is tA)]:
        rep = validate_tower(tower)
        if not rep.ok:
            raise AfzpError("tower %s invalid:\n%s" % (name, rep.summary()))
    steps = min(depth, len(tA.systems), len(tB.systems))
    if pairs is not None:
        steps = min(steps, len(pairs))
    if steps < 1:
        raise ReindexFailed("nothing to intertwine: the depth, the towers "
                            "and the pairs leave no stage")
    plan = _plan(tA, tB, steps, pairs)
    cert = IntertwiningCertificate(tA, tB, list(range(steps)),
                                   list(range(steps)), [], [], [], plan[::2])
    prev = None
    for k, ((X, tX, i), (Y, tY, j)) in enumerate(_hops(tA, tB, steps)):
        try:
            h = _lift(plan[k], tX.systems[i], tY.systems[j])
        except AfzpError as exc:
            raise LiftFailed("%s%d->%s%d" % (X, i, Y, j), exc)
        if prev is not None:
            try:
                w, _ = equiv_unitary(tY.maps[j - 1], hom_compose(h, prev))
            except AfzpError as exc:
                raise CorrectionFailed("%s%d->%s%d" % (Y, j - 1, Y, j), exc)
            h = conjugate_hom(w, h)
            cert.triangles.append(TriangleRecord(Y, j - 1, j, w))
        (cert.backward if k % 2 else cert.forward).append(h)
        prev = h
    return cert


def _hops(tA, tB, steps):
    """The chain's hops A_0 -> B_0 -> A_1 -> ... -> B_{steps-1}, each a
    (source, target) of stages (tower name, tower, index)."""
    stages = [(name, tower, i) for i in range(steps)
              for name, tower in (("A", tA), ("B", tB))]
    return list(zip(stages, stages[1:]))


def _plan(tA, tB, steps, pairs=None):
    """The invariant morphism of every hop, from the stage invariants and
    the towers' connecting pairs alone: psi_i is pairs[i] if given,
    checked by check_pair, and any other hop takes the first ksearch
    candidate. From the second hop on, the morphism after the previous
    one must be the pair of the target tower's map j-1 -> j."""
    plan = []
    for k, ((X, tX, i), (Y, tY, j)) in enumerate(_hops(tA, tB, steps)):
        invX = invariant_of(tX.systems[i])
        invY = invariant_of(tY.systems[j])
        want = induced_map(tY.maps[j - 1]) if plan else None
        triangle = "%s%d -> %s%d" % (Y, j - 1, Y, j)
        if pairs is not None and not k % 2:
            kp = pairs[i]
            rep = check_pair(kp, invX, invY)
            if not rep.ok:
                raise ReindexFailed(
                    "given pair %d fails the invariant checks at stages "
                    "%s%d -> %s%d" % (i, X, i, Y, j))
            if plan and compose_pairs(kp, plan[-1]) != want:
                raise ReindexFailed("given pair %d does not close the "
                                    "invariant triangle at %s" % (i, triangle))
            if not kp.unital:
                rep.add("unital flag", False, "lift requires a unital pair")
                raise LiftFailed("%s%d->%s%d" % (X, i, Y, j),
                                 PairCheckFailed(rep))
        else:
            kp = next((c for c in _candidates(invX, invY, None)
                       if not plan or compose_pairs(c, plan[-1]) == want),
                      None)
            if kp is None:
                raise ReindexFailed(
                    "no invariant morphism from %s%d to %s%d%s"
                    % (X, i, Y, j, " closes the triangle at " + triangle
                       if plan else ""))
        plan.append(kp)
    return plan


def verify_certificate(cert):
    """Replay every identity in the certificate from scratch. An identity
    involving a tower that fails validation, or a hom that fails
    validation or does not map the stages it stands between, is reported
    as failed without being evaluated."""
    rep = Report()
    valid = {}
    # a tower intertwined with itself is validated once
    a_ok = validate_tower(cert.towerA).ok
    for name, tower in (("tower A", cert.towerA), ("tower B", cert.towerB)):
        valid[name] = rep.add(name + " valid", a_ok if tower is cert.towerA
                              else validate_tower(tower).ok)

    def check_hom(name, h, source, target):
        """h is valid and maps stage source = (X, tower, i) to target."""
        ok = rep.add(name + " valid", hom_validate(h).ok)
        (X, tX, i), (Y, tY, j) = source, target
        ends = rep.add("%s maps %s%d -> %s%d" % (name, X, i, Y, j),
                       h.source.same_shape(tX.systems[i])
                       and h.target.same_shape(tY.systems[j]))
        valid[name] = ok and ends

    def replay(name, involved, defect):
        """defect() is None when the identity holds, else the detail."""
        bad = [h for h in involved if not valid.get(h)]
        found = "not checked: %s is invalid" % bad[0] if bad else defect()
        rep.add(name, found is None, found or "")

    for i, psi in enumerate(cert.forward):
        check_hom("forward hom %d" % i, psi,
                  ("A", cert.towerA, cert.a_stages[i]),
                  ("B", cert.towerB, cert.b_stages[i]))
        replay("forward hom %d induces its pair" % i, ["forward hom %d" % i],
               lambda: None if induced_map(psi) == cert.pairs[i]
               else "it induces another pair")
    for i, chi in enumerate(cert.backward):
        check_hom("backward hom %d" % i, chi,
                  ("B", cert.towerB, cert.b_stages[i]),
                  ("A", cert.towerA, cert.a_stages[i + 1]))
    for i, chi in enumerate(cert.backward):
        ai, a_next = cert.a_stages[i], cert.a_stages[i + 1]
        replay("triangle over A%d -> A%d commutes" % (ai, a_next),
               ["tower A", "forward hom %d" % i, "backward hom %d" % i],
               lambda: maps_defect(
                   hom_compose(chi, cert.forward[i]),
                   cert.towerA.connecting(ai, a_next)))
        bi, b_next = cert.b_stages[i], cert.b_stages[i + 1]
        replay("triangle over B%d -> B%d commutes" % (bi, b_next),
               ["tower B", "backward hom %d" % i, "forward hom %d" % (i + 1)],
               lambda: maps_defect(
                   hom_compose(cert.forward[i + 1], chi),
                   cert.towerB.connecting(bi, b_next)))
    for rec in cert.triangles:
        # one unitary per block of the stage the correction acts on
        tower = cert.towerA if rec.kind == "A" else cert.towerB
        ok = ([w.rows for w in rec.correction]
              == tower.systems[rec.right_stage].block_sizes
              and all(w.is_unitary() for w in rec.correction))
        rep.add("correction on triangle %s%d->%d is unitary"
                % (rec.kind, rec.left_stage, rec.right_stage), ok)
    return rep
