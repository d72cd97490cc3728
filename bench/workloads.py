"""The four benchmark workloads.

Each workload is a closed loop driven by run.py: one caller issues a
step, waits for its result and issues the next. A step is one op, or
None when uniqueness skips a draw. Every op produces output bytes (the
`dumps` of its results, hashed into the run's digest) and checks its
results exactly; a failed check marks the op failed and the run goes on.

A round is one pass over the workload's inputs, in seed-shuffled order;
a run stops only at the end of a round, so every run does the same work
and only its order depends on the seed.
"""

import collections
import hashlib
import random

import inputs

# clock() readings at the op's start, at the start and end of producing
# its results (certify) and at its end; checking them (replay) runs from
# certify_end to end.
Op = collections.namedtuple("Op", "start certify_start certify_end end ok blob")


class Workload:
    """Takes the clock that times its ops."""

    def __init__(self, clock):
        self.clock = clock


class Towers(Workload):
    """Product towers: large sparse monomial matrices (up to 27x27), so
    time goes to hom_validate, decompose and serialization. One op per
    scenario; a round is the three scenarios. The seed is unused: the
    towers are fixed."""

    name = "towers"
    SCENARIOS = (("p2-d4-self", 2, 4, False),
                 ("p2-d4-resorted", 2, 4, True),
                 ("p3-d3-self", 3, 3, False))
    round_len = len(SCENARIOS)
    count_steps = round_len

    def setup(self, afz, seed):
        self.afz = afz
        self.field_orders = {p: afz.cyclo.FieldContext(p).order
                             for _, p, _, _ in self.SCENARIOS}
        self.first_bytes = {}

    def reset(self):
        self.index = 0

    def step(self):
        afz = self.afz
        name, p, depth, resorted = self.SCENARIOS[self.index % self.round_len]
        self.index += 1
        clock = self.clock
        t0 = clock()
        tower_a = afz.demos.product_tower(p, depth)
        if resorted:
            tower_b = afz.demos.product_tower(p, depth, resorted=True)
            pairs = None
        else:
            tower_b = tower_a
            pairs = afz.demos.identity_pairs(tower_a, depth)
        t1 = clock()
        cert = afz.classify.intertwine(tower_a, tower_b, pairs=pairs,
                                       depth=depth)
        blob = afz.serialize.dumps(cert).encode()
        t2 = clock()
        ok = afz.classify.verify_certificate(afz.serialize.loads(blob)).ok
        t3 = clock()
        # a scenario must give the same certificate bytes every time
        digest = hashlib.sha256(blob).digest()
        ok = ok and self.first_bytes.setdefault(name, digest) == digest
        return Op(t0, t1, t2, t3, ok, blob)


class Existence(Workload):
    """The criterion-5 grid, one op per (source, target) cell: many tiny
    objects, so per-call overhead dominates and crossed_product is rebuilt
    for every invariant and induced map."""

    name = "existence"
    count_steps = 100

    def setup(self, afz, seed):
        self.afz = afz
        self.cells = inputs.existence_cells(afz, seed)
        self.round_len = len(self.cells)
        self.field_orders = {s.p: s.ctx.order for s, _ in self.cells}

    def reset(self):
        self.index = 0

    def step(self):
        afz = self.afz
        src, tgt = self.cells[self.index % self.round_len]
        self.index += 1
        clock = self.clock
        t0 = clock()
        kps = afz.classify.ksearch(afz.kinv.invariant_of(src),
                                   afz.kinv.invariant_of(tgt), 3)
        homs = [afz.classify.lift(kp, src, tgt) for kp in kps]
        blob = b"".join(afz.serialize.dumps(h).encode() for h in homs)
        t1 = clock()
        ok = all(afz.kinv.induced_map(h) == kp for h, kp in zip(homs, kps))
        t2 = clock()
        return Op(t0, t0, t1, t2, ok, blob)


class Uniqueness(Workload):
    """The criterion-6 grid: each step conjugates a lift by a seed-random
    fixed-point unitary; a draw that leaves the lift unchanged as a map is
    skipped, any other is one op that recovers the correcting unitary W.
    The only workload where equiv_unitary and equal_as_maps do most of
    the work."""

    name = "uniqueness"
    count_steps = 40

    def setup(self, afz, seed):
        self.afz = afz
        self.seed = seed
        self.items = inputs.uniqueness_lifts(afz, seed)
        self.round_len = len(self.items)
        self.field_orders = {t.p: t.ctx.order for t, _ in self.items}

    def reset(self):
        self.index = 0
        self.rng = random.Random(self.seed)

    def step(self):
        afz = self.afz
        tgt, h1 = self.items[self.index % self.round_len]
        self.index += 1
        u = inputs.fixed_point_unitary(afz, tgt, self.rng)
        clock = self.clock
        t0 = clock()
        h2 = afz.classify.conjugate_hom(u, h1)
        if afz.system.equal_as_maps(h1, h2):
            return None
        W, _ = afz.classify.equiv_unitary(h1, h2)
        blob = afz.serialize.dumps(W).encode()
        t1 = clock()
        ok = (all(w.is_unitary() for w in W)
              and _in_fixed_point_algebra(tgt, W)
              and afz.system.equal_as_maps(
                  afz.classify.conjugate_hom(W, h2), h1))
        t2 = clock()
        return Op(t0, t0, t1, t2, ok, blob)


def _in_fixed_point_algebra(tgt, W):
    """W commutes with each fixed piece's V and is constant over the
    blocks of each cycle piece."""
    for ti, piece in enumerate(tgt.pieces):
        off = tgt.piece_offsets[ti]
        if piece.kind == "fixed":
            if W[off] * piece.v != piece.v * W[off]:
                return False
        elif any(W[off + r] != W[off] for r in range(tgt.p)):
            return False
    return True


class CrossedDense(Workload):
    """Crossed-product identification laws on dense random elements at
    the minimal field order p: the cyclo and matrix layers with mostly
    nonzero entries and coefficients, the opposite of towers. Never calls
    hom_validate or ksearch."""

    name = "crossed-dense"
    count_steps = 100
    PAIRS_PER_FORM = 16

    def setup(self, afz, seed):
        self.afz = afz
        self.items = inputs.crossed_elements(afz, seed, self.PAIRS_PER_FORM)
        self.round_len = len(self.items)
        self.field_orders = {cp.p: cp.ctx.order for cp, _, _ in self.items}

    def reset(self):
        self.index = 0

    def step(self):
        cp, x, y = self.items[self.index % self.round_len]
        self.index += 1
        clock = self.clock
        t0 = clock()
        xy = cp.identify(cp.mul(x, y))
        x_star = cp.identify(cp.adjoint(x))
        blob = self.afz.serialize.dumps(xy).encode()
        t1 = clock()
        ix, iy = cp.identify(x), cp.identify(y)
        ok = (xy == [a * b for a, b in zip(ix, iy)]
              and x_star == [m.dagger() for m in ix]
              and cp.unidentify(ix) == x)
        t2 = clock()
        return Op(t0, t0, t1, t2, ok, blob)


WORKLOADS = {w.name: w for w in (Towers, Existence, Uniqueness, CrossedDense)}
