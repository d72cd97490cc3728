"""Seeded input generators for the benchmark workloads.

Every input is rebuilt here from the workload seed through afzp's public
API; nothing is imported from the test suite. Each generator takes `afz`,
the namespace of freshly imported afzp modules (see run.load_afzp), so
that set-up time covers the import as well.
"""

import itertools
import random


def fixed_multisets(p, max_n):
    """Every sorted exponent list of length 1..max_n over range(p)."""
    return [list(combo) for n in range(1, max_n + 1)
            for combo in itertools.combinations_with_replacement(range(p), n)]


def canonical_form(afz, ctx, pieces):
    """Canonical form from ("fixed", exponents) / ("cycle", n) specs."""
    built = []
    for kind, data in pieces:
        if kind == "fixed":
            v = afz.matrix.Mat.diag(ctx, [ctx.zeta_p(e) for e in data])
            built.append(afz.system.IrredPiece("fixed", len(data), v))
        else:
            built.append(afz.system.IrredPiece("cycle", data))
    return afz.system.CanonicalForm(ctx, ctx.p, built)


def existence_cells(afz, seed):
    """The criterion-5 grid (p in {2, 3}, field order 4p^2): every
    (source, target) cell, in seed-shuffled order. Forms are shared
    between the cells of one grid, as a caller reusing them would."""
    cells = []
    for p in (2, 3):
        ctx = afz.cyclo.FieldContext(p)
        sources = [[("fixed", e)] for e in fixed_multisets(p, 3)] + \
            [[("cycle", n)] for n in (1, 2)] + \
            [[("fixed", [0]), ("cycle", 1)]]
        targets = [[("fixed", e)] for e in fixed_multisets(p, 6)] + \
            [[("cycle", n)] for n in range(1, 7)] + \
            [[("fixed", [0, 1]), ("cycle", 2)]]
        sources = [canonical_form(afz, ctx, s) for s in sources]
        targets = [canonical_form(afz, ctx, t) for t in targets]
        cells.extend(itertools.product(sources, targets))
    random.Random(seed).shuffle(cells)
    return cells


def uniqueness_lifts(afz, seed):
    """The criterion-6 grid (p in {2, 3}, field order 4p^2): one lift per
    invariant-morphism pair, as (target form, lift), in seed-shuffled
    order."""
    items = []
    for p in (2, 3):
        ctx = afz.cyclo.FieldContext(p)
        sources = [[("fixed", e)] for e in fixed_multisets(p, 2)] + \
            [[("cycle", 1)]]
        targets = [[("fixed", e)] for e in fixed_multisets(p, 4)] + \
            [[("cycle", n)] for n in (1, 2)] + \
            [[("fixed", [0, 1]), ("cycle", 1)]]
        targets = [canonical_form(afz, ctx, t) for t in targets]
        for spec in sources:
            src = canonical_form(afz, ctx, spec)
            inv_s = afz.kinv.invariant_of(src)
            for tgt in targets:
                inv_t = afz.kinv.invariant_of(tgt)
                for kp in afz.classify.ksearch(inv_s, inv_t, 3):
                    items.append((tgt, afz.classify.lift(kp, src, tgt)))
    random.Random(seed).shuffle(items)
    return items


def fixed_point_unitary(afz, tgt, rng):
    """Random unitary in the fixed-point algebra of a canonical form:
    permutations within equal-eigenvalue groups times root-of-unity
    diagonals on fixed pieces; one such unitary repeated over the p
    blocks of a cycle piece."""
    Mat = afz.matrix.Mat
    ctx, p = tgt.ctx, tgt.p
    out = [None] * tgt.m
    for ti, piece in enumerate(tgt.pieces):
        off = tgt.piece_offsets[ti]
        images = list(range(piece.n))
        if piece.kind == "fixed":
            exps = afz.matrix.diag_root_exponents(piece.v, p)
            for val in sorted(set(exps)):
                grp = [i for i, e in enumerate(exps) if e == val]
                shuffled = grp[:]
                rng.shuffle(shuffled)
                for a, b in zip(grp, shuffled):
                    images[a] = b
        else:
            rng.shuffle(images)
        w = Mat.permutation(ctx, images) * Mat.diag(
            ctx, [ctx.root(rng.randrange(ctx.order)) for _ in range(piece.n)])
        for r in range(piece.block_count(p)):
            out[off + r] = w
    return out


def _dense_tuple(afz, ctx, sizes, rng):
    RAT = afz.rat.RAT
    return [afz.matrix.Mat.from_rows(
        ctx, [[RAT(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
              for _ in range(n)]) for n in sizes]


def crossed_elements(afz, seed, pairs_per_form):
    """Crossed products at the minimal field order p, p in {2, 3, 5}, of
    one fixed piece for each n <= 4 and one cycle piece for each n <= 3,
    each with `pairs_per_form` pairs (x, y) of dense random elements with
    rational entries in {-2..2}/{1,2}. Returns (presentation, x, y) in
    seed-shuffled order.

    The fixed pieces' exponents are 0, -1, -2, ... mod p rather than
    random: at order p the power zeta_p^(p-1) has every coefficient
    nonzero, so random exponents would make the cost depend on the seed.
    """
    rng = random.Random(seed)
    items = []
    for p in (2, 3, 5):
        ctx = afz.cyclo.FieldContext(p, p)
        specs = [[("fixed", sorted(-i % p for i in range(n)))]
                 for n in range(1, 5)] + [[("cycle", n)] for n in (1, 2, 3)]
        for spec in specs:
            cp = afz.crossed.crossed_product(canonical_form(afz, ctx, spec))
            sizes = cp.source.block_sizes
            for _ in range(pairs_per_form):
                x, y = (afz.crossed.CrossedElement(
                    [_dense_tuple(afz, ctx, sizes, rng) for _ in range(p)])
                    for _ in range(2))
                items.append((cp, x, y))
    rng.shuffle(items)
    return items
