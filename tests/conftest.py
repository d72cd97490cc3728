import itertools
import random

import pytest

from afzp._rat import RAT, is_integer
from afzp.crossed import ExtendedHom, crossed_product
from afzp.cyclo import FieldContext
from afzp.errors import NonIntegralMultiplicity
from afzp.kinv import KPair
from afzp.matrix import Mat, diag_root_exponents
from afzp.system import CanonicalForm, IrredPiece, unit_tuple


_CTX_CACHE = {}


def ctx_for(p, order=None):
    key = (p, order)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldContext(p, order)
    return _CTX_CACHE[key]


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


def rand_rat(rng, span=2):
    return RAT(rng.randint(-span, span), rng.randint(1, 2))


def rand_mat(ctx, rng, n, span=2):
    return Mat.from_rows(ctx, [[rand_rat(rng, span) for _ in range(n)]
                               for _ in range(n)])


def rand_tuple(form, rng, span=2):
    return [rand_mat(form.ctx, rng, n, span) for n in form.block_sizes]


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
    return all(h.apply(src.apply_action(a)) == tgt.apply_action(h.apply(a))
               for a in _all_units(src))


def all_units_equal(h1, h2):
    """Oracle for equal_as_maps: equal images of every matrix unit."""
    return (h1.source.same_shape(h2.source)
            and h1.target.same_shape(h2.target)
            and all(h1.apply(a) == h2.apply(a) for a in _all_units(h1.source)))


def _multiplicity(x, what):
    tr = x.trace().rational_part()
    if tr is None or not is_integer(tr) or tr < 0:
        raise NonIntegralMultiplicity("%s is %r" % (what, tr))
    return int(tr)


def roundtrip_induced(h):
    """Oracle for induced_map, without validating h: F from the traces of
    psi(E_00) per source block, phi from the traces of the extension of h
    to the crossed products, applied to a minimal projection of every
    crossed block through unidentify, h coefficient-wise and identify."""
    src, tgt = h.source, h.target
    images = [h.apply(unit_tuple(src.ctx, src.block_sizes, s, 0, 0))
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


@pytest.fixture
def rng():
    return random.Random(20240901)
