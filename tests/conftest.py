import random

import pytest

from afzp._rat import RAT
from afzp.cyclo import FieldContext
from afzp.matrix import Mat
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


@pytest.fixture
def rng():
    return random.Random(20240901)
