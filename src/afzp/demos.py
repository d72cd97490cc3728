"""Built-in scenario builders.

product_tower builds the tensor-product tower: stage n is the full
matrix algebra of size p^n with the action implemented by the n-fold
tensor power of diag(1, zeta_p, ..., zeta_p^{p-1}), connected by
a -> a (x) 1_p. These connecting maps intertwine the actions exactly, so
the tower self-intertwines and the classification engine runs forward.

naive_doubling_tower builds, stage for stage, the inner actions
implemented by diag(1, ..., 1, -1) on doubling matrix sizes with the
same a -> a (x) 1_2 connecting maps. Those maps do not intertwine the
actions and no invariant morphism between consecutive stages maps the
special element correctly; both failures are demonstrated with explicit
witnesses.
"""

from .cyclo import FieldContext
from .kinv import KPair, check_pair, invariant_of
from .classify import Tower, ksearch
from .matrix import Mat, blockdiag
from .system import (Arrangement, EqHom, FdSystem, Slot, decompose,
                     hom_validate)

__all__ = ["product_tower", "naive_doubling_tower", "identity_pairs"]


def _tensor_swap(ctx, k, p):
    """Permutation T with T (1_p kron a) T^dagger = a kron 1_p."""
    images = [0] * (k * p)
    for i in range(k):
        for c in range(p):
            images[c * k + i] = i * p + c
    return Mat.permutation(ctx, images)


def _reversal(ctx, n):
    return Mat.permutation(ctx, list(range(n - 1, -1, -1)))


def _tensor_maps(canon, outer):
    """The maps a -> a (x) 1_p between consecutive single-block stages,
    in canonical coordinates; stage n's system is its diagonal form
    conjugated by outer[n]."""
    ctx, p = canon[0].ctx, canon[0].p
    maps = []
    for n in range(len(canon) - 1):
        k = canon[n].block_sizes[0]
        zs = canon[n].iso.conjugators[0] * outer[n]
        zt = canon[n + 1].iso.conjugators[0] * outer[n + 1]
        conj = zt * _tensor_swap(ctx, k, p) * \
            blockdiag(ctx, [zs.dagger()] * p)
        slots = [Slot(0, k) for _ in range(p)]
        maps.append(EqHom(canon[n], canon[n + 1],
                          [Arrangement(slots, conj)], unital=True))
    return maps


def _stage(ctx, p, v):
    return decompose(FdSystem(ctx, p, [v.rows], (0,), [v]))


def product_tower(p, depth, resorted=False, order=None):
    """Tensor-product tower of depth `depth` (stages p, p^2, ..., p^depth).

    With resorted=True every stage's diagonal is rewritten in reversed
    position order; the stages decompose to the same canonical forms but
    the recorded connecting maps differ by permutations, so intertwining
    against the plain tower needs nontrivial inner corrections. The maps
    are not validated here: intertwine and verify_certificate validate
    every tower they read. order is the field order (default 4p^2).
    """
    ctx = FieldContext(p, order)
    exps = [0]
    canon = []
    outer = []     # per stage: extra permutation applied to positions
    for n in range(depth):
        exps = [(e + d) % p for e in exps for d in range(p)]
        size = p ** (n + 1)
        r = _reversal(ctx, size) if resorted else Mat.identity(ctx, size)
        vals = [ctx.zeta_p(e) for e in exps]
        canon.append(_stage(ctx, p, r * Mat.diag(ctx, vals) * r.dagger()))
        outer.append(r)
    return Tower(canon, _tensor_maps(canon, outer))


def identity_pairs(tower, count):
    """Identity invariant morphisms for self-intertwining."""
    out = []
    for i in range(count):
        inv = invariant_of(tower.systems[i])
        F = [[1 if r == c else 0 for c in range(inv.m)] for r in range(inv.m)]
        phi = [[1 if r == c else 0 for c in range(inv.mC)]
               for r in range(inv.mC)]
        out.append(KPair(F, phi))
    return out


def naive_doubling_tower(depth):
    """The doubling tower with inner actions by diag(1, ..., 1, -1), read
    literally with connecting maps a -> a (x) 1_2.

    Returns a dict with the canonical stages, the per-stage equivariance
    reports of the naive connecting maps (these fail, with the failing
    matrix unit named), and the per-stage exhaustive search results for
    invariant morphisms (empty, with the special-element obstruction
    shown on the scale-forced candidate)."""
    ctx = FieldContext(2)
    sizes = [2 ** n for n in range(1, depth + 1)]
    canon = [_stage(ctx, 2, Mat.diag(ctx, [ctx.one] * (size - 1) + [-ctx.one]))
             for size in sizes]
    maps = _tensor_maps(canon, [Mat.identity(ctx, size) for size in sizes])
    invs = [invariant_of(c) for c in canon]
    # the unit-class-forced candidate, shown with its failing check
    forced = KPair([[2]], [[1, 1], [1, 1]])
    return {
        "stages": canon,
        "hom_reports": [hom_validate(h) for h in maps],
        "searches": [ksearch(a, b) for a, b in zip(invs, invs[1:])],
        "obstructions": [check_pair(forced, a, b)
                         for a, b in zip(invs, invs[1:])],
    }
