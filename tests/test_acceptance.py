"""Acceptance criteria.

Every check is exact (tolerance zero: all identities are over exact
field arithmetic); each criterion prints one pass/fail line and asserts
its stated instance counts and time budget.

Run with: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import itertools
import random
import time

import pytest

from afzp.classify import (conjugate_hom, equiv_unitary, intertwine, ksearch,
                           lift, verify_certificate)
from afzp.crossed import CrossedElement, crossed_product
from afzp.demos import identity_pairs, naive_doubling_tower, product_tower
from afzp.errors import FormatError
from afzp.kinv import (KPair, compose_pairs, induced_map, invariant_of)
from afzp.matrix import Mat
from afzp.serialize import dumps, loads
from afzp.system import decompose, equal_as_maps, hom_compose

from conftest import (ElementCrossed, ctx_for, cycle_form, fixed_form,
                      fixed_point_unitary, form_system, mixed_form,
                      rand_tuple)
from test_classify import intertwiner_space_membership


def _report(name, elapsed, limit, detail=""):
    line = "[PASS] %s (%.2fs < %.0fs)" % (name, elapsed, limit)
    if detail:
        line += " " + detail
    print(line)


def _rand_element(cp, rng):
    return CrossedElement([rand_tuple(cp.source, rng) for _ in range(cp.p)])


def fixed_multisets(p, max_n):
    out = []
    for n in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(range(p), n):
            out.append(list(combo))
    return out


def test_criterion_1_fixed_piece_identification_laws():
    """Identification of a fixed piece's crossed product is a unital
    *-isomorphism: p in {2,3,5}, n <= 4, random diagonal order-p
    implementing unitaries, >= 100 random element pairs, exact."""
    start = time.monotonic()
    rng = random.Random(1001)
    pairs_checked = 0
    for p in (2, 3, 5):
        ctx = ctx_for(p, p)
        for _ in range(3):
            n = rng.randint(1, 4)
            exps = sorted(rng.randrange(p) for _ in range(n))
            form = fixed_form(ctx, exps)
            cp = ElementCrossed(form)
            one = cp.embed([Mat.identity(ctx, n)])
            assert cp.identify(one) == [Mat.identity(ctx, n)] * p
            for _ in range(13):
                x, y = _rand_element(cp, rng), _rand_element(cp, rng)
                ix, iy = cp.identify(x), cp.identify(y)
                assert cp.identify(cp.mul(x, y)) == \
                    [a * b for a, b in zip(ix, iy)]
                assert cp.identify(cp.adjoint(x)) == [m.dagger() for m in ix]
                pairs_checked += 1
    elapsed = time.monotonic() - start
    assert pairs_checked >= 100
    assert elapsed < 5.0
    _report("criterion 1: fixed-piece crossed identification laws",
            elapsed, 5, "(%d pairs)" % pairs_checked)


def test_criterion_2_cycle_piece_identification_laws():
    """Same regime for cycle pieces, n <= 3."""
    start = time.monotonic()
    rng = random.Random(1002)
    pairs_checked = 0
    for p in (2, 3, 5):
        ctx = ctx_for(p, p)
        for n in (1, 2, 3):
            form = cycle_form(ctx, n)
            cp = ElementCrossed(form)
            one = cp.embed([Mat.identity(ctx, n)] * p)
            assert cp.identify(one) == [Mat.identity(ctx, p * n)]
            reps = 13 if n < 3 else 12
            for _ in range(reps):
                x, y = _rand_element(cp, rng), _rand_element(cp, rng)
                ix, iy = cp.identify(x), cp.identify(y)
                assert cp.identify(cp.mul(x, y)) == \
                    [a * b for a, b in zip(ix, iy)]
                assert cp.identify(cp.adjoint(x)) == [m.dagger() for m in ix]
                pairs_checked += 1
    elapsed = time.monotonic() - start
    assert pairs_checked >= 100
    assert elapsed < 5.0
    _report("criterion 2: cycle-piece crossed identification laws",
            elapsed, 5, "(%d pairs)" % pairs_checked)


def test_criterion_3_k_data_per_piece():
    """Embedding on classes is duplication / coordinate sum; the dual
    action is the stated permutation / trivial; the special element
    equals the class of the averaging projection computed independently
    from q = (1/p) sum U^j. All exact."""
    start = time.monotonic()
    rng = random.Random(1003)
    for p in (2, 3, 5):
        ctx = ctx_for(p, p)
        # fixed pieces
        for _ in range(3):
            n = rng.randint(1, 4)
            exps = sorted(rng.randrange(p) for _ in range(n))
            form = fixed_form(ctx, exps)
            inv = invariant_of(form)
            assert inv.iota == [[1]] * p                    # duplication
            expected_dual = tuple((r + 1) % p for r in range(p))
            assert inv.dualAct == expected_dual             # cyclic shift
            assert inv.act == (0,)                          # trivial
            cp = ElementCrossed(form)
            _, mats, ranks = cp.averaging_projection()
            for q in mats:
                assert q * q == q and q.dagger() == q
            assert ranks == inv.special
            assert inv.special == [exps.count(k) for k in range(p)]
        # cycle pieces
        for n in (1, 2):
            form = cycle_form(ctx, n)
            inv = invariant_of(form)
            assert inv.iota == [[1] * p]                    # coordinate sum
            assert inv.dualAct == (0,)                      # trivial
            expected_act = tuple((r - 1) % p for r in range(p))
            assert inv.act == expected_act
            cp = ElementCrossed(form)
            _, mats, ranks = cp.averaging_projection()
            assert mats[0] * mats[0] == mats[0]
            assert ranks == inv.special == [n]
    elapsed = time.monotonic() - start
    _report("criterion 3: per-piece invariant data vs averaging projection",
            elapsed, 5)
    assert elapsed < 5.0


def test_criterion_4_double_crossed_collapse():
    """Double crossed product of every fixed piece M_n is one block of
    size p*n (dimension p^2 n^2), p in {2,3,5}, n <= 4."""
    start = time.monotonic()
    for p in (2, 3, 5):
        ctx = ctx_for(p, p * p)
        for n in range(1, 5):
            for exps in ([0] * n, sorted(i % p for i in range(n))):
                form = fixed_form(ctx, list(exps))
                cp = crossed_product(form)
                double = crossed_product(decompose(cp.dual_system()))
                assert double.block_sizes == [p * n]
                assert sum(b * b for b in double.block_sizes) == \
                    p * p * n * n
    elapsed = time.monotonic() - start
    _report("criterion 4: double crossed product collapses to one block",
            elapsed, 5)
    assert elapsed < 5.0


def _existence_grid(p):
    ctx = ctx_for(p)
    sources = [fixed_form(ctx, e) for e in fixed_multisets(p, 3)] + \
        [cycle_form(ctx, n) for n in (1, 2)] + \
        [mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])]
    targets = [fixed_form(ctx, e) for e in fixed_multisets(p, 6)] + \
        [cycle_form(ctx, n) for n in range(1, 7)] + \
        [mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 2)])]
    return sources, targets


# sha256 of the concatenated dumps of every criterion-5 lift, in grid order
EXISTENCE_LIFTS_SHA256 = \
    "4ba913de443f1380db7d33c5ad1ecdbf7296efe92dffe7d3089435bc59d33bb8"


def test_criterion_5_existence_exhaustive_grid():
    """Every invariant-morphism pair with entries <= 3 that passes all
    checks lifts, and the lift induces that exact pair back; piece sizes
    <= 6, p in {2,3}, >= 500 grid instances. The lifts' bytes are
    pinned."""
    start = time.monotonic()
    instances = 0
    digest = hashlib.sha256()
    for p in (2, 3):
        sources, targets = _existence_grid(p)
        invs_s = [invariant_of(s) for s in sources]
        invs_t = [invariant_of(t) for t in targets]
        for s, inv_s in zip(sources, invs_s):
            for t, inv_t in zip(targets, invs_t):
                for kp in ksearch(inv_s, inv_t, 3):
                    h = lift(kp, s, t)       # validates internally
                    assert induced_map(h) == kp
                    digest.update(dumps(h).encode())
                    instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 500, instances
    assert digest.hexdigest() == EXISTENCE_LIFTS_SHA256
    assert elapsed < 60.0
    _report("criterion 5: existence on the exhaustive grid", elapsed, 60,
            "(%d instances)" % instances)


def test_criterion_6_uniqueness_with_oracle():
    """>= 200 pairs of distinct homs with identical induced pairs: the
    correction W is unitary, commutes with the implementing unitaries,
    conjugates one hom into the other, and lies in the independently
    solved linear intertwiner space."""
    start = time.monotonic()
    rng = random.Random(1006)
    count = 0
    for p in (2, 3):
        ctx = ctx_for(p)
        sources = [fixed_form(ctx, e) for e in fixed_multisets(p, 2)] + \
            [cycle_form(ctx, 1)]
        targets = [fixed_form(ctx, e) for e in fixed_multisets(p, 4)] + \
            [cycle_form(ctx, n) for n in (1, 2)] + \
            [mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 1)])]
        for s in sources:
            inv_s = invariant_of(s)
            for t in targets:
                for kp in ksearch(inv_s, invariant_of(t), 3):
                    h1 = lift(kp, s, t)
                    for _ in range(3):
                        h2 = conjugate_hom(fixed_point_unitary(t, rng), h1)
                        if equal_as_maps(h1, h2):
                            continue
                        assert induced_map(h2) == kp
                        W, _wit = equiv_unitary(h1, h2)
                        assert all(w.is_unitary() for w in W)
                        for ti, piece in enumerate(t.pieces):
                            off = t.piece_offsets[ti]
                            if piece.kind == "fixed":
                                assert W[off] * piece.v == piece.v * W[off]
                            else:
                                assert all(W[off + r] == W[off]
                                           for r in range(p))
                        assert equal_as_maps(conjugate_hom(W, h2), h1)
                        assert intertwiner_space_membership(h1, h2, W)
                        count += 1
    elapsed = time.monotonic() - start
    assert count >= 200, count
    assert elapsed < 60.0
    _report("criterion 6: uniqueness with intertwiner-space oracle",
            elapsed, 60, "(%d hom pairs)" % count)


def test_criterion_7_intertwining_towers():
    """Product-type towers intertwine with exactly re-verifiable
    certificates: order 2 to depth 4 (plain and reshuffled), order 3 to
    depth 3; under 10 seconds each."""
    start = time.monotonic()
    tA = product_tower(2, 4)
    certA = intertwine(tA, tA, pairs=identity_pairs(tA, 4), depth=4)
    assert verify_certificate(certA).ok
    tB = product_tower(2, 4, resorted=True)
    certAB = intertwine(tA, tB, depth=4)
    assert verify_certificate(certAB).ok
    elapsed_p2 = time.monotonic() - start
    assert elapsed_p2 < 10.0

    start3 = time.monotonic()
    tC = product_tower(3, 3)
    certC = intertwine(tC, tC, pairs=identity_pairs(tC, 3), depth=3)
    assert verify_certificate(certC).ok
    elapsed_p3 = time.monotonic() - start3
    assert elapsed_p3 < 10.0
    _report("criterion 7: intertwining certificates",
            elapsed_p2 + elapsed_p3, 20,
            "(order 2: %.2fs, order 3: %.2fs)" % (elapsed_p2, elapsed_p3))


def test_p2_depth_9_tower_certificate_round_trips():
    """The p=2 depth-9 tower (stages up to 512 x 512) intertwines with
    itself through identity pairs, and its certificate verifies after a
    dumps/loads round trip. No timing gate."""
    tower = product_tower(2, 9)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 9), depth=9)
    text = dumps(cert)
    again = loads(text)
    assert dumps(again) == text
    assert verify_certificate(again).ok


def _p5_towers_intertwine(order):
    """The p=5 towers intertwine with no pairs given: the map from B0 to
    A1 has F = [[5]], which the pair search reaches because only the
    unit classes bound it. The certificate replays after a JSON round
    trip."""
    tA = product_tower(5, 2, order=order)
    tB = product_tower(5, 2, resorted=True, order=order)
    assert tA.systems[0].ctx.order == (order or 100)
    cert = intertwine(tA, tB, depth=2)
    assert induced_map(cert.backward[0]).F == [[5]]
    assert verify_certificate(loads(dumps(cert))).ok


def test_p5_tower_intertwines_with_exhaustive_search():
    """At field order 5, the smallest the p=5 tower allows."""
    _p5_towers_intertwine(5)


def test_p5_tower_intertwines_at_default_order():
    """At the default field order 4p^2 = 100, where a scalar has 40
    coefficients."""
    _p5_towers_intertwine(None)


def test_criterion_8_negative_control():
    """The doubling tower with inner diag(1,...,1,-1) actions, read
    literally: the connecting maps fail equivariance with an explicit
    witness, and the invariant-morphism search (entries <= 3, unital)
    is empty with the special-element condition as the obstruction."""
    start = time.monotonic()
    data = naive_doubling_tower(3)
    for rep in data["hom_reports"]:
        assert not rep.ok
        witness = [f for f in rep.failures() if f.name == "equivariance"]
        assert witness and "unit" in witness[0].detail
    for found in data["searches"]:
        assert found == []
    for rep in data["obstructions"]:
        failed = [f.name for f in rep.failures()]
        assert failed == ["phi maps special element to special element"]
        detail = rep.failures()[0].detail
        assert "expected" in detail
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("criterion 8: doubling-tower negative control", elapsed, 5)


def test_criterion_9_functoriality_and_serialization():
    """Induced maps are functorial on 100 composable hom pairs; JSON
    round-trips are bit-exact for every artifact kind."""
    start = time.monotonic()
    rng = random.Random(1009)
    checked = 0
    for p in (2, 3):
        ctx = ctx_for(p)
        small = [fixed_form(ctx, [0]), cycle_form(ctx, 1)]
        mid = [fixed_form(ctx, list(range(p))), cycle_form(ctx, 2),
               mixed_form(ctx, [("fixed", [0]), ("cycle", 1)]),
               fixed_form(ctx, [0] * p)]
        big = [fixed_form(ctx, sorted(list(range(p)) * 2)),
               mixed_form(ctx, [("fixed", list(range(p))), ("cycle", 2)]),
               cycle_form(ctx, 2 * p),
               fixed_form(ctx, sorted([0] * p + list(range(p))))]
        for a in small:
            for b in mid:
                k1s = ksearch(invariant_of(a), invariant_of(b), 3)
                for c in big:
                    k2s = ksearch(invariant_of(b), invariant_of(c), 3)
                    for kp1 in k1s:
                        h1 = lift(kp1, a, b)
                        for kp2 in k2s:
                            h2 = lift(kp2, b, c)
                            comp = hom_compose(h2, h1)
                            assert induced_map(comp) == \
                                compose_pairs(induced_map(h2),
                                              induced_map(h1))
                            checked += 1
                            if checked >= 100:
                                break
                        if checked >= 100:
                            break
                    if checked >= 100:
                        break
    assert checked >= 100, checked

    # serialization: bit-exact round trips over every document kind that
    # is read back; the crossed product is written only, and refused
    ctx = ctx_for(2)
    system = form_system(decompose(form_system(fixed_form(ctx, [0, 1]))))
    canonical = decompose(system)
    hom = lift(KPair([[2]], [[1, 1], [1, 1]]), fixed_form(ctx, [0]),
               fixed_form(ctx, [0, 1]))
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    artifacts = [system, canonical, hom, invariant_of(canonical),
                 induced_map(hom), tower, cert]
    for obj in artifacts:
        blob = dumps(obj)
        assert dumps(loads(blob)) == blob
    with pytest.raises(FormatError, match="unknown document kind 'crossed'"):
        loads(dumps(crossed_product(canonical)))
    elapsed = time.monotonic() - start
    _report("criterion 9: functoriality and bit-exact serialization",
            elapsed, 60, "(%d composable pairs)" % checked)
    assert elapsed < 60.0
