import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import afzp.cli
from afzp.errors import NonIntegralMultiplicity, ShapeMismatch
from afzp.kinv import (KPair, check_pair, compose_pairs, induced_map,
                       invariant_of)
from afzp.matrix import Mat
from afzp.serialize import dump, dumps, load_json, save_json
from afzp.system import (Arrangement, EqHom, FdSystem, Slot, decompose,
                         hom_compose, hom_validate, identity_hom)
from afzp.classify import Tower, conjugate_hom, intertwine, ksearch, lift

from conftest import (corner_inclusion, ctx_for, cycle_form, fixed_form,
                      fixed_point_unitary, invariant_oracle, mixed_form,
                      piece_specs, roundtrip_induced)


def test_invariant_of_fixed_piece():
    ctx = ctx_for(2)
    inv = invariant_of(fixed_form(ctx, [0, 1]))
    assert inv.m == 1 and inv.unit == [2] and inv.act == (0,)
    assert inv.mC == 2 and inv.dualAct == (1, 0)
    assert inv.special == [1, 1]
    assert inv.iota == [[1], [1]]


def test_invariant_of_cycle_piece():
    ctx = ctx_for(2)
    inv = invariant_of(cycle_form(ctx, 1))
    assert inv.m == 2 and inv.unit == [1, 1]
    assert inv.act == (1, 0)
    assert inv.mC == 1 and inv.dualAct == (0,)
    assert inv.special == [1] and inv.iota == [[1, 1]]


def test_invariant_trivial_p3_special():
    ctx = ctx_for(3)
    inv = invariant_of(fixed_form(ctx, [0]))
    assert inv.special == [1, 0, 0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariant_is_cached_and_never_written(p, monkeypatch, capsys):
    """invariant_of keeps one invariant per form, equal to the uncached
    oracle; it still is after ksearch, lift, intertwine, dump and the
    CLI's kinv and checkpair have read it, and every ksearch candidate
    passes check_pair."""
    ctx = ctx_for(p)
    src = mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])
    tgt = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 2)])
    forms = (src, tgt)
    invs = [invariant_of(c) for c in forms]
    for c, inv in zip(forms, invs):
        assert invariant_of(c) is inv
        assert inv == invariant_oracle(c)
    invA, invB = invs
    pairs = ksearch(invA, invB)
    assert pairs and all(check_pair(kp, invA, invB).ok for kp in pairs)
    assert all(check_pair(kp, invA, invA).ok for kp in ksearch(invA, invA))
    h = lift(pairs[0], src, tgt)
    tower = Tower([src, tgt], [h])
    intertwine(tower, tower, depth=2)
    doc = dump(invA)
    doc["unit"][0] += 1
    doc["act"][0] += 1
    files = {"src": src, "ia": invA, "ib": invB, "kp": pairs[0]}
    monkeypatch.setattr(afzp.cli, "load_json", files.__getitem__)
    assert afzp.cli.main(["kinv", "src"]) == 0
    assert afzp.cli.main(["checkpair", "kp", "ia", "ib"]) == 0
    capsys.readouterr()
    for c, inv in zip(forms, invs):
        assert invariant_of(c) is inv
        assert inv == invariant_oracle(c)


def test_permutation_parts_have_order_dividing_p():
    for p in (2, 3):
        ctx = ctx_for(p)
        for form in (fixed_form(ctx, list(range(p))), cycle_form(ctx, 2),
                     mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])):
            inv = invariant_of(form)
            for perm in (inv.act, inv.dualAct):
                acc = perm
                for _ in range(p - 1):
                    acc = tuple(perm[i] for i in acc)
                assert acc == tuple(range(len(perm)))


def test_induced_map_identity():
    ctx = ctx_for(2)
    c = fixed_form(ctx, [0, 1])
    kp = induced_map(identity_hom(c))
    assert kp.F == [[1]]
    assert kp.phi == [[1, 0], [0, 1]]


def test_induced_map_scalar_embedding():
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 1])
    h = EqHom(src, tgt, [Arrangement([Slot(0, 1), Slot(0, 1)],
                                     Mat.identity(ctx, 2))], unital=True)
    kp = induced_map(h)
    assert kp.F == [[2]] and kp.phi == [[1, 1], [1, 1]]


def test_induced_map_cycle_to_fixed_constant_shapes():
    ctx = ctx_for(2)
    src = cycle_form(ctx, 1)
    tgt = fixed_form(ctx, [0, 1])
    kp = KPair([[1, 1]], [[1], [1]])
    h = lift(kp, src, tgt)
    got = induced_map(h)
    assert got.F == [[1, 1]] and got.phi == [[1], [1]]


def test_check_pair_accepts_valid_pair():
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0]))
    invB = invariant_of(fixed_form(ctx, [0, 1]))
    rep = check_pair(KPair([[2]], [[1, 1], [1, 1]]), invA, invB)
    assert rep.ok


def test_check_pair_special_obstruction_exhaustive():
    # (M2, diag(1,-1)) -> (M4, diag(1,1,1,-1)): no circulant phi with
    # F = [2] can move (1,1) onto (3,1)
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0, 1]))
    invB = invariant_of(fixed_form(ctx, [0, 0, 0, 1]))
    passing = []
    for l0 in range(4):
        for l1 in range(4):
            kp = KPair([[2]], [[l0, l1], [l1, l0]])
            if check_pair(kp, invA, invB).ok:
                passing.append((l0, l1))
    assert passing == []
    rep = check_pair(KPair([[2]], [[1, 1], [1, 1]]), invA, invB)
    assert [f.name for f in rep.failures()] == \
        ["phi maps special element to special element"]


def test_check_pair_permuted_special_passes():
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0, 1]))
    invB = invariant_of(fixed_form(ctx, [0, 0, 1, 1]))
    rep = check_pair(KPair([[2]], [[1, 1], [1, 1]]), invA, invB)
    assert rep.ok


def test_check_pair_shape_mismatch():
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0]))
    invB = invariant_of(fixed_form(ctx, [0, 1]))
    with pytest.raises(ShapeMismatch):
        check_pair(KPair([[1, 1]], [[1], [1]]), invA, invB)


def test_compose_pairs():
    kp = KPair([[2]], [[1, 1], [1, 1]])
    ident = KPair([[1]], [[1, 0], [0, 1]])
    assert compose_pairs(kp, ident) == kp
    doubled = compose_pairs(kp, KPair([[2]], [[1, 1], [1, 1]]))
    assert doubled.F == [[4]] and doubled.phi == [[2, 2], [2, 2]]


def test_compose_pairs_through_the_zero_algebra():
    """A middle zero algebra has no rows to carry the source's class
    count: composing through it into a nonzero target raises, and into a
    zero target still composes."""
    empty = KPair([], [], unital=False)
    with pytest.raises(ShapeMismatch, match="zero algebra"):
        compose_pairs(KPair([[]], [[], []], unital=False), empty)
    assert compose_pairs(empty, empty) == empty


def test_naturality_of_embedding_for_lifted_homs():
    # the induced pair of any engine hom passes every check, including
    # the commuting square
    ctx = ctx_for(2)
    src = mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])
    tgt = fixed_form(ctx, [0, 0, 1, 1])
    invA, invB = invariant_of(src), invariant_of(tgt)
    for kp in ksearch(invA, invB, 3):
        h = lift(kp, src, tgt)
        rep = check_pair(induced_map(h), invA, invB)
        assert rep.ok


def test_functoriality_random_chains(rng):
    # induced(g o h) = induced(g) * induced(h) over searched chains
    for p in (2, 3):
        ctx = ctx_for(p)
        small = fixed_form(ctx, [0])
        mid = fixed_form(ctx, list(range(p)))
        big_exps = sorted(list(range(p)) * 2)
        big = fixed_form(ctx, big_exps)
        checked = 0
        for kp1 in ksearch(invariant_of(small), invariant_of(mid), 3):
            h1 = lift(kp1, small, mid)
            for kp2 in ksearch(invariant_of(mid), invariant_of(big), 2):
                h2 = lift(kp2, mid, big)
                comp = hom_compose(h2, h1)
                assert hom_validate(comp).ok
                assert induced_map(comp) == compose_pairs(induced_map(h2),
                                                          induced_map(h1))
                checked += 1
        assert checked >= 1


def _searched_lift(draw, src, tgt):
    pairs = ksearch(invariant_of(src), invariant_of(tgt), 3)
    return lift(draw(st.sampled_from(pairs)), src, tgt) if pairs else None


@st.composite
def _hom_and_kind(draw):
    """A lift between forms of at most two pieces, possibly conjugated by
    a unitary or composed with a second lift. "moved" homs are
    conjugated by a fixed-point unitary with one block right-multiplied
    by a permutation, so they may fail to be equivariant."""
    kind = draw(st.sampled_from(["lift", "fixed point", "moved",
                                 "composite"]))
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = ctx_for(p, None if p == 2 else p)
    forms = [mixed_form(ctx, draw(st.lists(
        st.sampled_from(piece_specs(p, 3)), min_size=1, max_size=2)))
        for _ in range(3)]
    h = _searched_lift(draw, forms[0], forms[1]) or identity_hom(forms[0])
    if kind == "composite":
        g = _searched_lift(draw, h.target, forms[2])
        return (hom_compose(g, h) if g else h), kind
    if kind == "lift":
        return h, kind
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    U = fixed_point_unitary(h.target, rng)
    if kind == "moved":
        t = draw(st.integers(0, h.target.m - 1))
        perm = draw(st.permutations(range(h.target.block_sizes[t])))
        U[t] = U[t] * Mat.permutation(ctx, perm)
    return conjugate_hom(U, h), kind


def _outcome(induced, h):
    try:
        return induced(h)
    except NonIntegralMultiplicity:
        return "non-integral"


@settings(max_examples=60, deadline=None)
@given(_hom_and_kind())
def test_induced_map_matches_crossed_round_trip(case):
    h, kind = case
    got = _outcome(induced_map, h)
    if kind != "moved":
        assert hom_validate(h).ok
        assert got == roundtrip_induced(h)
        assert check_pair(got, invariant_of(h.source),
                          invariant_of(h.target)).ok
    else:
        assert got == _outcome(roundtrip_induced, h) \
            or not hom_validate(h).ok


def test_induced_map_reads_first_exponent_of_source():
    # (M_2, diag(w, w^2)) at p = 3 into itself: E_00 sits at exponent 1,
    # so phi is the identity only when the source's e0 = 1 is used
    ctx = ctx_for(3, 3)
    c = fixed_form(ctx, [1, 2])
    kp = induced_map(identity_hom(c))
    assert kp.phi == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kp == roundtrip_induced(identity_hom(c))


# -- non-unital pairs ---------------------------------------------------------

_DEFECT_ITEMS = [
    "unit defect unit_B - F unit_A is nonnegative",
    "special defect special_B - phi special_A is nonnegative",
    "iota_B maps the unit defect to the dual orbit sum of the special "
    "defect"]


def _sub_multisets(exps):
    """The nonempty sub-multisets of the sorted list exps, sorted."""
    return sorted({tuple(exps[i] for i in range(len(exps)) if mask >> i & 1)
                   for mask in range(1, 2 ** len(exps))})


@pytest.mark.parametrize("p,exps,n", [(2, [0, 0, 1], 2), (3, [0, 1, 2], 2)])
def test_pairs_of_corner_inclusions_pass_check_pair(p, exps, n):
    """Every pair induced by a non-unital hom built as the unital lift of
    a ksearch pair into a corner of the target, followed by the corner's
    inclusion with gaps, passes check_pair with the three defect items in
    place of the special-element item; the pair is the crossed round
    trip's."""
    ctx = ctx_for(p)
    src = mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])
    tgt = mixed_form(ctx, [("fixed", exps), ("cycle", n)])
    invA, invB = invariant_of(src), invariant_of(tgt)
    checked = 0
    for sub in _sub_multisets(exps):
        for k in range(1, n + 1):
            if (list(sub), k) == (exps, n):
                continue
            corner = mixed_form(ctx, [("fixed", list(sub)), ("cycle", k)])
            for kp in ksearch(invA, invariant_of(corner), 2):
                g = corner_inclusion(lift(kp, src, corner), tgt)
                assert hom_validate(g).ok
                got = induced_map(g)
                assert not got.unital and got == roundtrip_induced(g)
                rep = check_pair(got, invA, invB)
                assert rep.ok, rep.summary()
                names = [item.name for item in rep.items]
                assert names[3:6] == _DEFECT_ITEMS
                assert "phi maps special element to special element" \
                    not in names
                checked += 1
    assert checked >= 10


def _corner_example(tmp_path):
    """p = 2, A = C and B = M_2 with trivial actions, and the hom
    a -> diag(a, 0), written to tmp_path as hom, a and b."""
    ctx = ctx_for(2)
    a, b = fixed_form(ctx, [0]), fixed_form(ctx, [0, 0])
    h = EqHom(a, b, [Arrangement([Slot(0, 1), Slot(None, 1)],
                                 Mat.identity(ctx, 2))], unital=False)
    for name, obj in (("hom", h), ("a", a), ("b", b)):
        save_json(str(tmp_path / ("%s.json" % name)), obj)
    return h


def test_corner_of_m2_induces_a_pair_that_checks(tmp_path, capsys):
    """The hom a -> diag(a, 0) from C into M_2 (p = 2, trivial actions)
    validates and induces F = [[1]], phi = I_2, which checkpair used to
    fail on the unital special-element item; now u = [1], s = [1, 0]
    and iota_B u = [1, 1] = s + dualAct_B s."""
    h = _corner_example(tmp_path)
    assert hom_validate(h).ok
    at = [str(tmp_path / name) for name in
          ("hom.json", "pair.json", "a.json", "b.json", "ia.json", "ib.json")]
    assert afzp.cli.main(["induced", at[0], "--out", at[1]]) == 0
    assert load_json(at[1]) == KPair([[1]], [[1, 0], [0, 1]], unital=False)
    assert afzp.cli.main(["kinv", at[2], "--out", at[4]]) == 0
    assert afzp.cli.main(["kinv", at[3], "--out", at[5]]) == 0
    capsys.readouterr()
    assert afzp.cli.main(["checkpair", at[1], at[4], at[5],
                          "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] %s: unit_B - F * [1] = [1]" % _DEFECT_ITEMS[0] in out
    assert "special_B - phi * [1, 0] = [1, 0]" in out
    assert "iota_B * [1] = [1, 1]" in out


def test_nonunital_pair_with_negative_unit_defect_fails(tmp_path, capsys):
    """F = [[3]] from C into M_2 overfills the unit: u = [-1] and
    s = [-1, 0] fail their items, by name, and checkpair exits 1."""
    ctx = ctx_for(2)
    invA = invariant_of(fixed_form(ctx, [0]))
    invB = invariant_of(fixed_form(ctx, [0, 0]))
    kp = KPair([[3]], [[3, 0], [0, 3]], unital=False)
    rep = check_pair(kp, invA, invB)
    assert [item.name for item in rep.failures()] == _DEFECT_ITEMS[:2]
    assert "unit_B - F * [1] = [-1]" in rep.failures()[0].detail
    save_json(str(tmp_path / "pair.json"), kp)
    for name, form in (("ia", invA), ("ib", invB)):
        save_json(str(tmp_path / ("%s.json" % name)), form)
    assert afzp.cli.main(["checkpair"] + [
        str(tmp_path / name) for name in ("pair.json", "ia.json",
                                          "ib.json")]) == 1


def test_nonunital_pair_fails_the_orbit_sum_alone():
    """At p = 3, from C into M_2 (trivial actions), F = [[1]] with
    phi = I_3 passes: u = [1], s = [1, 0, 0], and iota_B u = [1, 1, 1]
    is s's dual orbit sum. With phi = 0, u and s = [2, 0, 0] stay
    nonnegative, but s's orbit sum [2, 2, 2] is not iota_B u (and the
    embedding square fails too)."""
    ctx = ctx_for(3)
    invA = invariant_of(fixed_form(ctx, [0]))
    invB = invariant_of(fixed_form(ctx, [0, 0]))
    eye = [[int(r == c) for c in range(3)] for r in range(3)]
    rep = check_pair(KPair([[1]], eye, unital=False), invA, invB)
    assert rep.ok
    assert [item.name for item in rep.items] == [
        "order preservation (F, phi nonnegative)",
        "F intertwines the actions", "phi intertwines the dual actions",
        *_DEFECT_ITEMS, "embedding square commutes"]
    rep = check_pair(KPair([[1]], [[0] * 3] * 3, unital=False), invA, invB)
    assert [item.name for item in rep.failures()] == \
        [_DEFECT_ITEMS[2], "embedding square commutes"]


def test_unital_check_pair_reports_keep_their_bytes():
    """Unital reports are unchanged by the non-unital items: the
    text of a passing and two failing reports between M_1 and (M_2,
    Ad diag(1, -1)) at p = 2, pinned before those items were added and
    re-pinned when the informational crossed-unit item, which was always
    true, was dropped, and when format 3 changed the document header
    (the report text is unchanged but for "afzp_format"). The passing
    report has exactly the unital items."""
    ctx = ctx_for(2, 16)
    c1 = decompose(FdSystem(ctx, 2, [1], (0,), [Mat.identity(ctx, 1)]))
    c2 = decompose(FdSystem(ctx, 2, [2], (0,), [Mat.diag(ctx, [1, -1])]))
    i1, i2 = invariant_of(c1), invariant_of(c2)
    reports = [check_pair(kp, a, b) for kp, a, b in (
        (KPair([[2]], [[1, 1], [1, 1]]), i1, i2),
        (KPair([[2]], [[1, 1], [1, 1]]), i2, i1),
        (KPair([[1]], [[1, 0], [0, 1]]), i1, i2))]
    assert reports[0].ok and [item.name for item in reports[0].items] == [
        "order preservation (F, phi nonnegative)",
        "F intertwines the actions", "phi intertwines the dual actions",
        "phi maps special element to special element",
        "embedding square commutes", "F preserves the unit class"]
    text = "".join(map(dumps, reports))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b384f3022740c4cbd01dd9b39acc1e0e5b2eab2fbf69e6af55ac16ae5700b0c0"
