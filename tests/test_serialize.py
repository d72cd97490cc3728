"""The memoized codec of serialize against its slow paths.

dump renders each distinct scalar once and each CanonicalForm, EqHom or
Tower object once, dumps writes the text of each scalar object and of
each document once per indentation level, and load builds one
FieldContext per field and decodes each distinct coefficient vector
once; the oracles are the document rendered entry by entry and object
by object (_dump(x, None)), json.dumps(dump(x), indent=2,
sort_keys=True) for the writer and Scalar.from_json without a memo,
entry by entry, for the reader. Equal bytes cannot show a dead memo, so
the calls are counted as well.
"""

import collections
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from afzp import serialize
from afzp._rat import RAT
from afzp.classify import (IntertwiningCertificate, Tower, TriangleRecord,
                           intertwine)
from afzp.crossed import crossed_product
from afzp.cyclo import FieldContext, Scalar
from afzp.demos import identity_pairs, product_tower
from afzp.errors import ContextMismatch
from afzp.kinv import KPair, invariant_of
from afzp.matrix import Mat
from afzp.report import Report
from afzp.serialize import _dump, dump, dumps, loads
from afzp.system import (Arrangement, EqHom, Slot, decompose, identity_hom)

from conftest import ctx_for, mixed_form, piece_specs

KINDS = ["system", "canonical", "canonical-iso", "hom", "hom-null-src",
         "crossed", "kinvariant", "kpair", "tower", "certificate",
         "unitaries", "report"]


def _field(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return ctx_for(p, draw(st.sampled_from([p, p * p, None])))


def _scalar_pool(ctx):
    """Repeated values, as in real documents, and a few rare ones."""
    return [ctx.zero, ctx.one, -ctx.one, ctx.zeta_p(1), ctx.root(1),
            ctx.root(3) * RAT(-2, 3) + ctx.one, ctx.scalar(RAT(1, 2))]


def _value(draw, kind):
    ctx = _field(draw)
    pool = _scalar_pool(ctx)

    def mat(n):
        return Mat(ctx, n, n, [[draw(st.sampled_from(pool))
                                for _ in range(n)] for _ in range(n)])

    form = mixed_form(ctx, draw(st.lists(
        st.sampled_from(piece_specs(ctx.p, 2)), min_size=1, max_size=2)))
    kpair = KPair(draw(st.lists(st.lists(st.integers(0, 3), max_size=2),
                                max_size=2)),
                  draw(st.lists(st.lists(st.integers(0, 3)), max_size=2)),
                  unital=draw(st.booleans()))
    if kind == "system":
        return form.system()
    if kind == "canonical":
        return form
    if kind == "canonical-iso":
        return decompose(form.system())
    if kind == "hom":
        return identity_hom(form)
    if kind == "hom-null-src":
        src = mixed_form(ctx, [("fixed", [0])])
        tgt = mixed_form(ctx, [("fixed", [0, 0])])
        return EqHom(src, tgt, [Arrangement([Slot(0, 1), Slot(None, 1)],
                                            mat(2))], unital=False)
    if kind == "crossed":
        return crossed_product(form)
    if kind == "kinvariant":
        return invariant_of(form)
    if kind == "kpair":
        return kpair
    if kind == "tower":
        if draw(st.booleans()):
            return Tower([form], [])
        # one hom object twice
        hom = identity_hom(form)
        return Tower([form, form, form], [hom, hom])
    if kind == "certificate":
        # the tower's own map is the forward hom, so the same documents
        # sit at several indentation levels; one Mat is in two triangles
        hom = identity_hom(form)
        tower = Tower([form, form], [hom])
        w = [mat(n) for n in form.block_sizes]
        triangles = draw(st.sampled_from([[], [
            TriangleRecord("A", 0, 0, w), TriangleRecord("B", 0, 1, w)]]))
        return IntertwiningCertificate(tower, tower, [0], [0], [hom], [],
                                       triangles, [kpair])
    if kind == "unitaries":
        return [mat(n) for n in form.block_sizes]
    rep = Report()
    for _ in range(draw(st.integers(0, 3))):
        rep.add(draw(st.text('a"\\/\x01\né✓ζ', max_size=8)),
                draw(st.booleans()),
                draw(st.sampled_from(["", 'a "quoted" \\ path',
                                      "ζ_p ≠ 1\n\tok"])))
    return rep


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_dumps_matches_json_dumps_and_reloads(kind, data):
    value = _value(data.draw, kind)
    assert dump(value) == _dump(value, None)
    text = dumps(value)
    assert text == json.dumps(dump(value), indent=2, sort_keys=True)
    # every loaded scalar renders to the coefficient strings it was read
    # from, so it equals the one a fresh per-entry decode builds
    assert dumps(loads(text)) == text


def _decoded(obj, ctx, memo):
    try:
        got = Scalar.from_json(obj, ctx, memo)
    except (ContextMismatch, ZeroDivisionError, TypeError, ValueError) as exc:
        return type(exc)
    assert got.ctx is ctx
    return got.coeffs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_decoding_matches_per_entry_decoding(data):
    ctx = _field(data.draw)
    good = [s.to_json() for s in _scalar_pool(ctx)]
    zeros = ["0"] * ctx.degree
    bad = [{"order": ctx.order, "coeffs": ["1/0"] + zeros[1:]},
           {"order": ctx.order, "coeffs": zeros + ["0"]},
           {"order": ctx.order * 2, "coeffs": zeros},
           {"order": ctx.order, "coeffs": ["x"] + zeros[1:]},
           {"order": ctx.order, "coeffs": [0] + zeros[1:]}]
    objs = data.draw(st.lists(st.sampled_from(good + bad), max_size=24))
    memo = {}
    first = {}
    for obj in objs:
        assert _decoded(obj, ctx, memo) == _decoded(obj, ctx, None)
        if obj in good:
            got = Scalar.from_json(obj, ctx, memo)
            assert first.setdefault(tuple(obj["coeffs"]), got) is got
    assert set(memo) == set(first)


@pytest.mark.parametrize("p,depth,resorted,digest", [
    (2, 3, False,
     "92ea0b51a6deda5a32bea9e94715b327df2a1b4c97597b674299b3962dadf3d3"),
    (3, 2, False,
     "ba9f5352b3e1ce130fcd771632adfd33e6e8989f35b55711ff938e030e009015"),
    (2, 3, True,
     "47cc0329f2e56cde0c825f04840587db99fb68b1fc8a0cf97c074a450006a772"),
], ids=["p2-depth3", "p3-depth2", "p2-depth3-resorted"])
def test_self_intertwined_product_tower_bytes_are_pinned(p, depth, resorted,
                                                         digest):
    """The certificate bytes stay those of the Fraction-coefficient
    scalar layer, where the first two digests were taken; the resorted
    tower's, taken before hom checks moved to conjugator products, pins
    bytes made through equiv_unitary's corrections."""
    tower = product_tower(p, depth)
    other = product_tower(p, depth, resorted=True) if resorted else tower
    cert = intertwine(tower, other, pairs=identity_pairs(tower, depth),
                      depth=depth)
    assert hashlib.sha256(dumps(cert).encode()).hexdigest() == digest


def test_searched_pair_certificate_bytes_are_pinned():
    """With no given pairs every zigzag step takes the first ksearch
    candidate closing its triangle; the digest was taken before the
    forward and backward steps shared one code path."""
    cert = intertwine(product_tower(2, 3), product_tower(2, 3, resorted=True),
                      depth=3)
    assert hashlib.sha256(dumps(cert).encode()).hexdigest() == \
        "f75ea5cd14da1610f486623f854ff90d01adb29e052499b25719406c49b021eb"


def test_each_document_is_written_once_and_each_field_built_once(
        monkeypatch):
    """In a self-intertwined certificate towerB is towerA and the forms
    recur in every hom: dump gives each object one document, dumps
    writes each document once per indentation level, and loads builds
    one FieldContext for the field."""
    tower = product_tower(3, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    doc = dump(cert)
    assert doc["towerA"] is doc["towerB"]
    assert doc["forward"][0]["source"] is doc["towerA"]["systems"][0]

    written = collections.Counter()
    write_object = serialize._write_object

    def counting(x, nl, out, memo):
        if "kind" in x:
            written[id(x), nl] += 1
        write_object(x, nl, out, memo)
    monkeypatch.setattr(serialize, "_write_object", counting)
    text = dumps(cert)
    assert written and max(written.values()) == 1
    monkeypatch.setattr(serialize, "_write_object", write_object)
    assert text == json.dumps(dump(cert), indent=2, sort_keys=True)

    built = collections.Counter()

    def field(p, order=None):
        built[p, order] += 1
        return FieldContext(p, order)
    monkeypatch.setattr(serialize, "FieldContext", field)
    assert dumps(loads(text)) == text
    assert built == {(3, 36): 1}
