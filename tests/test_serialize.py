"""The format-3 codec of serialize against its oracles.

dumps writes format 3: its text is json.dumps(dump(x), sort_keys=True,
separators=(",", ":")), and load reads it back to a value that dumps
to the same text; the crossed, unitaries and report kinds are written
only, and load refuses them. load reads format 3 only. The old format-1 and
format-2 writers live in conftest (dumps_format1, dumps_format2), both
without the slot phase that format 3 dropped: they are the byte oracles
of the pinned format-1 and format-2 digests, which were taken from the
documents the format-2 library wrote with every phase member deleted,
so format 3 changed no value but the phase; the format-1 writer
compares loaded values a second way, besides ==; and the documents
both write must be refused. The reader builds each
shared object once, which equal bytes cannot show, so the
constructions are counted.
"""

import collections
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from afzp import serialize
from afzp._rat import RAT
from afzp.classify import (IntertwiningCertificate, Tower, TriangleRecord,
                           intertwine, ksearch, lift, verify_certificate)
from afzp.crossed import crossed_product
from afzp.cyclo import FieldContext, Scalar, root_exponent
from afzp.demos import identity_pairs, product_tower
from afzp.errors import FormatError
from afzp.kinv import KPair, invariant_of
from afzp.report import Report
from afzp.serialize import dump, dumps, loads
from afzp.system import (Arrangement, EqHom, Slot, decompose, identity_hom)

from conftest import (ProductCrossed, ctx_for, cycle_form, dump_format1,
                      dumps_format1, dumps_format2, fixed_form, form_system,
                      grid_mat, mixed_form, piece_specs,
                      scalar_text_by_coefficients)

KINDS = ["system", "canonical", "canonical-iso", "hom", "hom-null-src",
         "crossed", "kinvariant", "kpair", "tower", "certificate",
         "unitaries", "report"]
# kinds that dumps writes and loads refuses: no command reads them
WRITTEN_ONLY = ("crossed", "unitaries", "report")


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

    def mat(n, diagonal=pool):
        """An n x n grid with its diagonal drawn from `diagonal`: the
        nonzero pool[1:] lists at least n entries, as the loader asks of
        every matrix it reads."""
        return grid_mat(ctx, n, n, [[draw(st.sampled_from(
            diagonal if i == j else pool)) for j in range(n)]
            for i in range(n)])

    form = mixed_form(ctx, draw(st.lists(
        st.sampled_from(piece_specs(ctx.p, 2)), min_size=1, max_size=2)))
    def int_rows(width):
        """Up to two integer rows of one length, at most width: the
        loader refuses ragged ones."""
        n = draw(st.integers(0, width))
        return draw(st.lists(st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n), max_size=2))

    kpair = KPair(int_rows(2), int_rows(4), unital=draw(st.booleans()))
    if kind == "system":
        return form_system(form)
    if kind == "canonical":
        return form
    if kind == "canonical-iso":
        return decompose(form_system(form))
    if kind == "hom":
        return identity_hom(form)
    if kind == "hom-null-src":
        src = mixed_form(ctx, [("fixed", [0])])
        tgt = mixed_form(ctx, [("fixed", [0, 0])])
        return EqHom(src, tgt, [Arrangement([Slot(0, 1), Slot(None, 1)],
                                            mat(2, pool[1:]))], unital=False)
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
        w = [mat(n, pool[1:]) for n in form.block_sizes]
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
    text = dumps(value)
    assert text == json.dumps(dump(value), sort_keys=True,
                              separators=(",", ":"))
    if kind in WRITTEN_ONLY:
        with pytest.raises(FormatError,
                           match="unknown document kind '%s'" % kind):
            loads(text)
    else:
        # every loaded scalar renders to the text it was read from
        assert dumps(loads(text)) == text


@st.composite
def _text_scalars(draw):
    """A scalar of a field with p in {2, 3, 5, 7}: zero, a rational
    (negative ones too), or one with a few or with every coefficient
    drawn, over denominators 1 and larger."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ctx = ctx_for(p, draw(st.sampled_from([p, p * p, 4 * p * p])))
    q = st.fractions(min_value=-9, max_value=9, max_denominator=
                     draw(st.sampled_from([1, 6])))
    shape = draw(st.sampled_from(["zero", "rational", "sparse", "dense"]))
    if shape == "zero":
        return ctx.zero
    if shape == "rational":
        return ctx.scalar(draw(q))
    coeffs = [0] * ctx.degree
    for j in (range(ctx.degree) if shape == "dense" else draw(
            st.lists(st.integers(0, ctx.degree - 1), max_size=3))):
        coeffs[j] = draw(q)
    return Scalar(ctx, coeffs)


@settings(max_examples=200, deadline=None)
@given(_text_scalars())
def test_scalar_text_matches_the_coefficient_oracle(s):
    """_scalar_text, which reads the kept nonzero terms and takes no gcd
    over denominator 1, writes the text the walk over all d numerators
    writes."""
    assert serialize._scalar_text(s) == scalar_text_by_coefficients(s)


def _refused(version):
    return "afzp_format %d is not supported: only format 3 is read" % version


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_format1_and_format2_load_to_equal_objects(kind, data):
    """The format-3 text loads to the value that was written, by == and
    by its format-1 oracle document, and a certificate replays to the
    same report; the format-3 text of a written-only kind and the
    format-1 and format-2 texts of any value are refused."""
    value = _value(data.draw, kind)
    if kind in WRITTEN_ONLY:
        with pytest.raises(FormatError, match="unknown document kind"):
            loads(dumps(value))
    else:
        new = loads(dumps(value))
        assert dump_format1(new) == dump_format1(value)
        assert new == value
        if kind == "certificate":
            assert verify_certificate(new) == verify_certificate(value)
    with pytest.raises(FormatError, match=_refused(1)):
        loads(dumps_format1(value))
    with pytest.raises(FormatError, match=_refused(2)):
        loads(dumps_format2(value))


def _pinned_certificate(p, depth, resorted):
    tower = product_tower(p, depth)
    other = product_tower(p, depth, resorted=True) if resorted else tower
    return intertwine(tower, other, pairs=identity_pairs(tower, depth),
                      depth=depth)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


_PINNED = [(2, 3, False), (3, 2, False), (2, 3, True)]
_PINNED_IDS = ["p2-depth3", "p3-depth2", "p2-depth3-resorted"]


@pytest.mark.parametrize("p,depth,resorted,digest", [
    (2, 3, False,
     "32f8cac7f8c48b01ac314c775bc761377bec896dfdbe7bdac09662860faa59a0"),
    (3, 2, False,
     "493337076a9dfe8a2127d8272eb8e88f21bbce9aec4694fe9db29ad309c78420"),
    (2, 3, True,
     "75ab29f6a5d6406f81d208a281d7f3f7d22ea8b0514bedd470e1c251d0e4dc98"),
], ids=_PINNED_IDS)
def test_self_intertwined_product_tower_bytes_are_pinned(p, depth, resorted,
                                                         digest):
    """The format-1 bytes stay those of the Fraction-coefficient scalar
    layer, where the first two digests were first taken; the resorted
    tower's, taken before hom checks moved to conjugator products, pins
    bytes made through equiv_unitary's corrections. Format 1 is now
    written by the oracle writer only, and the digests are those of the
    format-1 documents of the last format-2 library with every slot
    phase deleted."""
    cert = _pinned_certificate(p, depth, resorted)
    assert _digest(dumps_format1(cert)) == digest


def test_searched_pair_certificate_bytes_are_pinned():
    """With no given pairs every hop takes the first ksearch
    candidate closing its triangle; the digest, first taken before the
    forward and backward steps shared one code path, is that of the
    last format-2 library's format-1 document without slot phases."""
    cert = intertwine(product_tower(2, 3), product_tower(2, 3, resorted=True),
                      depth=3)
    assert _digest(dumps_format1(cert)) == \
        "ae5db5265265741c9e9f8e9f60a990c48242951674e2da92a710716a4b190532"


_CERTIFICATES = _PINNED + [(2, 3, None), (5, 3, False), (7, 2, False),
                          (5, 3, None), (7, 2, None)]
_CERTIFICATE_IDS = _PINNED_IDS + ["p2-depth3-searched", "p5-depth3",
                                  "p7-depth2", "p5-depth3-searched",
                                  "p7-depth2-searched"]


def _certificate(p, depth, resorted):
    """A pinned certificate, or, with resorted None, a searched-pair one:
    the tower intertwined with its resorted presentation and no given
    pairs."""
    if resorted is None:
        return intertwine(product_tower(p, depth),
                          product_tower(p, depth, resorted=True), depth=depth)
    return _pinned_certificate(p, depth, resorted)


@pytest.mark.parametrize("p,depth,resorted,digest", [
    (*case, digest) for case, digest in zip(_CERTIFICATES, [
        "87b8cefa9b6c9afe78326d8461708a8b436cb82d210661f45a546aad89b39676",
        "80383633c59d59359972710c4c3c530f3ef5b733fd77e1315bef1ec3033bb866",
        "b43049cc9e302c783fab8e4130e1022740289cb32f92c3c47cda397bcf39eedd",
        "2cfd70b9871b20b02d72d46cfb6801e68fb46e04036d29848f427df76a1e58bb",
        "43a2b0facb7cd53bccc65f0dc6965a9c78fa1f2346e183f64ca7aa4fcaac7b74",
        "a05b46aedfb32636c20879d1d5ee55a690814cf36e1ce1de0d9efe22aedf15c7",
        "9e9048bbc4faf00acc5436b036110c944b57222cd3bb8a9732b1224940c80bc8",
        "30b8cbf2f9d8de4ad34399e5fe32e5e56ba50a7dd83aed074b002a1508ad4109"])],
    ids=_CERTIFICATE_IDS)
def test_format2_certificate_bytes_are_pinned(p, depth, resorted, digest):
    """The format-2 oracle bytes of the certificates pinned above in
    format 1, and of searched-pair ones (resorted None). The digests are
    those of the text the last format-2 library wrote, with every slot
    phase deleted: format 3 changed no other value."""
    assert _digest(dumps_format2(_certificate(p, depth, resorted))) == digest


@pytest.mark.parametrize("p,depth,resorted,digest", [
    (*case, digest) for case, digest in zip(_CERTIFICATES, [
        "f0fb3740f4924a511f892c1056cfcaba1e3303d396b7e3445ecd25a4758683c7",
        "be9078c0967b6dea5ea809274b9a61aa298f699ed04dbd6cfbe614327cfb600d",
        "56128f8dfdacf0e19ef6a7338bb807be0178bd857c9cea08d329759549b20a7e",
        "cb253830f2bd87a6b027aff7bb88c40cb629d14779eda7ce374228e92b81e0e0",
        "f5f5987acf229df1f1ea86b287da8eed59b32fded2cbcb52144bb2e853723bfe",
        "fb57acaf446d8a35c5c42c5ef257a264a89e17d00dbb0cac13dc10b059487c2e",
        "aee1b2b713bb5d2db3b6787bc4c6bdc44f6a51d0d5bba30ee640032303b10ab6",
        "b8a496c6c37c2be9c805d450d735b17ead683339db267e255b9441f320fa0452"])],
    ids=_CERTIFICATE_IDS)
def test_format3_certificate_bytes_are_pinned(p, depth, resorted, digest):
    """The format-3 bytes of the same certificates, taken when format 3
    was introduced. Each replays after a round trip."""
    text = dumps(_certificate(p, depth, resorted))
    assert _digest(text) == digest
    again = loads(text)
    assert dumps(again) == text
    rep = verify_certificate(again)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("target,digest", [
    ([0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
     "6091fd0991123103054972ac2871594694fd4b059dd070bc9b34397551020ece"),
    (10,
     "d696eb8cc1590c2a29d3c57b92b8e21130f5fe4807bc61dffd84a0d562d156e6"),
], ids=["fixed-to-fixed", "fixed-to-cycle"])
def test_p5_lift_bytes_are_pinned(target, digest):
    """The concatenated dumps of the lift of every ksearch pair (entries
    <= 3) from the p=5 fixed piece diag(1, zeta, ..., zeta^4) into a
    fixed piece with every exponent twice (15 pairs), or into a cycle
    piece of size 10 (twisted by V^-r in block r). The digests were
    first taken while lift twisted by powers of V's adjoint, and re-pinned
    when format 3 dropped the slot phase."""
    ctx = ctx_for(5)
    src = fixed_form(ctx, [0, 1, 2, 3, 4])
    tgt = cycle_form(ctx, target) if isinstance(target, int) \
        else fixed_form(ctx, target)
    text = "".join(dumps(lift(kp, src, tgt)) for kp in
                   ksearch(invariant_of(src), invariant_of(tgt), 3))
    assert _digest(text) == digest


@pytest.mark.parametrize("build", [crossed_product, ProductCrossed],
                         ids=["entrywise", "products"])
@pytest.mark.parametrize("p,order,specs,digest", [
    (2, 16, [("fixed", [0, 1]), ("cycle", 2)],
     "c27e53069305dcfa37f3230d3091b0dd3a7e8858ddc3f97bb0ec9218f674057f"),
    (3, 36, [("fixed", [0, 1, 2]), ("cycle", 1)],
     "e86b1bce6861775ad16f457f44ee7d34ae28d813a0cabd34f461c130d2ca90fc"),
    (5, 5, [("fixed", [0, 1, 2, 3, 4])],
     "a75c04b7da27f40be33b71bb4f1bbf5b6abdb184460335a738d2716decfad7c8"),
], ids=["p2-order16", "p3-order36", "p5-order5"])
def test_crossed_document_bytes_are_pinned(p, order, specs, digest, build):
    """A crossed document holds identify_matrix, identify applied to
    every matrix unit. The digests were first taken while identify
    multiplied by powers of V, and re-pinned when format 3 wrote the
    source's exponents and the dual's 0-based sigma; the entrywise
    identify and that oracle both keep them."""
    form = mixed_form(ctx_for(p, order), specs)
    assert _digest(dumps(build(form))) == digest


@pytest.mark.parametrize("p,depth,resorted", _PINNED, ids=_PINNED_IDS)
def test_format1_and_format2_certificates_replay_to_the_same_report(
        p, depth, resorted):
    """A pinned certificate loaded from its format-3 text equals the one
    in memory by its format-1 oracle document and replays to the same
    passing report; its format-1 and format-2 texts are refused."""
    cert = _pinned_certificate(p, depth, resorted)
    new = loads(dumps(cert))
    assert dump_format1(new) == dump_format1(cert)
    report = verify_certificate(cert)
    assert report.ok
    assert verify_certificate(new) == report
    with pytest.raises(FormatError, match=_refused(1)):
        loads(dumps_format1(cert))
    with pytest.raises(FormatError, match=_refused(2)):
        loads(dumps_format2(cert))


def test_each_object_is_written_and_built_once(monkeypatch):
    """In a self-intertwined certificate towerB is towerA and the forms
    recur in every hom: dump writes each CanonicalForm, EqHom and Tower
    object once, and loads builds each object once, in one field, and
    shares it where the file does."""
    tower = product_tower(3, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    doc = dump(cert)
    distinct = {id(x) for x in [tower, *tower.systems, *tower.maps,
                                *cert.forward, *cert.backward]}
    distinct |= {id(f) for h in cert.forward + cert.backward
                 for f in (h.source, h.target)}
    assert len(doc["objects"]) == len(distinct)
    assert doc["towerA"] == doc["towerB"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert text == dumps(cert)

    built = []
    fields = collections.Counter()
    canonical_form = serialize.CanonicalForm

    def form(ctx, p, pieces, iso=None):
        built.append(pieces)
        return canonical_form(ctx, p, pieces, iso)

    def field(p, order=None):
        fields[p, order] += 1
        return FieldContext(p, order)
    monkeypatch.setattr(serialize, "CanonicalForm", form)
    monkeypatch.setattr(serialize, "FieldContext", field)
    again = loads(text)
    monkeypatch.undo()
    kinds = collections.Counter(o["kind"] for o in doc["objects"])
    assert len(built) == kinds["canonical"]
    assert fields == {(3, 36): 1}
    assert again.towerA is again.towerB
    assert again.forward[0].source is again.towerA.systems[0]
    assert dumps(again) == text


@pytest.mark.parametrize("p,depth,resorted", _PINNED, ids=_PINNED_IDS)
def test_loaded_roots_are_the_fields_shared_roots(monkeypatch, p, depth,
                                                  resorted):
    """Every matrix entry of a loaded pinned certificate that is a root
    of unity zeta_N^k is the field's shared ctx.root(k), marked k (in
    these towers every entry is one). The certificate still writes its
    own bytes."""
    text = dumps(_pinned_certificate(p, depth, resorted))
    mats, fields = [], []
    read, field = serialize._Reader.mat, serialize.FieldContext

    def mat(reader, obj):
        mats.append(read(reader, obj))
        return mats[-1]

    def new_field(*key):
        fields.append(field(*key))
        return fields[-1]
    monkeypatch.setattr(serialize._Reader, "mat", mat)
    monkeypatch.setattr(serialize, "FieldContext", new_field)
    again = loads(text)
    monkeypatch.undo()
    assert dumps(again) == text
    [ctx] = fields
    entries = [e for m in mats for row in m.vals for e in row]
    roots = [e for e in entries if root_exponent(e) is not None]
    assert roots
    for e in entries:
        k = root_exponent(e)
        assert e._exponent == k
        assert k is None or e is ctx.root(k)


def test_a_loaded_non_root_stays_unmarked():
    """Texts of values that are no root of unity, such as 1/2, 2 or
    1 + zeta_N, load unmarked; 1 and zeta_N load as the shared roots."""
    for text, root in [("0:1/2", None), ("0:2", None), ("0:1 1:1", None),
                       ("0:1", 0), ("1:1", 1)]:
        doc = {"afzp_format": 3, "kind": "system", "p": 3, "order": 36,
               "blocks": [1], "sigma": [0],
               "impl": [{"rows": 1, "cols": 1, "entries": [[0, 0, text]]}]}
        got = loads(json.dumps(doc))
        e = got.impl[0].entry(0, 0)
        assert e._exponent == root
        assert serialize._scalar_text(e) == text
        if root is not None:
            assert e is got.ctx.root(root)


def test_p5_depth3_certificate_is_small_and_replays():
    """The p=5 depth-3 self certificate took 395 MB in format 1."""
    tower = product_tower(5, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 3), depth=3)
    text = dumps(cert)
    assert len(text.encode()) < 100_000
    again = loads(text)
    assert dumps(again) == text
    assert verify_certificate(again).ok


def test_a_huge_cycle_piece_allocates_nothing_per_row():
    """A canonical document under 100 bytes naming one cycle piece of
    n = 10^12 loads and matches itself in shape; its invariant, its
    crossed product and the invariant's dumps stay under a 1 MiB
    tracemalloc peak, since nothing is built per row of a cycle block."""
    doc = json.loads(dumps(cycle_form(ctx_for(3), 1)))
    doc["pieces"][0]["n"] = 10 ** 12
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert len(text) < 100
    tracemalloc.start()
    try:
        form = loads(text)
        assert form.same_shape(form)
        inv = invariant_of(form)
        cp = crossed_product(form)
        inv_text = dumps(inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert inv.unit == [10 ** 12] * 3 and cp.block_sizes == [3 * 10 ** 12]
    assert loads(inv_text) == inv


def test_a_short_listed_matrix_is_refused():
    """A matrix that lists fewer entries than its rows or columns has an
    empty row or column, so it is not invertible: loads refuses it
    before allocating its rows, whatever block it sits in."""
    ctx = ctx_for(2)
    src = fixed_form(ctx, [0])
    tgt = fixed_form(ctx, [0, 0])
    conj = grid_mat(ctx, 2, 2, [[ctx.one, ctx.zero], [ctx.zero, ctx.zero]])
    hom = EqHom(src, tgt, [Arrangement([Slot(0, 1), Slot(None, 1)], conj)],
                unital=False)
    with pytest.raises(FormatError, match="matrix header 2x2 lists 1 "
                       "entries: an invertible matrix lists at least 2"):
        loads(dumps(hom))
