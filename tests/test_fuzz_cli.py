"""Mutation fuzzing of hom and certificate documents through the CLI.

Valid documents get one to three mutations (a slot's src or size, one
coefficient of a conj entry, a dropped key) and go through
afzp.cli.main; every run must end in an exit code of the README's
contract (0 pass, 1 mathematical failure, 2 input error), never in an
uncaught exception. Structural mutations of a certificate (list lengths,
stage values) and nested documents of the wrong kind are input errors
and must exit 2.
"""

import contextlib
import copy
import functools
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from afzp.classify import Tower, intertwine, ksearch, lift
from afzp.cli import main
from afzp.crossed import crossed_product
from afzp.demos import identity_pairs, product_tower
from afzp.kinv import KPair, invariant_of
from afzp.matrix import Mat
from afzp.report import Report
from afzp.serialize import dumps
from afzp.system import identity_hom

from conftest import ctx_for, mixed_form


def _doc(value):
    """The document of value as read from a file: dump shares one object
    among equal scalars, and a mutation must reach one place only."""
    return json.loads(dumps(value))


@functools.lru_cache(maxsize=None)
def _base_docs():
    """A lifted hom between forms with fixed and cycle pieces, the
    certificate of the depth-2 order-2 product tower against itself and
    the crossed product of the hom's source."""
    ctx = ctx_for(2)
    src = mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])
    tgt = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 2)])
    kp = ksearch(invariant_of(src), invariant_of(tgt), 3)[0]
    tower = product_tower(2, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    return {"hom": _doc(lift(kp, src, tgt)), "certificate": _doc(cert),
            "crossed": _doc(crossed_product(src))}


@functools.lru_cache(maxsize=None)
def _kind_docs():
    """One valid document of every kind."""
    ctx = ctx_for(2)
    form = mixed_form(ctx, [("fixed", [0, 1])])
    values = [form, form.system(), identity_hom(form), invariant_of(form),
              KPair([[1]], [[1, 0], [0, 1]]), Tower([form], []),
              crossed_product(form), Report(), [Mat.identity(ctx, 2)]]
    docs = {doc["kind"]: doc for doc in map(_doc, values)}
    docs["certificate"] = _base_docs()["certificate"]
    return docs


# where each base document nests another, and the kind it must have
_NESTED = {
    "hom": [(("source",), "canonical"), (("target",), "canonical")],
    "crossed": [(("source",), "canonical")],
    "certificate": [
        (("towerA",), "tower"), (("towerB",), "tower"),
        (("towerA", "systems", 1), "canonical"),
        (("towerB", "maps", 0), "hom"),
        (("pairs", 1), "kpair"),
        (("forward", 0), "hom"), (("backward", 0), "hom"),
        (("forward", 1, "target"), "canonical")],
}
# the commands that load each base document, with their file count
_COMMANDS = {"hom": [("validate", 1), ("induced", 1), ("equiv", 2)],
             "crossed": [("validate", 1)], "certificate": [("verify", 1)]}


def _dicts(doc):
    if isinstance(doc, dict):
        yield doc
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _dicts(item)


@st.composite
def _mutated(draw, kind):
    doc = copy.deepcopy(_base_docs()[kind])
    for _ in range(draw(st.integers(1, 3))):
        dicts = list(_dicts(doc))
        slots = [d for d in dicts if "src" in d and "size" in d]
        coeffs = [d["coeffs"] for d in dicts
                  if isinstance(d.get("coeffs"), list) and d["coeffs"]]
        what = draw(st.sampled_from(["src", "size", "conj", "drop"]))
        if what == "src" and slots:
            draw(st.sampled_from(slots))["src"] = draw(
                st.one_of(st.none(), st.integers(-2, 8)))
        elif what == "size" and slots:
            draw(st.sampled_from(slots))["size"] = draw(st.integers(0, 6))
        elif what == "conj":
            vec = draw(st.sampled_from(coeffs))
            vec[draw(st.integers(0, len(vec) - 1))] = draw(
                st.sampled_from(["0", "1", "-1", "1/2", "3"]))
        elif what == "drop":
            target = draw(st.sampled_from([d for d in dicts if d]))
            del target[draw(st.sampled_from(sorted(target)))]
    return doc


_CERT_LISTS = ["a_stages", "b_stages", "pairs", "forward", "backward"]


@st.composite
def _broken_structure(draw):
    """The certificate with one to three of its lists changed once each:
    an item dropped or repeated, or a stage set out of range or to a
    non-integer. A list changed once cannot be changed back, and five
    changes would be needed to give all lists a consistent length."""
    doc = copy.deepcopy(_base_docs()["certificate"])
    for name in draw(st.lists(st.sampled_from(_CERT_LISTS), min_size=1,
                              max_size=3, unique=True)):
        items = doc[name]
        what = draw(st.sampled_from(["drop", "repeat", "stage"][
            :3 if name.endswith("_stages") else 2]))
        if what == "drop":
            del items[draw(st.integers(0, len(items) - 1))]
        elif what == "repeat":
            items.insert(draw(st.integers(0, len(items))),
                         copy.deepcopy(draw(st.sampled_from(items))))
        else:
            items[draw(st.integers(0, len(items) - 1))] = draw(
                st.sampled_from([-1, 2, 9, True, "1", 0.5, None]))
    return doc


def _exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for kind, doc in _base_docs().items():
        json.dump(doc, open(path / ("%s.json" % kind), "w"))
    return path


_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(doc=_mutated("hom"))
def test_mutated_hom_exit_codes(fuzzdir, doc):
    good, bad = str(fuzzdir / "hom.json"), str(fuzzdir / "bad_hom.json")
    json.dump(doc, open(bad, "w"))
    for argv in (("validate", bad), ("induced", bad),
                 ("equiv", bad, good), ("equiv", good, bad)):
        assert _exit_code(*argv) in (0, 1, 2), argv


@_SETTINGS
@given(doc=_mutated("certificate"))
def test_mutated_certificate_exit_codes(fuzzdir, doc):
    bad = str(fuzzdir / "bad_certificate.json")
    json.dump(doc, open(bad, "w"))
    assert _exit_code("verify", bad) in (0, 1, 2)
    assert _exit_code("validate", bad) == 2


def test_unmutated_documents_pass(fuzzdir):
    hom, cert = str(fuzzdir / "hom.json"), str(fuzzdir / "certificate.json")
    assert _exit_code("validate", hom) == 0
    assert _exit_code("induced", hom) == 0
    assert _exit_code("equiv", hom, hom) == 0
    assert _exit_code("verify", cert) == 0


@_SETTINGS
@given(doc=_broken_structure())
def test_broken_certificate_structure_exits_two(fuzzdir, doc):
    bad = str(fuzzdir / "broken_certificate.json")
    json.dump(doc, open(bad, "w"))
    assert _exit_code("verify", bad) == 2


@_SETTINGS
@given(data=st.data())
def test_nested_document_of_wrong_kind_exits_two(fuzzdir, data):
    base = data.draw(st.sampled_from(sorted(_NESTED)))
    path, want = data.draw(st.sampled_from(_NESTED[base]))
    other = data.draw(st.sampled_from(sorted(set(_kind_docs()) - {want})))
    doc = copy.deepcopy(_base_docs()[base])
    parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
    parent[path[-1]] = _kind_docs()[other]
    bad = str(fuzzdir / "nested.json")
    json.dump(doc, open(bad, "w"))
    for cmd, files in _COMMANDS[base]:
        assert _exit_code(cmd, *[bad] * files) == 2, (cmd, path, other)
