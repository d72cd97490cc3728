"""Mutation fuzzing of format-3 documents through the CLI.

Valid documents of every kind a command reads at top level (hom,
certificate, system, canonical, tower, kpair, kinvariant), written by
dumps as the CLI writes them, get one to three mutations (a slot's src
or size, a matrix entry's scalar text or its i or j, one integer entry,
a list item dropped or repeated, a dropped key, an object reference
made dangling, forward or of another kind, an object dropped or
repeated) and go through afzp.cli.main; every run must end in an exit
code of the README's contract (0 pass, 1 mathematical failure, 2 input
error), never in an uncaught exception, and a run that exits 0 printing
a document load reads must print it as dumps writes it back.
Structural mutations of a certificate (list lengths, stage values),
references to objects of the wrong kind and documents inlined where a
reference belongs are input errors and must exit 2. So must a member
that a document's kind or a nested object does not have, a format-2
member left in a document (a fixed piece's v, a slot's phase, an
invariant's m and mC), and a fixed piece's exponents or an invariant's
act or dualAct that is not what the engine computes with: n ascending
integers in 0..p-1, a permutation of the block indices. A non-vacuity
check keeps the suite from passing by stopping every document at the
format check. Short hostile documents that name large matrices must be
refused before those are built, by loads and by every command that
reads files; so must the kinds that are only written (crossed,
unitaries, report). The object list holds each object once, referenced
and in the order the writer emits, so an unreferenced or reordered
object is an input error.
"""

import argparse
import contextlib
import copy
import functools
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from afzp.classify import Tower, intertwine, ksearch, lift
from afzp.cli import build_parser, main
from afzp.crossed import crossed_product
from afzp.demos import identity_pairs, product_tower
from afzp.errors import FormatError
from afzp.kinv import KPair, invariant_of
from afzp.matrix import Mat
from afzp.report import Report
from afzp.system import FdSystem, decompose, identity_hom

from afzp.serialize import _OBJECT_KINDS, dumps, loads

from conftest import ctx_for, form_system, ieye, mixed_form


def _doc(value):
    """The document of value as read from a file."""
    return json.loads(dumps(value))


@functools.lru_cache(maxsize=None)
def _base_docs():
    """A lifted hom between forms with fixed and cycle pieces, its pair
    and the invariants of both forms, the depth-2 order-2 product tower
    and its certificate against itself, the crossed product of the hom's
    source, and a system with a monomial block and a twisted 2-cycle
    with its canonical form."""
    ctx = ctx_for(2)
    src = mixed_form(ctx, [("fixed", [0]), ("cycle", 1)])
    tgt = mixed_form(ctx, [("fixed", [0, 1]), ("cycle", 2)])
    kp = ksearch(invariant_of(src), invariant_of(tgt), 3)[0]
    tower = product_tower(2, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    system = FdSystem(ctx, 2, [2, 1, 1], (0, 2, 1),
                      [Mat.permutation(ctx, [1, 0]), Mat.identity(ctx, 1),
                       Mat.diag(ctx, [-1])])
    return {"hom": _doc(lift(kp, src, tgt)), "certificate": _doc(cert),
            "crossed": _doc(crossed_product(src)), "kpair": _doc(kp),
            "kinvariant": _doc(invariant_of(src)),
            "kinvariant_target": _doc(invariant_of(tgt)),
            "tower": _doc(tower), "system": _doc(system),
            "canonical": _doc(decompose(system))}


@functools.lru_cache(maxsize=None)
def _kind_docs():
    """One valid document of every kind."""
    ctx = ctx_for(2)
    form = mixed_form(ctx, [("fixed", [0, 1])])
    values = [form, form_system(form), identity_hom(form), invariant_of(form),
              KPair([[1]], [[1, 0], [0, 1]]), Tower([form], []),
              crossed_product(form), Report(), [Mat.identity(ctx, 2)]]
    docs = {doc["kind"]: doc for doc in map(_doc, values)}
    docs["certificate"] = _base_docs()["certificate"]
    return docs


# where each base document refers to an object, or nests a document
# inline (a certificate's pairs), and the kind it must have; a path
# follows each reference on its way to the object it names
_NESTED = {
    "hom": [(("source",), "canonical"), (("target",), "canonical")],
    "certificate": [
        (("towerA",), "tower"), (("towerB",), "tower"),
        (("towerA", "systems", 1), "canonical"),
        (("towerB", "maps", 0), "hom"),
        (("pairs", 1), "kpair"),
        (("forward", 0), "hom"), (("backward", 0), "hom"),
        (("forward", 1, "target"), "canonical")],
}
# the members that hold object references, one or a list of them
_REF_KEYS = ("source", "target", "towerA", "towerB", "systems", "maps",
             "forward", "backward")
# the commands that load each base document, with their file count; a
# crossed document is written only, so every command refuses it (exit 2)
_COMMANDS = {"hom": [("validate", 1), ("induced", 1), ("equiv", 2)],
             "crossed": [("validate", 1)], "certificate": [("verify", 1)]}
# command lines that read a mutated top-level document in place of BAD;
# the other files are unmutated base documents
BAD = "BAD"
_TOP_COMMANDS = {
    "system": [("validate", BAD), ("canon", BAD), ("crossed", BAD),
               ("kinv", BAD)],
    "canonical": [("crossed", BAD), ("kinv", BAD)],
    "tower": [("intertwine", BAD, "tower", "--depth", "2"),
              ("intertwine", "tower", BAD, "--depth", "2")],
    "kpair": [("checkpair", BAD, "kinvariant", "kinvariant_target")],
    "kinvariant": [("checkpair", "kpair", BAD, "kinvariant_target"),
                   ("checkpair", "kpair", "kinvariant", BAD)],
}


def _dicts(doc):
    if isinstance(doc, dict):
        yield doc
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _dicts(item)


def _is_ref(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _refs(doc):
    """(container, key) of every object reference in doc."""
    for d in _dicts(doc):
        for key in _REF_KEYS:
            value = d.get(key)
            if _is_ref(value):
                yield d, key
            elif isinstance(value, list):
                yield from ((value, i) for i, x in enumerate(value)
                            if _is_ref(x))


def _entries(doc):
    """Every [i, j, scalar text] matrix entry in doc."""
    for d in _dicts(doc):
        if isinstance(d.get("entries"), list):
            yield from (e for e in d["entries"]
                        if isinstance(e, list) and len(e) == 3)


# scalar texts in the order-16 field (degree 8): valid ones that change a
# matrix, and texts that are not canonical or not strings
_TEXTS = ["0:1", "0:-1", "1:1", "0:7", "0:2/4", "0:2/2", "0:1/0", "", "8:1",
          "99:1", "-1:1", "0:1 0:1", "1:1 0:1", "0:0", " 0:1", 1, None]
_INDICES = [-1, 0, 1, 2, 9, True, "0", None, 0.5]


@st.composite
def _mutated(draw, kind):
    doc = copy.deepcopy(_base_docs()[kind])
    for _ in range(draw(st.integers(1, 3))):
        dicts = list(_dicts(doc))
        slots = [d for d in dicts if "src" in d and "size" in d]
        entries = list(_entries(doc))
        refs = list(_refs(doc))
        objects = doc.get("objects")
        ints = [d for d in _lists(doc) if d and all(
            isinstance(x, int) or isinstance(x, list) for x in d)]
        what = draw(st.sampled_from(["src", "size", "text", "ij", "entry",
                                     "item", "drop", "ref", "object"]))
        if what == "src" and slots:
            draw(st.sampled_from(slots))["src"] = draw(
                st.one_of(st.none(), st.integers(-2, 8)))
        elif what == "size" and slots:
            draw(st.sampled_from(slots))["size"] = draw(st.integers(0, 6))
        elif what == "text" and entries:
            draw(st.sampled_from(entries))[2] = draw(st.sampled_from(_TEXTS))
        elif what == "ij" and entries:
            draw(st.sampled_from(entries))[draw(st.integers(0, 1))] = draw(
                st.sampled_from(_INDICES))
        elif what == "entry" and ints:
            vec = draw(st.sampled_from(ints))
            vec[draw(st.integers(0, len(vec) - 1))] = draw(
                st.sampled_from([-1, 0, 2, 9, True, 1.0, "1", 0.5, None,
                                 []]))
        elif what == "item" and ints:
            vec = draw(st.sampled_from(ints))
            at = draw(st.integers(0, len(vec) - 1))
            if draw(st.booleans()):
                del vec[at]
            else:
                vec.insert(at, copy.deepcopy(vec[at]))
        elif what == "drop":
            target = draw(st.sampled_from([d for d in dicts if d]))
            del target[draw(st.sampled_from(sorted(target)))]
        elif what == "ref" and refs and isinstance(objects, list):
            # dangling at either end, forward, or of any kind
            holder, key = draw(st.sampled_from(refs))
            holder[key] = draw(st.integers(-1, len(objects)))
        elif what == "object" and isinstance(objects, list) and objects:
            at = draw(st.integers(0, len(objects) - 1))
            if draw(st.booleans()):
                del objects[at]
            else:
                objects.insert(at, copy.deepcopy(objects[at]))
    return doc


def _lists(doc):
    """Every list inside doc."""
    for d in _dicts(doc):
        for value in d.values():
            stack = [value]
            while stack:
                item = stack.pop()
                if isinstance(item, list):
                    yield item
                    stack.extend(x for x in item if isinstance(x, list))


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
                st.sampled_from([-1, 2, 9, True, 1.0, "1", 0.5, None]))
    return doc


def _run(*argv):
    """(exit code, stdout) of the CLI on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _exit_code(*argv):
    """The CLI's exit code on argv. A run that exits 0 and prints a
    document of a kind load reads (not a crossed product, report or
    unitaries) must print it in its canonical bytes: dumps(loads(out))
    == out."""
    code, out = _run(*argv)
    if code == 0 and out.startswith("{"):
        text = out.rstrip("\n")
        if json.loads(text)["kind"] not in ("crossed", "report",
                                            "unitaries"):
            assert dumps(loads(text)) == text, argv
    return code


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for kind, doc in _base_docs().items():
        (path / ("%s.json" % kind)).write_text(json.dumps(doc))
    return path


_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(doc=_mutated("hom"))
def test_mutated_hom_exit_codes(fuzzdir, doc):
    good, bad = str(fuzzdir / "hom.json"), str(fuzzdir / "bad_hom.json")
    Path(bad).write_text(json.dumps(doc))
    for argv in (("validate", bad), ("induced", bad),
                 ("equiv", bad, good), ("equiv", good, bad)):
        assert _exit_code(*argv) in (0, 1, 2), argv


@_SETTINGS
@given(doc=_mutated("certificate"))
def test_mutated_certificate_exit_codes(fuzzdir, doc):
    bad = str(fuzzdir / "bad_certificate.json")
    Path(bad).write_text(json.dumps(doc))
    assert _exit_code("verify", bad) in (0, 1, 2)
    assert _exit_code("validate", bad) == 2


def _argv(fuzzdir, line, bad):
    """The command line with BAD and base document names made paths."""
    return line[:1] + tuple(bad if a == BAD else str(fuzzdir / ("%s.json" % a))
                            if a in _base_docs() else a for a in line[1:])


def test_mutations_reach_past_the_format_check(fuzzdir):
    """Every base document is format 3, the format load reads, and a
    mutated hom whose slot overflows its target block passes the loader
    and fails hom_validate: the suite fuzzes the checks behind the
    format check, not the format check alone."""
    assert {doc["afzp_format"] for doc in _base_docs().values()} == {3}
    doc = copy.deepcopy(_base_docs()["hom"])
    doc["blocks"][0]["slots"][0]["size"] += 1
    bad = str(fuzzdir / "overflow_hom.json")
    Path(bad).write_text(json.dumps(doc))
    code, out = _run("validate", bad, "--format", "text")
    assert code == 1
    assert "[FAIL] slot into target block 0" in out


def test_unmutated_documents_pass(fuzzdir):
    hom, cert = str(fuzzdir / "hom.json"), str(fuzzdir / "certificate.json")
    assert _exit_code("validate", hom) == 0
    assert _exit_code("induced", hom) == 0
    assert _exit_code("equiv", hom, hom) == 0
    assert _exit_code("verify", cert) == 0
    for kind, lines in _TOP_COMMANDS.items():
        good = str(fuzzdir / ("%s.json" % kind))
        for line in lines:
            want = 1 if line[-1] == BAD and kind == "kinvariant" else 0
            assert _exit_code(*_argv(fuzzdir, line, good)) == want, line


@pytest.mark.parametrize("kind", sorted(_TOP_COMMANDS))
@_SETTINGS
@given(data=st.data())
def test_mutated_top_level_document_exit_codes(fuzzdir, kind, data):
    bad = str(fuzzdir / ("bad_%s.json" % kind))
    Path(bad).write_text(json.dumps(data.draw(_mutated(kind))))
    for line in _TOP_COMMANDS[kind]:
        argv = _argv(fuzzdir, line, bad)
        assert _exit_code(*argv) in (0, 1, 2), argv


@_SETTINGS
@given(doc=_broken_structure())
def test_broken_certificate_structure_exits_two(fuzzdir, doc):
    bad = str(fuzzdir / "broken_certificate.json")
    Path(bad).write_text(json.dumps(doc))
    assert _exit_code("verify", bad) == 2


def _parent(doc, path):
    """The container of the place path names in doc, each reference on
    the way followed to the object it names."""
    node = doc
    for key in path[:-1]:
        node = node[key]
        if _is_ref(node):
            node = doc["objects"][node]
    return node


def _wrong_values(doc, path, want):
    """What may stand at a place of kind `want` and must be refused: a
    reference to an object of each other kind (of every kind where an
    inline pair belongs), an inline document of each other kind, and,
    where a reference belongs, the object it names, inlined."""
    first = {}
    for i, obj in enumerate(doc["objects"]):
        first.setdefault(obj["kind"], i)
    values = [i for kind, i in sorted(first.items()) if kind != want]
    values += [_kind_docs()[k] for k in sorted(_kind_docs()) if k != want]
    if want in _OBJECT_KINDS:
        values.append(doc["objects"][_parent(doc, path)[path[-1]]])
    return values


@_SETTINGS
@given(data=st.data())
def test_nested_document_of_wrong_kind_exits_two(fuzzdir, data):
    base = data.draw(st.sampled_from(sorted(_NESTED)))
    path, want = data.draw(st.sampled_from(_NESTED[base]))
    doc = copy.deepcopy(_base_docs()[base])
    value = data.draw(st.sampled_from(_wrong_values(doc, path, want)))
    _parent(doc, path)[path[-1]] = copy.deepcopy(value)
    bad = str(fuzzdir / "nested.json")
    Path(bad).write_text(json.dumps(doc))
    for cmd, files in _COMMANDS[base]:
        assert _exit_code(cmd, *[bad] * files) == 2, (cmd, path, value)


# the base invariant has act [0, 2, 1] and dualAct [1, 0, 2]; act and
# dualAct were 0/1 matrices in format 2, whose row t had its 1 in column
# act[t], and each mutation named after a matrix defect writes the list
# defect that matches it
_MALFORMED = {
    "ragged act": ("kinvariant", lambda d: d["act"].pop()),
    "act entry 2": ("kinvariant", lambda d: d["act"].__setitem__(0, 2)),
    "act with a 2 beside its 1": (
        "kinvariant", lambda d: d["act"].__setitem__(1, 3)),
    "act with two 1s in a row": (
        "kinvariant", lambda d: d["act"].__setitem__(1, [1, 2])),
    "dualAct with two 1s in a column": (
        "kinvariant", lambda d: d["dualAct"].__setitem__(2, 1)),
    "short unit": ("kinvariant", lambda d: d["unit"].pop()),
    "fractional iota": ("kinvariant",
                        lambda d: d["iota"][0].__setitem__(0, 0.5)),
    "boolean m": ("kinvariant", lambda d: d.__setitem__("m", True)),
    "string in F": ("kpair", lambda d: d["F"][0].__setitem__(0, "1")),
    "null in phi": ("kpair", lambda d: d["phi"][0].__setitem__(0, None)),
    "string unital": ("kpair", lambda d: d.__setitem__("unital", "yes")),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_integer_documents_exit_two(fuzzdir, case):
    """Invariants and pairs whose matrices are ragged, of the wrong
    shape or not made of integers are input errors. Some used to end in
    tracebacks inside check_pair, the others in exit 0 or 1."""
    kind, mutate = _MALFORMED[case]
    doc = copy.deepcopy(_base_docs()[kind])
    mutate(doc)
    bad = str(fuzzdir / "malformed.json")
    Path(bad).write_text(json.dumps(doc))
    line = _TOP_COMMANDS[kind][0]
    assert _exit_code(*_argv(fuzzdir, line, bad)) == 2


@pytest.mark.parametrize("act", [[1], [1, 1]])
def test_checkpair_refuses_an_act_that_is_no_permutation(tmp_path, capsys,
                                                         act):
    """Invariants whose act is not a permutation, checked against each
    other, used to pass every check_pair item."""
    m = len(act)
    inv = {"afzp_format": 3, "kind": "kinvariant", "unit": [1] * m,
           "act": act, "dualAct": list(range(m)), "special": [1] * m,
           "iota": ieye(m)}
    pair = {"afzp_format": 3, "kind": "kpair", "F": ieye(m),
            "phi": ieye(m), "unital": True}
    for name, doc in (("inv", inv), ("pair", pair)):
        (tmp_path / ("%s.json" % name)).write_text(json.dumps(doc))
    inv_path = str(tmp_path / "inv.json")
    assert main(["checkpair", str(tmp_path / "pair.json"), inv_path,
                 inv_path]) == 2
    assert "act is not a permutation of 0..%d" % (m - 1) \
        in capsys.readouterr().err


@pytest.mark.parametrize("line,want", [
    (("checkpair", BAD, "kinvariant", "kinvariant_target"), "kpair"),
    (("checkpair", "kpair", BAD, "kinvariant_target"), "kinvariant"),
    (("checkpair", "kpair", "kinvariant", BAD), "kinvariant"),
    (("lift", BAD, "canonical", "canonical"), "kpair"),
    (("intertwine", "tower", "tower", BAD), "kpair"),
], ids=["checkpair-pair", "checkpair-source", "checkpair-target", "lift",
        "intertwine-pairs"])
def test_top_level_document_of_wrong_kind_exits_two(fuzzdir, line, want):
    """A pair or invariant file holding a valid document of any other
    kind is an input error; checkpair used to end in AttributeError."""
    bad = str(fuzzdir / "wrong_kind.json")
    for kind, doc in sorted(_kind_docs().items()):
        if kind != want:
            Path(bad).write_text(json.dumps(doc))
            assert _exit_code(*_argv(fuzzdir, line, bad)) == 2, kind


def _set_unital(value):
    return lambda d: d.__setitem__("unital", value)


def _set_phase(value):
    return lambda d: d["blocks"][0]["slots"][0].__setitem__("phase", value)


# format 2 gave each slot a phase in 0..p-1 that no computation read;
# format 3 has none, so a phase of any value is refused
_NONCANONICAL_HOM = {
    "unital 1": _set_unital(1),
    "unital 0": _set_unital(0),
    "unital null": _set_unital(None),
    "unital string": _set_unital("true"),
    "phase object": _set_phase({"x": [1]}),
    "phase -1": _set_phase(-1),
    "phase p": _set_phase(2),
    "phase true": _set_phase(True),
    "phase string": _set_phase("0"),
    "phase 0.0": _set_phase(0.0),
}


@pytest.mark.parametrize("case", sorted(_NONCANONICAL_HOM))
def test_noncanonical_hom_exits_two(fuzzdir, case):
    """A hom's unital flag is a JSON boolean, and a slot has no phase.
    "unital": 1 and a phase {"x": [1]} used to load, validate with exit
    0 and dump to other bytes."""
    doc = copy.deepcopy(_base_docs()["hom"])
    _NONCANONICAL_HOM[case](doc)
    with pytest.raises(FormatError):
        loads(json.dumps(doc))
    bad = str(fuzzdir / "noncanonical_hom.json")
    Path(bad).write_text(json.dumps(doc))
    for cmd, files in _COMMANDS["hom"]:
        assert _exit_code(cmd, *[bad] * files) == 2, cmd


def _fixed_piece(doc):
    """The base canonical form's fixed piece, diag(1, -1) at p = 2."""
    return doc["pieces"][0]


def _setter(get, key, value):
    return lambda d: get(d).__setitem__(key, value)


# (base document, mutation): the format-3 fields written as the integers
# the engine holds, each broken in one way, and the format-2 members
# that format 3 dropped, left in place
_NEW_FIELDS = {
    "exponents unsorted": ("canonical", _setter(
        _fixed_piece, "exponents", [1, 0])),
    "exponent p": ("canonical", _setter(_fixed_piece, "exponents", [0, 2])),
    "exponent -1": ("canonical", _setter(_fixed_piece, "exponents", [-1, 0])),
    "exponents short": ("canonical", _setter(_fixed_piece, "exponents", [0])),
    "exponents long": ("canonical", _setter(
        _fixed_piece, "exponents", [0, 1, 1])),
    "exponent true": ("canonical", _setter(
        _fixed_piece, "exponents", [0, True])),
    "exponent 1.0": ("canonical", _setter(
        _fixed_piece, "exponents", [0, 1.0])),
    "exponents null": ("canonical", _setter(_fixed_piece, "exponents", None)),
    "stale v": ("canonical", _setter(_fixed_piece, "v", {
        "rows": 2, "cols": 2, "entries": [[0, 0, "0:1"], [1, 1, "0:-1"]]})),
    "exponents on a cycle": ("canonical", lambda d: d["pieces"][1].update(
        exponents=[0])),
    "stale phase": ("hom", lambda d: d["blocks"][0]["slots"][0].update(
        phase=0)),
    "stale m": ("kinvariant", lambda d: d.update(m=3)),
    "stale mC": ("kinvariant", lambda d: d.update(mC=3)),
    **{"%s %s" % (key, what): ("kinvariant", change)
       for key in ("act", "dualAct") for what, change in (
           ("repeated", lambda d, k=key: d[k].__setitem__(0, d[k][1])),
           ("out of range", lambda d, k=key: d[k].__setitem__(0, 3)),
           ("negative", lambda d, k=key: d[k].__setitem__(0, -1)),
           ("short", lambda d, k=key: d[k].pop()),
           ("long", lambda d, k=key: d[k].append(3)),
           ("boolean", lambda d, k=key: d.__setitem__(k, [False, True, 2])),
           ("0/1 matrix", lambda d, k=key: d.__setitem__(k, [
               [int(j == s) for j in range(3)] for s in d[k]])))},
}


@pytest.mark.parametrize("case", sorted(_NEW_FIELDS))
def test_new_fields_and_stale_members_exit_two(fuzzdir, case):
    """A fixed piece's exponents are n ascending integers in 0..p-1 and
    an invariant's act and dualAct permutations of its block indices;
    anything else, and a format-2 v, phase, m or mC left in a document,
    is an input error under every command that reads the document."""
    kind, mutate = _NEW_FIELDS[case]
    doc = copy.deepcopy(_base_docs()[kind])
    mutate(doc)
    with pytest.raises(FormatError):
        loads(json.dumps(doc))
    bad = str(fuzzdir / "new_field.json")
    Path(bad).write_text(json.dumps(doc))
    lines = _TOP_COMMANDS.get(kind) or [
        (cmd, *[BAD] * files) for cmd, files in _COMMANDS[kind]]
    for line in lines:
        assert _exit_code(*_argv(fuzzdir, line, bad)) == 2, line


@pytest.mark.parametrize("value,code", [
    ([0, 2, True], 2), ([0, 2, 2], 1), ([0, 2, 3], 1), ([0, 2], 1),
    ([1, 3, 2], 1)], ids=["boolean", "repeated", "out-of-range", "short",
                          "1-based"])
def test_a_system_sigma_is_a_list_of_integers_that_validate_checks(
        fuzzdir, capsys, value, code):
    """A system's sigma is its 0-based list of images. A value that is not
    a list of JSON integers is an input error; whether the integers form
    a permutation, of the right length, is validate's finding (exit 1),
    as for any other system that is not valid. A 1-based sigma, as
    format 2 wrote it, is one of those."""
    doc = copy.deepcopy(_base_docs()["system"])
    doc["sigma"] = value
    bad = str(fuzzdir / "sigma.json")
    Path(bad).write_text(json.dumps(doc))
    assert _exit_code("validate", bad) == code


def _extra_member(doc, at):
    """doc with a member "extra" added to its at-th JSON object."""
    doc = copy.deepcopy(doc)
    list(_dicts(doc))[at]["extra"] = 0
    return doc


@pytest.mark.parametrize("kind", sorted(set(_TOP_COMMANDS) | set(_COMMANDS)))
def test_a_member_that_its_object_does_not_have_exits_two(fuzzdir, kind):
    """Every JSON object of a document (the document, each object in
    "objects", a piece, an iso, a hom block, a slot, a matrix, a
    triangle, an inline pair or dual) has only the members of its kind:
    with one more, load refuses the document, which used to load and
    dump to other text. Each command that reads the document exits 2 on
    the extra member of the top level and of its first nested object."""
    base = _base_docs()[kind]
    count = len(list(_dicts(base)))
    for at in range(count):
        with pytest.raises(FormatError):
            loads(json.dumps(_extra_member(base, at)))
    lines = _TOP_COMMANDS.get(kind) or [
        (cmd, *[BAD] * files) for cmd, files in _COMMANDS[kind]]
    bad = str(fuzzdir / "extra_member.json")
    for at in range(min(count, 2)):
        Path(bad).write_text(json.dumps(_extra_member(base, at)))
        for line in lines:
            assert _exit_code(*_argv(fuzzdir, line, bad)) == 2, (at, line)


@pytest.mark.parametrize("kind,key,value", [
    ("kinvariant", "p", 2), ("kinvariant", "order", 16), ("kpair", "p", 2),
    ("kpair", "order", 16), ("kinvariant", "objects", []),
    ("tower", "p", 2)])
def test_p_and_order_only_where_a_document_has_a_field(kind, key, value):
    """p and order name the field of a document's matrices and forms; an
    invariant, a pair or a tower without stages has none, and writes
    neither, so a document of one that carries them is refused. So is
    an empty objects list, which no document writes."""
    doc = copy.deepcopy(_kind_docs()[kind])
    if kind == "tower":
        doc = {"afzp_format": 3, "kind": "tower", "systems": [], "maps": []}
        assert loads(json.dumps(doc)) == Tower([], [])
    doc[key] = value
    with pytest.raises(FormatError):
        loads(json.dumps(doc))


def test_a_crossed_document_is_written_only(fuzzdir):
    """afzp crossed writes a crossed document, and no command reads one:
    loads refuses a written one as an unknown kind, where it used to
    rebuild the presentation and compare each derived member as text,
    and a command given it exits 2 (the hostile documents below run
    every command on one)."""
    for doc in (_base_docs()["crossed"], _kind_docs()["crossed"]):
        with pytest.raises(FormatError,
                           match="unknown document kind 'crossed'"):
            loads(json.dumps(doc))
    bad = str(fuzzdir / "crossed.json")
    for cmd, files in _COMMANDS["crossed"]:
        assert _exit_code(cmd, *[bad] * files) == 2, cmd


def _load_peak(text):
    """The FormatError message of loads(text) ("" when it loads) and the
    peak of the memory traced meanwhile, in bytes."""
    tracemalloc.start()
    try:
        loads(text)
        refused = ""
    except FormatError as exc:
        refused = str(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return refused, peak


def _crossed_cycle_document():
    """A crossed document whose source is one cycle piece of size n = 100
    at p = 2, with the blocks, special element, iota and identify header
    of that source, and an identify without entries: a few hundred bytes
    that name a p^2 n^2-entry matrix."""
    n = 100
    return json.dumps({
        "afzp_format": 3, "kind": "crossed", "p": 2, "order": 16,
        "objects": [{"kind": "canonical",
                     "pieces": [{"kind": "cycle", "n": n}]}],
        "source": 0, "blocks": [2 * n], "special": [n], "iota": [[1, 1]],
        "dual": {}, "identify": {"rows": 4 * n * n, "cols": 4 * n * n,
                                 "entries": []}})


def _hom_onto_a_huge_cycle(n=10 ** 6):
    """A hom document from and to one cycle piece of size n at p = 2
    whose first conj is an n x n header without entries: a few hundred
    bytes naming an n-row matrix in a block of that size."""
    return json.dumps({
        "afzp_format": 3, "kind": "hom", "p": 2, "order": 16,
        "objects": [{"kind": "canonical",
                     "pieces": [{"kind": "cycle", "n": n}]}],
        "source": 0, "target": 0, "unital": True, "blocks": [
            {"slots": [{"src": t, "size": n}],
             "conj": {"rows": n, "cols": n, "entries": []}}
            for t in range(2)]})


_HOSTILE = {
    "system": '{"afzp_format":3,"kind":"system","p":2,"order":16,'
              '"blocks":[300000000],"sigma":[0],"impl":[{"rows":300000000,'
              '"cols":300000000,"entries":[]}]}',
    "hom": _hom_onto_a_huge_cycle(),
    "unitaries": '{"afzp_format":3,"kind":"unitaries","p":2,"order":16,'
                 '"W":[{"rows":1000000,"cols":1,"entries":[]}]}',
    "report": '{"afzp_format":3,"kind":"report","ok":true,"checks":'
              '[{"detail":"","name":"stage count","ok":true}]}',
    "crossed": _crossed_cycle_document(),
}
_REFUSED = {"system": "lists 0 entries",
            "hom": "lists 0 entries",
            "unitaries": "unknown document kind 'unitaries'",
            "report": "unknown document kind 'report'",
            "crossed": "unknown document kind 'crossed'"}


def _file_commands():
    """Each command with the number of files it must be given; demo reads
    none."""
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return {name: sum(1 for a in sp._actions
                      if not a.option_strings and a.nargs != "?")
            for name, sp in sub.choices.items() if name != "demo"}


@pytest.mark.parametrize("kind", sorted(_HOSTILE))
def test_hostile_documents_are_refused_before_allocation(tmp_path, capsys,
                                                         kind):
    """A 141-byte system document whose impl is a 3*10^8-row header in a
    block it declares of that size, a hom onto a cycle piece of size
    10^6 with an empty 10^6-row conj, a unitaries document declaring a
    10^6-row matrix, a report and a crossed document naming a
    160,000-entry identify (the three kinds are written, never read)
    are refused by loads in under 2 MiB, and by every command that
    reads files, in the first file position, with an input error. The
    system document used to end in a MemoryError and the hom to
    allocate its empty rows (48 MiB); the unitaries and report
    documents used to load; the crossed document used to build its
    whole presentation (15 MiB) before comparing it as text."""
    text = _HOSTILE[kind]
    if kind == "system":
        assert len(text) == 141
    refused, peak = _load_peak(text)
    assert peak < 2 * 2 ** 20, peak
    assert _REFUSED[kind] in refused
    bad = tmp_path / "hostile.json"
    bad.write_text(text)
    commands = _file_commands()
    assert len(commands) == 10
    capsys.readouterr()
    for cmd, files in sorted(commands.items()):
        assert main([cmd] + [str(bad)] * files) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err, \
            (cmd, err)


@pytest.mark.parametrize("key,value", [
    (key, value) for key in ("left", "right")
    for value in ("x", None, [1], -1, 99)] + [("kind", 5)])
def test_a_triangle_record_names_a_tower_and_two_of_its_stages(
        fuzzdir, capsys, key, value):
    """A triangle's kind is "A" or "B" and its left and right are JSON
    integers indexing that tower's stages; anything else is an input
    error. A left of "x", None or [1] used to end verify in a TypeError
    traceback."""
    doc = copy.deepcopy(_base_docs()["certificate"])
    doc["triangles"][0][key] = value
    with pytest.raises(FormatError, match="and two of its stages"):
        loads(json.dumps(doc))
    bad = fuzzdir / "bad_triangle.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


def _unreferenced_tower(doc):
    """One more object: a copy of the top-level tower that nothing
    references."""
    doc["objects"].append({"kind": "tower", "systems": doc["systems"],
                           "maps": doc["maps"]})


def _swapped_forms(doc):
    """The two canonical objects swapped, every reference to them
    following: the same value, listed out of the written order."""
    objects, swap = doc["objects"], {0: 1, 1: 0}
    objects[0], objects[1] = objects[1], objects[0]
    doc["systems"] = [swap.get(i, i) for i in doc["systems"]]
    for holder, key in _refs(objects):
        holder[key] = swap.get(holder[key], holder[key])


# product_tower(2, 2)'s 653-byte document changed in its object list:
# (change, size of the changed text, the loader's message)
_OBJECT_LISTS = {
    "unreferenced tower": (_unreferenced_tower, 697,
                           "object 3 is not referenced"),
    "swapped forms": (_swapped_forms, 653,
                      r"out of order: the writer lists them as \[1, 0, 2\]"),
}


@pytest.mark.parametrize("case", sorted(_OBJECT_LISTS))
def test_an_object_list_the_writer_would_not_write_exits_two(fuzzdir, case):
    """Every object is referenced, and the objects stand in the order
    the writer emits them: each after those it refers to, in the order
    of first reference. Both documents used to load; the first dumped
    back to 653 bytes and the second to the original text, so bytes
    were not a function of value."""
    change, size, message = _OBJECT_LISTS[case]
    doc = copy.deepcopy(_base_docs()["tower"])
    assert len(json.dumps(doc, sort_keys=True, separators=(",", ":"))) == 653
    change(doc)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert len(text) == size
    with pytest.raises(FormatError, match=message):
        loads(text)
    bad = fuzzdir / "object_list.json"
    bad.write_text(text)
    assert _exit_code("intertwine", str(bad), str(fuzzdir / "tower.json"),
                      "--depth", "2") == 2
