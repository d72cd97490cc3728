import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import afzp
from afzp.cli import DEMOS, build_parser, main
from afzp.classify import (Tower, conjugate_hom, equiv_unitary, intertwine,
                           verify_certificate)
from afzp.cyclo import FieldContext
from afzp.demos import identity_pairs, product_tower
from afzp.errors import FormatError
from afzp.kinv import KInvariant, KPair, induced_map
from afzp.matrix import Mat
from afzp.serialize import dumps, load_json, loads, save_json
from afzp.system import CanonicalForm, FdSystem, identity_hom, validate

from conftest import dumps_format1, dumps_format2, fixed_form


def _at(doc, path):
    """The value at path in a document, each reference on the
    way, and at its end, replaced by the object it names."""
    node = doc
    for key in path:
        node = node[key]
        if isinstance(node, int):
            node = doc["objects"][node]
    return node


def _text(path):
    with open(path) as fh:
        return fh.read()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ctx = FieldContext(2, 16)
    save_json("m2.json", FdSystem(ctx, 2, [2], (0,),
                                  [Mat.diag(ctx, [1, -1])]))
    save_json("m1.json", FdSystem(ctx, 2, [1], (0,),
                                  [Mat.identity(ctx, 1)]))
    save_json("pair.json", KPair([[2]], [[1, 1], [1, 1]]))
    return tmp_path


def test_validate_ok_exit_zero(workdir, capsys):
    assert main(["validate", "m2.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "report" and out["ok"]


def test_validate_bad_system_exit_one(workdir, capsys):
    ctx = FieldContext(2, 16)
    bad = FdSystem(ctx, 2, [2], (0,),
                   [Mat.diag(ctx, [ctx.one, ctx.root(4)])])
    save_json("bad.json", bad)
    assert main(["validate", "bad.json"]) == 1


def test_malformed_file_exit_two(workdir, capsys):
    with open("junk.json", "w") as fh:
        fh.write("{not json")
    assert main(["validate", "junk.json"]) == 2
    assert main(["validate", "missing.json"]) == 2


def test_wrong_kind_exit_two(workdir):
    assert main(["canon", "pair.json"]) == 2


def test_canon_kinv_checkpair_pipeline(workdir, capsys):
    assert main(["canon", "m2.json", "--out", "c2.json"]) == 0
    assert main(["kinv", "c2.json", "--out", "i2.json"]) == 0
    assert main(["kinv", "m1.json", "--out", "i1.json"]) == 0
    assert main(["checkpair", "pair.json", "i1.json", "i2.json"]) == 0
    # mathematically failing pair: wrong direction
    assert main(["checkpair", "pair.json", "i2.json", "i1.json"]) == 1


def test_lift_induced_equiv_flow(workdir, capsys):
    assert main(["lift", "pair.json", "m1.json", "m2.json",
                 "--out", "hom.json"]) == 0
    assert main(["validate", "hom.json"]) == 0
    capsys.readouterr()
    assert main(["induced", "hom.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["F"] == [[2]] and out["phi"] == [[1, 1], [1, 1]]
    assert main(["equiv", "hom.json", "hom.json", "--out", "w.json"]) == 0
    hom = load_json("hom.json")
    W, _ = equiv_unitary(hom, hom)
    assert W[0].is_unitary()
    assert _text("w.json") == dumps(W) + "\n"


def test_zero_algebra_lifts_and_checks(workdir, capsys):
    """A canonical form with no pieces and an invariant with m = 0 (the
    zero algebra) go through checkpair and lift; from it to M_1 no pair
    is unital."""
    save_json("zero.json", CanonicalForm(FieldContext(2, 16), 2, []))
    save_json("i0.json", KInvariant([], (), (), [], []))
    save_json("p00.json", KPair([], []))
    save_json("p01.json", KPair([[]], [[], []]))
    assert main(["checkpair", "p00.json", "i0.json", "i0.json"]) == 0
    assert main(["lift", "p00.json", "zero.json", "zero.json",
                 "--out", "h0.json"]) == 0
    assert main(["validate", "h0.json"]) == 0
    assert main(["kinv", "m1.json", "--out", "i1.json"]) == 0
    assert main(["checkpair", "p01.json", "i0.json", "i1.json"]) == 1
    assert main(["lift", "p01.json", "zero.json", "m1.json"]) == 1


def test_lift_obstructed_exit_one(workdir):
    ctx = FieldContext(2, 16)
    save_json("m4.json", FdSystem(ctx, 2, [4], (0,),
                                  [Mat.diag(ctx, [1, 1, 1, -1])]))
    assert main(["lift", "pair.json", "m2.json", "m4.json"]) == 1


def test_crossed_output(workdir, capsys):
    assert main(["crossed", "m2.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "crossed"
    assert out["blocks"] == [2, 2]
    assert out["special"] == [1, 1]


def test_intertwine_verify_and_corruption(workdir, capsys):
    save_json("towerA.json", product_tower(2, 3))
    save_json("towerB.json", product_tower(2, 3, resorted=True))
    assert main(["intertwine", "towerA.json", "towerB.json",
                 "--depth", "3", "--out", "cert.json"]) == 0
    assert main(["verify", "cert.json"]) == 0
    new = json.loads(Path("cert.json").read_text())
    # corrupting a single matrix entry must fail verification: the first
    # entry of the second forward hom's first conjugator
    conj = _at(new, ("forward", 1, "blocks", 0, "conj"))
    conj["entries"][0][2] = "0:7"
    Path("cert.json").write_text(json.dumps(new))
    assert main(["verify", "cert.json"]) == 1


def test_output_files_reparse_bit_exact(workdir):
    assert main(["canon", "m2.json", "--out", "c2.json"]) == 0
    first = Path("c2.json").read_text()
    obj = loads(first)
    assert dumps(obj) + "\n" == first


def test_demo_naive_doubling(workdir, capsys):
    assert main(["demo", "naive-doubling"]) == 0
    out = capsys.readouterr().out
    assert "NOT equivariant" in out
    assert "obstruction" in out
    assert "PASS" in out


def test_demo_unknown_exit_two(workdir):
    assert main(["demo", "no-such-demo"]) == 2


def test_validate_multiple_files(workdir, capsys):
    assert main(["validate", "m1.json", "m2.json"]) == 0
    out = capsys.readouterr().out
    assert out.count("== ") == 2
    assert "== m1.json" in out and "== m2.json" in out


def test_validate_several_files_with_out_exit_two(workdir, capsys):
    """One --out file holds one report, so several files with --out are
    refused before anything is written."""
    assert main(["validate", "m1.json", "m2.json", "--out", "r.json"]) == 2
    assert "--out" in capsys.readouterr().err
    assert not os.path.exists("r.json")
    assert main(["validate", "m2.json", "--out", "r.json"]) == 0
    rep = validate(load_json("m2.json"))
    assert rep.ok and _text("r.json") == dumps(rep) + "\n"


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_demo_passes_at_depth_two(workdir, capsys, name):
    p = 3 if name == "product-tower-p3" else 2
    assert main(["demo", name, "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "stages: [[%d], [%d]]\n" % (p, p * p) in out
    assert out.splitlines()[-1].startswith("PASS")


def test_resorted_demo_prints_the_tower_check_lines(workdir, capsys):
    assert main(["demo", "product-tower-p2-resorted", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tower stages: [[2], [4]]\ntriangles corrected: ")
    assert "[PASS] triangle over B0 -> B1 commutes\n" in out


def test_each_command_takes_only_the_options_it_reads():
    """The top-level parser takes -h only; --out is on every command,
    --format on those that can emit a report, --depth on intertwine and
    demo."""
    def options(parser):
        return {o for a in parser._actions for o in a.option_strings
                if o not in ("-h", "--help")}
    ap = build_parser()
    assert options(ap) == set()
    sub, = [a for a in ap._actions
            if isinstance(a, argparse._SubParsersAction)]
    report = {"validate", "checkpair", "verify", "induced", "equiv"}
    assert len(sub.choices) == 11
    for name, sp in sub.choices.items():
        want = {"--out"}
        want |= {"--format"} if name in report else set()
        want |= {"--depth"} if name in ("intertwine", "demo") else set()
        assert options(sp) == want, name


def test_text_format_prints_a_non_report_as_json(workdir, capsys):
    assert main(["lift", "pair.json", "m1.json", "m2.json",
                 "--out", "hom.json"]) == 0
    assert main(["induced", "hom.json", "--format", "text"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "kpair"


# corruptions of the first entry of a system's impl diag(1, -1), in the
# order-16 field (degree 8)
def _zero_denominator(unit):
    unit["entries"][0][2] = "0:1/0"


def _long_coefficients(unit):
    unit["entries"][0][2] = "0:1 8:1"


def _wrong_rows(unit):
    unit["rows"] = 3


def _bare_scalar(unit):
    unit["entries"][0] = "0:1"


def _run_cli(code, *argv, preexec_fn=None, **env):
    """Run the CLI in a fresh interpreter, with env added to the
    environment and preexec_fn run in the child before it starts; it
    must exit with `code` without a traceback, within 60 s (a hung
    child fails the test). Returns the process."""
    env = dict(os.environ, **env,
               PYTHONPATH=os.path.dirname(os.path.dirname(afzp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "afzp.cli", *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=preexec_fn, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def _assert_input_error(*argv):
    assert _run_cli(2, *argv).stderr.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ("--out", "c.json", "demo", "product-tower-p2", "--depth", "2"),
    ("--order", "4", "demo", "product-tower-p2", "--out", "c.json"),
    ("--format", "text", "validate", "m2.json"),
    ("canon", "m2.json", "--format", "text", "--out", "c.json"),
    ("kinv", "m2.json", "--order", "4", "--out", "c.json"),
    ("demo", "product-tower-p2", "--format", "text", "--out", "c.json"),
    ("demo", "product-tower-p2", "--order", "5", "--out", "c.json"),
    ("demo", "naive-doubling", "--depth", "2", "--order", "4"),
    ("demo", "product-tower-p2", "--depth", "0", "--out", "c.json"),
    ("demo", "product-tower-p2", "--depth", "-1", "--out", "c.json"),
    ("demo", "product-tower-p2", "--depth", "two", "--out", "c.json"),
    ("intertwine", "m2.json", "m2.json", "--depth", "0", "--out", "c.json")])
def test_misplaced_or_unread_option_is_a_usage_error(workdir, argv):
    """An option before the command, or on a command that does not read
    it, and a --depth below 1 exit 2 from argparse and write nothing."""
    assert "usage: afzp" in _run_cli(2, *argv).stderr
    assert not os.path.exists("c.json")


@pytest.mark.parametrize("argv,message", [
    (("demo", "naive-doubling", "--depth", "1"), "at least 2"),
    (("demo", "naive-doubling", "--out", "c.json"), "writes no file"),
    (("validate", "m1.json", "m2.json", "--out", "c.json"), "--out")])
def test_demo_or_validate_input_error_names_the_cause(workdir, argv,
                                                      message):
    err = _run_cli(2, *argv).stderr
    assert err.startswith("input error:") and message in err
    assert not os.path.exists("c.json")


def test_a_result_that_does_not_fit_in_memory_exits_two(workdir):
    """The crossed product of a cycle piece of size 10^6, in a process
    whose address space is capped at 256 MiB, runs out of memory within
    seconds: an input error, where earlier versions ended in a
    MemoryError traceback with exit 1."""
    with open("big.json", "w") as fh:
        json.dump({"afzp_format": 3, "kind": "canonical", "order": 16,
                   "p": 2, "pieces": [{"kind": "cycle", "n": 10 ** 6}]}, fh)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    assert _run_cli(2, "crossed", "big.json", preexec_fn=cap) \
        .stderr.startswith("input error:")


def test_a_field_of_order_4p2_at_a_large_prime_exits_two(workdir):
    """A 116-byte canonical document with p = 1000003 at field order
    4p^2, in a process whose address space is capped at 256 MiB: the
    field is read off p and N, so building it runs out of memory at once
    (degree 2p(p - 1)), an input error. Earlier versions factored N by
    trial division up to N and did not exit within 40 s."""
    p = 1000003
    with open("big.json", "w") as fh:
        json.dump({"afzp_format": 3, "kind": "canonical", "p": p,
                   "order": 4 * p * p,
                   "pieces": [{"kind": "cycle", "n": 1}]}, fh)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    assert _run_cli(2, "kinv", "big.json", preexec_fn=cap) \
        .stderr.startswith("input error:")


def test_the_invariant_of_a_p1009_piece_is_linear_in_p(workdir):
    """afzp kinv on the canonical document of one fixed piece
    diag(1, zeta_p) at p = 1009, field order p, writes its invariant in
    under 16 KB: act and dualAct are lists of p entries. Format 2 wrote
    them as 0/1 matrices, 2,044,343 bytes from the 152-byte format-2
    document of the same form."""
    with open("big.json", "w") as fh:
        json.dump({"afzp_format": 3, "kind": "canonical", "p": 1009,
                   "order": 1009, "pieces": [
                       {"kind": "fixed", "n": 2, "exponents": [0, 1]}]}, fh)
    assert main(["kinv", "big.json", "--out", "inv.json"]) == 0
    assert os.path.getsize("inv.json") < 16_000
    inv = load_json("inv.json")
    assert inv.dualAct == tuple((b + 1) % 1009 for b in range(1009))


def test_the_invariant_of_a_p211_piece_at_order_4p2_is_pinned(workdir):
    """afzp kinv on one fixed piece diag(1, zeta_p) at p = 211, default
    field order 4p^2 = 178084, writes the same 2,092 bytes as the
    versions that stored Phi_N and its fold and conjugate tables."""
    with open("f.json", "w") as fh:
        json.dump({"afzp_format": 3, "kind": "canonical", "p": 211,
                   "order": 178084, "pieces": [
                       {"kind": "fixed", "n": 2, "exponents": [0, 1]}]}, fh)
    assert main(["kinv", "f.json", "--out", "inv.json"]) == 0
    with open("inv.json", "rb") as fh:
        data = fh.read()
    assert len(data) == 2092
    assert hashlib.sha256(data).hexdigest() == (
        "0991f825e2357898f6269792a1054f0d82bb1f68154210656ea535b26f8ad751")


def test_afzp_order_in_the_environment_is_ignored(workdir):
    _run_cli(0, "demo", "product-tower-p2", "--depth", "2",
             "--out", "c.json", AFZP_ORDER="abc")
    tower = load_json("c.json").towerA
    assert [s.block_sizes for s in tower.systems] == [[2], [4]]
    assert tower.systems[0].ctx.order == 16


@pytest.mark.parametrize("corrupt", [_zero_denominator, _long_coefficients,
                                     _wrong_rows, _bare_scalar])
def test_corrupted_system_exit_two_without_traceback(workdir, corrupt):
    doc = json.loads(Path("m2.json").read_text())
    corrupt(doc["impl"][0])
    Path("bad.json").write_text(json.dumps(doc))
    _assert_input_error("validate", "bad.json")


# a system's blocks and sigma with a float, boolean or string where a
# JSON integer belongs (m2.json has blocks [2] and sigma [1])
_BLOCKS_SIGMA_CORRUPTIONS = {
    "sigma-float": ("sigma", [1.0]),
    "blocks-float": ("blocks", [2.0]),
    "sigma-boolean": ("sigma", [True]),
    "blocks-boolean": ("blocks", [True]),
    "blocks-string": ("blocks", "2"),
}


@pytest.mark.parametrize("command", ["validate", "canon", "kinv", "crossed"])
@pytest.mark.parametrize("name", sorted(_BLOCKS_SIGMA_CORRUPTIONS))
def test_system_blocks_and_sigma_must_be_integer_lists(workdir, capsys,
                                                       command, name):
    """A system's blocks and sigma are lists of JSON integers. A float
    used to end in a TypeError traceback, a boolean block size in exit 0
    with "n": true written, a boolean sigma was read as 1 and the string
    "2" as the list ["2"]."""
    doc = json.loads(Path("m2.json").read_text())
    key, value = _BLOCKS_SIGMA_CORRUPTIONS[name]
    doc[key] = value
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "blocks and sigma" in err


@pytest.mark.parametrize("command", ["validate", "canon", "kinv", "crossed"])
@pytest.mark.parametrize("blocks", [[0], [1, 0], [-1]],
                         ids=["0", "1-0", "minus-1"])
def test_block_size_below_one_is_named(workdir, capsys, command, blocks):
    """A block size below 1 fails with exit 1 and a report item naming
    the block. A 0 x 0 block used to be reported as an orbit whose
    product of unitaries is not scalar, and size -1 only by its impl
    shape."""
    doc = json.loads(Path("m1.json").read_text())
    empty = {"rows": 0, "cols": 0, "entries": []}
    doc.update(blocks=blocks, sigma=list(range(len(blocks))),
               impl=[doc["impl"][0] if n == 1 else empty for n in blocks])
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "bad.json"]) == 1
    out = capsys.readouterr()
    name, detail = ("block %d has positive size" % (len(blocks) - 1),
                    "size %d" % blocks[-1])
    if command == "validate":
        assert {"name": name, "ok": False, "detail": detail} in \
            json.loads(out.out)["checks"]
    else:
        assert "[FAIL] %s: %s" % (name, detail) in out.err
    assert "not scalar" not in out.out + out.err


# corruptions of the fixed piece of an n=2 canonical form at p = 2 whose
# V is diag(1, -1): {"exponents": [0, 1], "kind": "fixed", "n": 2}. A
# document gives V as its exponents e, V = diag(zeta_p^e), so each defect
# of V is written as the defect of e that names it
def _v_non_diagonal(piece):  # the format-2 matrix of a non-diagonal V
    piece["v"] = {"rows": 2, "cols": 2, "entries": [
        [0, 0, "0:1"], [0, 1, "0:1"], [1, 1, "0:-1"]]}


def _v_non_unitary(piece):   # diag(1, zeta_p^2): no exponent below p
    piece["exponents"] = [0, 2]


def _v_unsorted(piece):      # diag(-1, 1)
    piece["exponents"] = [1, 0]


def _v_wrong_size(piece):    # 1x1 in an n=2 piece
    piece["exponents"] = [0]


def _slot_src_string(doc):
    doc["blocks"][0]["slots"][0]["src"] = "0"


def _slot_size_string(doc):
    doc["blocks"][0]["slots"][0]["size"] = "2"


def _slot_src_boolean(doc):
    doc["blocks"][0]["slots"][0]["src"] = True


_V_CORRUPTIONS = [_v_non_diagonal, _v_non_unitary, _v_unsorted,
                  _v_wrong_size]


@pytest.mark.parametrize("command,corrupt", [
    *[(cmd, c) for cmd in ("kinv", "crossed", "validate")
      for c in _V_CORRUPTIONS],
    ("validate", _slot_src_string), ("validate", _slot_size_string),
    ("validate", _slot_src_boolean)])
def test_corrupted_canonical_or_hom_exit_two(workdir, command, corrupt):
    assert main(["canon", "m2.json", "--out", "c2.json"]) == 0
    assert main(["lift", "pair.json", "m1.json", "m2.json",
                 "--out", "hom.json"]) == 0
    if command == "validate":
        doc = json.loads(Path("hom.json").read_text())
        if corrupt in _V_CORRUPTIONS:
            corrupt(_at(doc, ("target", "pieces", 0)))
        else:
            corrupt(doc)
    else:
        doc = json.loads(Path("c2.json").read_text())
        corrupt(doc["pieces"][0])
    Path("bad.json").write_text(json.dumps(doc))
    _assert_input_error(command, "bad.json")


def test_text_format_report(workdir, capsys):
    assert main(["validate", "m2.json", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_empty_piece_in_tower_exit_two(workdir):
    assert main(["canon", "m2.json", "--out", "c2.json"]) == 0
    save_json("tower.json", Tower([load_json("c2.json")], []))
    doc = json.loads(Path("tower.json").read_text())
    _at(doc, ("systems", 0, "pieces")).append({"kind": "cycle", "n": 0})
    Path("tower.json").write_text(json.dumps(doc))
    assert main(["intertwine", "tower.json", "tower.json",
                 "--depth", "1"]) == 2


def test_tower_with_a_map_past_its_last_stage_exit_one(workdir):
    """A tower file whose one map has no stage to land in fails the
    stage count check; validate_tower used to index past the last
    stage and end in an IndexError."""
    save_json("tower.json", product_tower(2, 2))
    doc = json.loads(Path("tower.json").read_text())
    del doc["systems"][1:]
    Path("bad.json").write_text(json.dumps(doc))
    err = _run_cli(1, "intertwine", "bad.json", "bad.json",
                   "--depth", "1").stderr
    assert "[FAIL] stage count" in err


def _slot_src_out_of_range(hom):
    hom["blocks"][0]["slots"][0]["src"] = 7


def _slot_src_negative(hom):
    hom["blocks"][0]["slots"][0]["src"] = -1


def _slot_size_overflow(hom):
    hom["blocks"][0]["slots"][0]["size"] = 5


_SLOT_CORRUPTIONS = [_slot_src_out_of_range, _slot_src_negative,
                     _slot_size_overflow]


@pytest.mark.parametrize("corrupt", _SLOT_CORRUPTIONS)
def test_equiv_rejects_invalid_hom(workdir, corrupt):
    assert main(["lift", "pair.json", "m1.json", "m2.json",
                 "--out", "hom.json"]) == 0
    doc = json.loads(Path("hom.json").read_text())
    corrupt(doc)
    Path("bad.json").write_text(json.dumps(doc))
    for argv in (("bad.json", "hom.json"), ("hom.json", "bad.json")):
        out = _run_cli(1, "equiv", *argv, "--format", "text").stdout
        assert "[FAIL] slot into target block 0" in out


@pytest.mark.parametrize("path,line", [
    (("forward", 1), "[FAIL] forward hom 1 valid"),
    (("backward", 0), "[FAIL] backward hom 0 valid"),
    (("towerA", "maps", 0), "[FAIL] tower A valid")])
def test_verify_reports_invalid_hom_without_traceback(workdir, path, line):
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    doc = json.loads(Path("cert.json").read_text())
    _slot_src_out_of_range(_at(doc, path))
    Path("bad.json").write_text(json.dumps(doc))
    out = _run_cli(1, "verify", "bad.json", "--format", "text").stdout
    assert line + "\n" in out
    assert ": not checked: " in out


def test_verify_checks_a_forward_hom_maps_its_stages(workdir):
    """A one-stage certificate whose forward hom is tower A's own map
    A0 -> A1, stored with the pair it induces, used to pass with exit 0:
    that hom is valid and induces its pair, but does not map A0 to B0."""
    tower = product_tower(2, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 1), depth=1)
    cert.forward[0] = tower.maps[0]
    cert.pairs[0] = induced_map(tower.maps[0])
    save_json("cert.json", cert)
    out = _run_cli(1, "verify", "cert.json", "--format", "text").stdout
    assert "[PASS] forward hom 0 valid\n" in out
    assert "[FAIL] forward hom 0 maps A0 -> B0\n" in out
    assert "[FAIL] forward hom 0 induces its pair: not checked: forward " \
        "hom 0 is invalid\n" in out


def test_verify_names_the_unit_of_a_failed_triangle(workdir):
    """A forward hom replaced by its conjugate under the fixed-point
    unitary diag(1, -1) is valid and induces its pair, but differs as a
    map, so the triangle over A0 -> A1 fails. Its detail names the
    target block, the source block and the unit; it used to be empty."""
    tower = product_tower(2, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    psi = cert.forward[0]
    cert.forward[0] = conjugate_hom([Mat.diag(psi.target.ctx, [1, -1])], psi)
    save_json("cert.json", cert)
    out = _run_cli(1, "verify", "cert.json", "--format", "text").stdout
    assert "[PASS] forward hom 0 valid\n" in out
    assert "[PASS] forward hom 0 induces its pair\n" in out
    assert "[FAIL] triangle over A0 -> A1 commutes: fails on unit (1,1) " \
        "of source block 0 at target block 0\n" in out
    assert "[PASS] triangle over B0 -> B1 commutes\n" in out


@pytest.mark.parametrize("change", ["drop", "identity"])
def test_verify_checks_each_correction_fits_its_right_stage(workdir, change):
    """A triangle's corrections are one unitary per block of its right
    stage: dropping one, or putting a 3x3 identity in place of the 4x4
    correction, fails the item "correction on triangle A0->1 is
    unitary". Both used to pass, since either list holds only
    unitaries."""
    tower = product_tower(2, 2)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    w = cert.triangles[0].correction
    assert [m.rows for m in w] == tower.systems[1].block_sizes
    if change == "drop":
        w.pop()
    else:
        w[0] = Mat.identity(w[0].ctx, 3)
    failed = [item.name for item in verify_certificate(cert).failures()]
    assert failed == ["correction on triangle A0->1 is unitary"]
    save_json("cert.json", cert)
    out = _run_cli(1, "verify", "cert.json", "--format", "text").stdout
    assert "[FAIL] correction on triangle A0->1 is unitary\n" in out


def test_verify_reports_a_backward_hom_between_other_stages(workdir):
    """A depth-2 certificate whose backward hom is tower B's map B1 -> B2
    used to make verify_certificate raise SystemMismatch from the
    triangle's composite; both triangles are now reported unchecked."""
    tower = product_tower(2, 3)
    cert = intertwine(tower, tower, pairs=identity_pairs(tower, 2), depth=2)
    cert.backward[0] = tower.maps[1]
    rep = verify_certificate(cert)
    assert not rep.ok
    failed = {item.name: item.detail for item in rep.failures()}
    assert failed == {
        "backward hom 0 maps B0 -> A1": "",
        "triangle over A0 -> A1 commutes":
            "not checked: backward hom 0 is invalid",
        "triangle over B0 -> B1 commutes":
            "not checked: backward hom 0 is invalid"}
    save_json("cert.json", cert)
    out = _run_cli(1, "verify", "cert.json", "--format", "text").stdout
    assert "[FAIL] backward hom 0 maps B0 -> A1\n" in out


def _cut_pairs(doc):
    del doc["pairs"][1:]


def _cut_forward(doc):
    del doc["forward"][1:]


def _extra_backward(doc):
    doc["backward"].append(doc["backward"][0])


def _a_stage_out_of_range(doc):
    doc["a_stages"] = [0, 5]


def _b_stage_negative(doc):
    doc["b_stages"] = [-1, 1]


def _a_stages_not_increasing(doc):
    doc["a_stages"] = [1, 1]


def _b_stage_not_integer(doc):
    doc["b_stages"] = [0, "1"]


@pytest.mark.parametrize("corrupt", [
    _cut_pairs, _cut_forward, _extra_backward, _a_stage_out_of_range,
    _b_stage_negative, _a_stages_not_increasing, _b_stage_not_integer])
def test_certificate_lengths_and_stages_exit_two(workdir, corrupt):
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    doc = json.loads(Path("cert.json").read_text())
    corrupt(doc)
    Path("bad.json").write_text(json.dumps(doc))
    _assert_input_error("verify", "bad.json")


def _texts(doc):
    """Every [i, j, scalar text] entry of a document, in file order."""
    for mat in _matrices(doc):
        yield from mat["entries"]


# corruptions of one scalar text in the order-16 field, whose power basis
# has degree 8
@pytest.mark.parametrize("corrupt", [
    lambda t: t.split(":")[0] + ":1/0",
    lambda t: t + " 8:1",
    lambda t: t + " 15:1"],
    ids=["zero_denominator", "long_coefficients", "wrong_order"])
def test_corrupted_repeat_of_a_scalar_exit_two(workdir, corrupt):
    """The loader decodes each distinct scalar text once; a corruption in
    the second occurrence of a text must still be caught: a zero
    denominator, a coefficient past the degree, or one of the field of
    twice the order."""
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    doc = json.loads(Path("cert.json").read_text())
    seen = set()
    for entry in _texts(doc):
        if entry[2] in seen:
            entry[2] = corrupt(entry[2])
            break
        seen.add(entry[2])
    Path("bad.json").write_text(json.dumps(doc))
    _assert_input_error("verify", "bad.json")


@pytest.mark.parametrize("path", [("towerA", "systems", 1),
                                  ("forward", 0, "source")],
                         ids=["second-system", "forward-source"])
@pytest.mark.parametrize("key,value", [("order", 16.0), ("p", 2.0),
                                       ("p", True)],
                         ids=["float-order", "float-p", "boolean-p"])
def test_non_integer_p_or_order_exit_two(workdir, path, key, value):
    """p and order stand on the top-level document only: an object
    reached through references that carries one is an input error, even
    a value that compares equal to the document's (16.0 == 16)."""
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    doc = json.loads(Path("cert.json").read_text())
    _at(doc, path)[key] = value
    Path("bad.json").write_text(json.dumps(doc))
    _assert_input_error("verify", "bad.json")


def test_format1_certificate_is_refused(workdir, capsys):
    """Formats 1 and 2 are no longer read: loads raises FormatError and
    verify exits 2, naming the format."""
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    cert = load_json("cert.json")
    for version, write in ((1, dumps_format1), (2, dumps_format2)):
        with open("old.json", "w") as fh:
            fh.write(write(cert))
        with pytest.raises(FormatError, match="afzp_format %d is not "
                           "supported" % version):
            load_json("old.json")
        capsys.readouterr()
        assert main(["verify", "old.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "format 3" in err


def _deep_nesting(path):
    path.write_text("[" * 200_000 + "]" * 200_000)


def _not_utf8(path):
    path.write_bytes(b'{"afzp_format": 3, "kind": "report\xff"}')


@pytest.mark.parametrize("make", [_deep_nesting, _not_utf8, os.mkdir],
                         ids=["deep-nesting", "not-utf8", "directory"])
def test_hostile_file_exits_two(workdir, make):
    """JSON nested past the recursion limit, a byte that is not UTF-8
    and a directory in place of a file are input errors, not
    tracebacks."""
    make(workdir / "hostile.json")
    _assert_input_error("validate", "hostile.json")


# -- certificate mutations ---------------------------------------------------


def _matrices(doc):
    """Every matrix object in doc, in file order."""
    if isinstance(doc, dict):
        if "entries" in doc:
            yield doc
        for key in sorted(doc):
            yield from _matrices(doc[key])
    elif isinstance(doc, list):
        for item in doc:
            yield from _matrices(item)


def _first_object(doc, kind):
    return next(i for i, o in enumerate(doc["objects"]) if o["kind"] == kind)


def _scalar_text(text):
    def corrupt(doc):
        next(_matrices(doc))["entries"][0][2] = text
    return corrupt


def _entry(change):
    """change(entries, rows, cols) on the first matrix with two entries."""
    def corrupt(doc):
        mat = next(m for m in _matrices(doc) if len(m["entries"]) >= 2)
        change(mat["entries"], mat["rows"], mat["cols"])
    return corrupt


def _object_field(kind, key, value):
    def corrupt(doc):
        doc["objects"][_first_object(doc, kind)][key] = value(doc)
    return corrupt


def _top(key, value):
    def corrupt(doc):
        doc[key] = value(doc) if callable(value) else value
    return corrupt


def _hom_source_self(doc):
    i = _first_object(doc, "hom")
    doc["objects"][i]["source"] = i


def _hom_source_later(doc):
    i = _first_object(doc, "hom")
    doc["objects"][i]["source"] = len(doc["objects"]) - 1


_FORMAT2_CORRUPTIONS = {
    # object references
    "dangling-forward": _top("forward", lambda d: [len(d["objects"])]
                             + d["forward"][1:]),
    "negative-forward": _top("forward", lambda d: [-1] + d["forward"][1:]),
    "boolean-tower": _top("towerA", True),
    "cyclic-source": _hom_source_self,
    "forward-source": _hom_source_later,
    "wrong-kind-forward": _top("forward", lambda d: [
        _first_object(d, "canonical")] + d["forward"][1:]),
    "wrong-kind-tower": _top("towerB", lambda d: _first_object(d, "hom")),
    "wrong-kind-system": _object_field(
        "tower", "systems", lambda d: [_first_object(d, "hom")]),
    "unknown-object-kind": lambda d: d["objects"][0].update(kind="system"),
    # scalar text
    "unreduced": _scalar_text("0:2/2"),
    "unreduced-fraction": _scalar_text("0:2/4"),
    "unsorted": _scalar_text("1:1 0:1"),
    "repeated-exponent": _scalar_text("0:1 0:1"),
    "zero-coefficient": _scalar_text("0:0"),
    "zero-term": _scalar_text("0:1 1:0"),
    "exponent-at-degree": _scalar_text("8:1"),
    "negative-exponent": _scalar_text("-1:1"),
    "empty": _scalar_text(""),
    "double-space": _scalar_text("0:1  1:1"),
    "plus-sign": _scalar_text("0:+1"),
    "zero-denominator": _scalar_text("0:1/0"),
    "not-a-string": _scalar_text(1),
    # matrix entries
    "row-out-of-range": _entry(lambda e, r, c: e.append([r, 0, "0:1"])),
    "column-out-of-range": _entry(lambda e, r, c: e.append([r - 1, c,
                                                            "0:1"])),
    "negative-row": _entry(lambda e, r, c: e.insert(0, [-1, 0, "0:1"])),
    "repeated-entry": _entry(lambda e, r, c: e.insert(1, list(e[0]))),
    "row-major-order": _entry(lambda e, r, c: e.reverse()),
    "short-entry": _entry(lambda e, r, c: e[0].pop()),
    "non-integer-rows": lambda d: next(_matrices(d)).update(rows=2.0),
    # p and order: once, as integers, on the top-level document only
    "float-p": _top("p", 2.0),
    "boolean-p": _top("p", True),
    "float-order": _top("order", 16.0),
    "no-order": lambda d: d.pop("order"),
    "nested-p": _object_field("canonical", "p", lambda d: 2),
    "nested-order": _object_field("hom", "order", lambda d: 16),
    "nested-format": _object_field("tower", "afzp_format", lambda d: 3),
    "pair-with-p": lambda d: d["pairs"][0].update(p=2),
    "objects-not-a-list": _top("objects", {}),
}


@pytest.mark.parametrize("name", sorted(_FORMAT2_CORRUPTIONS))
def test_corrupted_format2_certificate_exit_two(workdir, capsys, name):
    """Every corruption of the p=2 depth-2 certificate's text (the test is
    named for format 2, where it began) is an input error: a reference
    that dangles, is cyclic or names the wrong kind; scalar text that is
    not canonical; an entry out of range, repeated or out of row-major
    order; a p or order that is not an integer on the top-level
    document, or that a nested object carries. main raises any other
    exception, so none ends in a traceback."""
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    doc = json.loads(Path("cert.json").read_text())
    assert doc["afzp_format"] == 3
    _FORMAT2_CORRUPTIONS[name](doc)
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "bad.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


_HUGE = {"rows": 10 ** 6, "cols": 10 ** 6, "entries": []}
# the loader's refusal of a header larger than its listed entries
_SHORT = "lists 0 entries: an invertible matrix lists at least 1000000"


def _hom_with_conj(conj):
    """The identity hom of the fixed piece diag(1, -1), as a document
    whose one conj is replaced by conj."""
    doc = json.loads(dumps(identity_hom(fixed_form(FieldContext(2, 16),
                                                   [0, 1]))))
    doc["blocks"][0]["conj"] = conj
    return doc


def test_huge_conj_header_is_refused_before_allocation(workdir, capsys):
    """A hom document under 1 KB whose conj claims 10^6 x 10^6: the header
    is larger than its (zero) listed entries, so the loader raises
    FormatError without allocating the grid (tracemalloc peak under
    1 MiB) and the CLI exits 2."""
    import tracemalloc
    text = json.dumps(_hom_with_conj(_HUGE))
    assert len(text) < 1024
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=_SHORT):
            loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with open("huge.json", "w") as fh:
        fh.write(text)
    capsys.readouterr()
    assert main(["validate", "huge.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


_HUGE_HEADERS = {
    "piece-v": lambda d: next(
        pc for o in d["objects"] if o["kind"] == "canonical"
        for pc in o["pieces"] if pc["kind"] == "fixed").update(v=_HUGE),
    "hom-conj": lambda d: next(
        o for o in d["objects"] if o["kind"] == "hom")["blocks"][0].update(
            conj=_HUGE),
    "triangle-correction": lambda d: d["triangles"][0][
        "correction"].__setitem__(0, _HUGE),
    "triangle-without-stage": lambda d: (
        d["triangles"][0].update(right=99),
        d["triangles"][0]["correction"].__setitem__(0, _HUGE)),
}


@pytest.mark.parametrize("name", sorted(_HUGE_HEADERS))
def test_huge_headers_in_a_certificate_exit_two(workdir, capsys, name):
    """A 10^6 x 10^6 header without entries on a hom's conj or a
    triangle's correction is an input error; so is one as a fixed
    piece's v, a member format 3 no longer has, refused unread, and a
    triangle whose right stage is out of range, refused before its
    corrections are read."""
    assert main(["demo", "product-tower-p2", "--depth", "2",
                 "--out", "cert.json"]) == 0
    doc = json.loads(Path("cert.json").read_text())
    _HUGE_HEADERS[name](doc)
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "bad.json"]) == 2
    assert {"triangle-without-stage": "and two of its stages",
            "piece-v": "not in"}.get(name, _SHORT) \
        in capsys.readouterr().err


def test_a_short_listed_conj_is_an_input_error(workdir, capsys):
    """A 2x2 conj listing one entry cannot be invertible: the loader
    refuses it (exit 2), where validate used to report it (exit 1)."""
    Path("bad.json").write_text(json.dumps(_hom_with_conj(
        {"rows": 2, "cols": 2, "entries": [[0, 0, "0:1"]]})))
    capsys.readouterr()
    assert main(["validate", "bad.json"]) == 2
    assert "lists 1 entries" in capsys.readouterr().err


def test_a_fully_listed_conj_larger_than_its_block_fails_validation(
        workdir, capsys):
    """A 3x3 identity conj in a 2x2 target block loads, since it lists
    three entries, and validate fails its shape (exit 1), where the
    loader used to refuse it (exit 2)."""
    Path("bad.json").write_text(json.dumps(_hom_with_conj(
        {"rows": 3, "cols": 3,
         "entries": [[i, i, "0:1"] for i in range(3)]})))
    capsys.readouterr()
    assert main(["validate", "bad.json"]) == 1
    failed = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["ok"]]
    assert failed == ["conjugator 0 unitary"]


def test_huge_impl_or_iso_header_exits_two(workdir, capsys):
    """A system's impl and a canonical form's iso conjugators are
    refused when their header is larger than their listed entries."""
    doc = json.loads(Path("m2.json").read_text())
    doc["impl"][0] = _HUGE
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "bad.json"]) == 2
    assert _SHORT in capsys.readouterr().err
    assert main(["canon", "m2.json", "--out", "canon.json"]) == 0
    doc = json.loads(Path("canon.json").read_text())
    iso = doc["iso"] if "iso" in doc else next(
        o for o in doc["objects"] if o["kind"] == "canonical")["iso"]
    iso["conjugators"][0] = _HUGE
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["kinv", "bad.json"]) == 2
    assert _SHORT in capsys.readouterr().err


def _iso_mat(n, text):
    """The n x n diagonal matrix object with every diagonal entry text."""
    return {"rows": n, "cols": n, "entries": [[i, i, text] for i in range(n)]}


# corruptions of the iso that canon writes for m2.json: block_map [0] and
# one 2x2 conjugator
_ISO_CORRUPTIONS = {
    "map-7-conj-3x3-2I": lambda iso: iso.update(
        block_map=[7], conjugators=[_iso_mat(3, "0:2")]),
    "map-7": lambda iso: iso.update(block_map=[7]),
    "map-string": lambda iso: iso.update(block_map=["0"]),
    "map-boolean": lambda iso: iso.update(block_map=[False]),
    "map-repeated": lambda iso: iso.update(
        block_map=[0, 0], conjugators=iso["conjugators"] * 2),
    "no-conjugator": lambda iso: iso.update(conjugators=[]),
    "conj-2I": lambda iso: iso.update(conjugators=[_iso_mat(2, "0:2")]),
    "conj-3x3-identity": lambda iso: iso.update(
        conjugators=[_iso_mat(3, "0:1")]),
}


@pytest.mark.parametrize("command", ["kinv", "crossed", "lift"])
@pytest.mark.parametrize("name", sorted(_ISO_CORRUPTIONS))
def test_an_iso_that_is_not_a_block_permutation_of_unitaries_exits_two(
        workdir, capsys, command, name):
    """A canonical form's iso must map its blocks one to one onto the
    form's blocks, with a unitary conjugator of each image block's size;
    otherwise every command that reads the form refuses it. Earlier
    versions loaded such an iso unchecked and exited 0."""
    assert main(["canon", "m2.json", "--out", "c2.json"]) == 0
    doc = json.loads(Path("c2.json").read_text())
    _ISO_CORRUPTIONS[name](doc["iso"])
    Path("bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["lift", "pair.json", "m1.json", "bad.json"] \
        if command == "lift" else [command, "bad.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "iso" in err


# -- ragged pairs and the remaining input branches, in process ---------------

@pytest.mark.parametrize("command", ["checkpair", "lift", "intertwine"])
@pytest.mark.parametrize("key,rows,code,message", [
    ("phi", [[1, 0], [0]], 2,
     "input error: phi is not a list of integer rows of one length"),
    ("F", [[2], []], 2,
     "input error: F is not a list of integer rows of one length"),
    ("phi", [[1, 1, 1], [1, 1, 1]], 1,
     "failure: pair shapes do not match the invariants")],
    ids=["ragged-phi", "ragged-F", "wide-phi"])
def test_a_ragged_pair_is_an_input_error(workdir, capsys, command, key,
                                         rows, code, message):
    """A kpair whose F or phi rows differ in length is not a matrix, so
    every command that reads the pair refuses it on load. Earlier
    versions loaded it and exited 1 with "pair shapes do not match the
    invariants", a mathematical failure, which stays the verdict on a
    matrix of the wrong size."""
    doc = json.loads(Path("pair.json").read_text())
    doc[key] = rows
    Path("bad.json").write_text(json.dumps(doc))
    assert main(["kinv", "m1.json", "--out", "i1.json"]) == 0
    assert main(["kinv", "m2.json", "--out", "i2.json"]) == 0
    save_json("tower.json", product_tower(2, 2))
    argv = {"checkpair": ["checkpair", "bad.json", "i1.json", "i2.json"],
            "lift": ["lift", "bad.json", "m1.json", "m2.json"],
            "intertwine": ["intertwine", "tower.json", "tower.json",
                           "bad.json"]}[command]
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)


def _write(name, data):
    with open(name, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _edited(argv, src, edit):
    """Run argv (which writes src), then write src's document, changed
    by edit, to bad.json."""
    assert main(argv) == 0
    doc = json.loads(Path(src).read_text())
    edit(doc)
    Path("bad.json").write_text(json.dumps(doc))


def _system(blocks, sigma, impl_count):
    unit = {"rows": 1, "cols": 1, "entries": [[0, 0, "0:1"]]}
    _write("bad.json", json.dumps({
        "afzp_format": 3, "kind": "system", "p": 2, "order": 16,
        "blocks": blocks, "sigma": sigma, "impl": [unit] * impl_count}))


def _slot(key, value):
    def edit(doc):
        doc["blocks"][0]["slots"][0][key] = value
    return lambda: _edited(["lift", "pair.json", "m1.json", "m2.json",
                            "--out", "hom.json"], "hom.json", edit)


def _piece_kind(doc):
    doc["pieces"][0]["kind"] = "spiral"


def _pair_kind(doc):
    doc["pairs"][0]["kind"] = "hom"


def _long_pair():
    """pair.json with a 5,000-digit entry of F: past the 4,300 digits
    that Python converts from text to an int."""
    text = Path("pair.json").read_text()
    assert '"F":[[2]]' in text
    _write("bad.json", text.replace('"F":[[2]]', '"F":[[%s]]' % ("9" * 5000)))


# id -> (setup or None, argv, exit code, text on stderr, or on stdout
# for a report)
_INPUT_BRANCHES = {
    "document-not-an-object": (
        lambda: _write("bad.json", "[]"), ["validate", "bad.json"], 2,
        "document is not a JSON object"),
    "not-utf8": (
        lambda: _write("bad.json", b'{"afzp_format": 3, "kind": "\xff"}'),
        ["validate", "bad.json"], 2, "is not UTF-8 text"),
    "deep-nesting": (
        lambda: _write("bad.json", "[" * 200_000 + "]" * 200_000),
        ["validate", "bad.json"], 2, "JSON nested too deeply to read"),
    "integer-past-the-digit-limit": (
        _long_pair, ["validate", "bad.json"], 2,
        "JSON number too long to read"),
    "unknown-piece-kind": (
        lambda: _edited(["canon", "m2.json", "--out", "c2.json"], "c2.json",
                        _piece_kind),
        ["kinv", "bad.json"], 2, "unknown piece kind 'spiral'"),
    "slot-src-string": (
        _slot("src", "0"), ["validate", "bad.json"], 2,
        "slot src '0' is neither null nor an integer"),
    "slot-size-string": (
        _slot("size", "2"), ["validate", "bad.json"], 2,
        "slot size '2' is not a non-negative integer"),
    "nested-object-of-the-wrong-kind": (
        lambda: _edited(["demo", "product-tower-p2", "--depth", "2",
                         "--out", "cert.json"], "cert.json", _pair_kind),
        ["verify", "bad.json"], 2, "expected a nested 'kpair' object"),
    "kinv-on-a-kpair": (
        None, ["kinv", "pair.json"], 2,
        "expected a system or canonical-form file"),
    "intertwine-on-non-towers": (
        None, ["intertwine", "m1.json", "m2.json"], 2,
        "expected tower files"),
    "verify-on-a-non-certificate": (
        None, ["verify", "m1.json"], 2, "expected a certificate file"),
    "naive-doubling-depth-1": (
        None, ["demo", "naive-doubling", "--depth", "1"], 2,
        "naive-doubling needs --depth of at least 2"),
    "naive-doubling-out": (
        None, ["demo", "naive-doubling", "--out", "c.json"], 2,
        "naive-doubling writes no file; drop --out"),
    "depth-0": (
        None, ["demo", "product-tower-p2", "--depth", "0"], 2,
        "argument --depth: '0' is not a positive integer"),
    "impl-count-differs-from-blocks": (
        lambda: _system([1], [0], 2),
        ["validate", "bad.json", "--format", "text"], 1,
        "[FAIL] block count: impl/sigma length vs 1 blocks"),
    "sigma-not-a-permutation": (
        lambda: _system([1, 1], [0, 0], 2),
        ["validate", "bad.json", "--format", "text"], 1,
        "[FAIL] sigma is a permutation: images [0, 0]"),
}


@pytest.mark.parametrize("name", sorted(_INPUT_BRANCHES))
def test_each_input_branch_exits_with_its_code_and_message(workdir, capsys,
                                                           name):
    """Each input error, and each early return of a system's validation,
    run in process: the exit code of the README's contract (2 for an
    input error, 1 for a failing report) and the message that names the
    cause, with no traceback."""
    setup, argv, code, message = _INPUT_BRANCHES[name]
    if setup:
        setup()
    capsys.readouterr()
    try:
        got = main(argv)
    except SystemExit as exc:           # argparse's usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert message in (out if code == 1 else err)
    assert "Traceback" not in err
    if code == 2 and name != "depth-0":
        assert err.startswith("input error:")
    assert not os.path.exists("c.json")
