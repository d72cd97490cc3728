"""A quick run of every benchmark workload against the afzp under test:
each one's setup(afz, 101), reset() and three steps, every op ok. A name
that bench/ reads and afzp no longer has fails here, not only as a
failed benchmark run. Then one whole round of each at seed 101, whose
output bytes must hash to the pinned first-round digests, so a change of
output bytes fails here, not only between benchmark runs."""

import hashlib
import importlib
import pathlib
import pkgutil
import time
import types

import afzp

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

MODULES = {info.name: importlib.import_module("afzp." + info.name)
           for info in pkgutil.iter_modules(afzp.__path__)}


def test_every_public_name_resolves():
    for name, module in MODULES.items():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), "afzp.%s.%s" % (name, attr)


# bench/run.py's "digest ... (first round)" line at seed 101
FIRST_ROUND_DIGESTS = {
    "towers":
        "4d7da49b6a31dda67e95edb508ccfae94648551522d6efb44641b3f2657f28a7",
    "existence":
        "22aa41ea1547c53af57e994879dd9dc74d23cacf91f87815b5a7f20225c235e4",
    "uniqueness":
        "fb2b11731440a37cfe5e4628ec70eba5e5c1b08f6ac6a4991864eaf553e62dd8",
    "crossed-dense":
        "ee16103eba30b88f9e1ccb425b418201cd1ecadd32cbb03510be3a1e2e7981d0",
}


def _workloads(monkeypatch):
    """The bench workloads, each set up at seed 101 and reset, by name."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    # the namespace bench/run.py's load_afzp builds, from the modules
    # already imported (load_afzp purges sys.modules)
    afz = types.SimpleNamespace(rat=MODULES["_rat"], **MODULES)
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls(time.perf_counter)
        workload.setup(afz, 101)
        workload.reset()
        yield name, workload


def test_every_workload_runs_three_ok_steps(monkeypatch):
    for name, workload in _workloads(monkeypatch):
        ops = [workload.step() for _ in range(3)]
        assert all(op.ok for op in ops if op is not None), name


def test_first_round_output_bytes_match_the_pinned_digests(monkeypatch):
    """One round of each workload hashed as bench/run.py's run_pass does:
    the blob of every op, skipped draws (None) adding nothing."""
    got = {}
    for name, workload in _workloads(monkeypatch):
        digest = hashlib.sha256()
        for _ in range(workload.round_len):
            op = workload.step()
            if op is not None:
                assert op.ok, name
                digest.update(op.blob)
        got[name] = digest.hexdigest()
    assert got == FIRST_ROUND_DIGESTS
