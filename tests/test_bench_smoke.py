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
        "ecd045b44ec3e9954bea8e8511d4e7cfd62ee263b0eccf76241b66445dbfdd11",
    "existence":
        "dfe5ae5c54214bf9d0366c8de0cf65fe0ca151cdded563da695cd6b53b607ac4",
    "uniqueness":
        "32b619ec1df3868f8135f2773c8b8b90b0629757742b56ae44d90ad4150fcf6d",
    "crossed-dense":
        "0dd9d33f30b143e443a991385e95129e4a2795c47667e34cec4ee0775adfd9c7",
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
