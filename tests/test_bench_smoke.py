"""A quick run of every benchmark workload against the afzp under test:
each one's setup(afz, 101), reset() and three steps, every op ok. A name
that bench/ reads and afzp no longer has fails here, not only as a
failed benchmark run."""

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


def test_every_workload_runs_three_ok_steps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    # the namespace bench/run.py's load_afzp builds, from the modules
    # already imported (load_afzp purges sys.modules)
    afz = types.SimpleNamespace(rat=MODULES["_rat"], **MODULES)
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls(time.perf_counter)
        workload.setup(afz, 101)
        workload.reset()
        ops = [workload.step() for _ in range(3)]
        assert all(op.ok for op in ops if op is not None), name
