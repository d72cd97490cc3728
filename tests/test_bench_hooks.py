"""The benchmark's tracer wraps afzp functions by name (bench/tracing.py);
every name it lists must still resolve, or `bench/run.py --trace 1`
fails."""

import importlib
import importlib.util
import pathlib
import types

from afzp.system import identity_hom

from conftest import ctx_for, fixed_form

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_counter_hooks_resolve():
    tracing = _load_tracing()
    names = {mod for _, mod, _ in tracing.TRACED + tracing.SCALAR_OPS}
    afz = types.SimpleNamespace(**{
        name: importlib.import_module("afzp." + name) for name in names})
    original = afz.kinv.induced_map
    patcher = tracing.Patcher(afz)
    tracer = tracing.Tracer(clock=lambda: 0.0)
    try:
        tracer.install(patcher)
        afz.kinv.induced_map(identity_hom(fixed_form(ctx_for(2), [0, 1])))
    finally:
        patcher.restore()
    assert tracer.stats["kinv.induced_map"][0] == 1
    try:
        tracing.Counter().install(patcher)
    finally:
        patcher.restore()
    assert afz.kinv.induced_map is original
