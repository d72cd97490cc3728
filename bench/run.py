"""afzp benchmark: one workload, one closed-loop run, metrics on stdout.

    python3 bench/run.py --workload towers --seed 1 --seconds 15 --trace 0

Run from the repository root; afzp is imported from ./src. Workloads
(see workloads.py): towers, existence, uniqueness, crossed-dense. Each is
single-process and single-threaded: one caller issues an op, waits for
its result, then issues the next. A round is one pass over the workload's
inputs; the loop stops at the first end of a round after --seconds.

Times are work seconds scaled to a reference machine speed (probe.py):
the machine's speed is sampled throughout the run and divided out.

--trace 0 prints the end-to-end metrics:
  setup_s      median of three set-ups, each a fresh import of afzp, its
               FieldContexts and the workload's inputs
  ops_per_s    completed ops / timed wall time
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency (towers has only a few ops per
               run, so there it is close to its slowest scenario)
  peak_rss_mb  peak resident memory of the process
  certify_s    mean time per round producing results
  replay_s     mean time per round checking those results exactly
--trace 1 prints the per-layer metrics instead. It runs the workload
untraced for half of --seconds, replays the same steps traced (calls,
total and self time of afzp's public functions) and reports the
overhead, then replays a prefix of them once more to count scalar ops
and operand sparsity. The digests of the untraced and traced passes must
agree.

Every op checks its results exactly; a failed check counts as a failed
op and the run goes on. The digest line is the sha256 of the output
bytes of the first round (certificate, lift, W or product dumps), so a
change of output bytes shows between commits. The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 2
when afzp cannot be imported from ./src.
"""

import argparse
import collections
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
AFZP_MODULES = ("_rat", "cyclo", "matrix", "system", "crossed", "kinv",
                "classify", "serialize", "demos")


def load_afzp():
    """Import afzp afresh from ./src and return its modules by name."""
    for name in [n for n in sys.modules
                 if n == "afzp" or n.startswith("afzp.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("afzp." + name)
            for name in AFZP_MODULES}
    origin = Path(mods["cyclo"].__file__).resolve().parent
    if origin != SRC_DIR / "afzp":
        raise ImportError("afzp imported from %s, not from %s"
                          % (origin, SRC_DIR))
    mods["rat"] = mods.pop("_rat")
    return types.SimpleNamespace(**mods)


def set_up(workload, seed, speed):
    """Repeat the set-up and keep the last; return its median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = speed.clock()
        afz = load_afzp()
        workload.setup(afz, seed)
        times.append(speed.seconds(start, speed.clock()))
    return afz, statistics.median(times)


Timed = collections.namedtuple("Timed", "seconds certify replay ok")


class Pass:
    """Results of one pass of the closed loop: per op, its time, certify
    and replay time at the reference speed; `wall` is the pass's time,
    unscaled, and `scale` its factor to the reference speed."""

    def __init__(self):
        self.ops = []
        self.steps = 0
        self.wall = 0.0
        self.scale = 1.0
        self.digest = hashlib.sha256()


def run_pass(workload, speed, seconds=None, steps=None):
    """Step until `steps` steps are done or, with `seconds`, until that
    time at the reference speed has passed at the end of a round."""
    workload.reset()
    res = Pass()
    clock = speed.clock
    start = clock()
    while True:
        if steps is not None and res.steps >= steps:
            break
        if (seconds is not None and res.steps % workload.round_len == 0
                and speed.seconds(start, clock()) >= seconds):
            break
        res.steps += 1
        op_start = clock()
        try:
            op = workload.step()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            end = clock()
            op = workloads.Op(op_start, end, end, end, False, b"")
        if op is not None:
            res.ops.append(Timed(
                speed.seconds(op.start, op.end),
                speed.seconds(op.certify_start, op.certify_end),
                speed.seconds(op.certify_end, op.end), op.ok))
            res.digest.update(op.blob)
        if res.steps == workload.round_len:
            res.round_digest = res.digest.hexdigest()
    end = clock()
    res.wall = end - start
    res.scale = speed.scale(start, end)
    return res


def environment(afz, workload):
    src = SRC_DIR / "afzp"
    return {
        "backend": afz.rat.RAT.__module__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_afzp_lines": sum(len(f.read_text().splitlines())
                              for f in sorted(src.glob("*.py"))),
        "field_orders": {str(p): n
                         for p, n in sorted(workload.field_orders.items())},
    }


def end_to_end(workload, res, setup_s):
    lat_ms = sorted(op.seconds * 1e3 for op in res.ops)
    rounds = res.steps // workload.round_len
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(res.ops) / (res.wall * res.scale), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10,
                                           method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "certify_s": (sum(op.certify for op in res.ops) / rounds, "s"),
        "replay_s": (sum(op.replay for op in res.ops) / rounds, "s"),
    }


def per_layer(workload, speed, seconds):
    """Untraced pass, the same steps traced, then a counting pass."""
    plain = run_pass(workload, speed, seconds=seconds)
    patcher = tracing.Patcher(workload.afz)
    tracer = tracing.Tracer(speed.clock)
    tracer.install(patcher)
    try:
        traced = run_pass(workload, speed, steps=plain.steps)
    finally:
        patcher.restore()
    counter = tracing.Counter()
    counter.install(patcher)
    try:
        counted = run_pass(workload, speed,
                           steps=min(plain.steps, workload.count_steps))
    finally:
        patcher.restore()
    metrics = tracer.metrics(traced.scale)
    metrics.update(counter.metrics())
    untraced_s = plain.wall * plain.scale
    metrics["trace.ops"] = (len(traced.ops), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced.wall * traced.scale - untraced_s,
                                   "s")
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    print("digest untraced %s" % plain.digest.hexdigest())
    print("digest traced   %s (%s)" % (traced.digest.hexdigest(),
                                       "same" if same else "DIFFERENT"))
    return traced, [plain, traced, counted], same, metrics


def measure(args, speed):
    workload = workloads.WORKLOADS[args.workload](speed.clock)
    try:
        afz, setup_s = set_up(workload, args.seed, speed)
    except ImportError as exc:
        print("cannot import afzp from %s: %s" % (SRC_DIR, exc),
              file=sys.stderr)
        return 2
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env %s" % json.dumps(environment(afz, workload), sort_keys=True))

    if args.trace:
        main_pass, passes, correct, metrics = per_layer(
            workload, speed, args.seconds / 2)
    else:
        main_pass = run_pass(workload, speed, seconds=args.seconds)
        passes, correct = [main_pass], True
        metrics = end_to_end(workload, main_pass, setup_s)

    failed = sum(not op.ok for op in main_pass.ops)
    attempted = len(main_pass.ops)
    correct = (correct and attempted > 0
               and all(op.ok for res in passes for op in res.ops))
    print("digest %s (first round)" % main_pass.round_digest)
    print("ops %d failed %d failed_ratio %.4f work_s %.3f probe_ms %.4f"
          % (attempted, failed, failed / max(attempted, 1), main_pass.wall,
             probe.REFERENCE_S * 1e3 / main_pass.scale))
    for name, (value, unit) in metrics.items():
        print("%-36s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    speed = probe.SpeedProbe()
    speed.start()
    try:
        return measure(args, speed)
    finally:
        speed.stop()


if __name__ == "__main__":
    sys.exit(main())
