"""Tracing and counting from outside afzp.

Public functions are wrapped where they are defined, and every
module-level alias of them in the afzp package is rebound too: for
instance classify does `from .system import hom_validate`, so patching
afzp.system alone would miss classify's calls. Methods are wrapped on
their class, including aliases such as `__rmul__ = __mul__`.

Tracer records calls, total time and self time (total minus the time of
traced calls made inside). Counter records exact counts only; it runs in
a separate pass so that its per-scalar wrappers do not inflate the
tracer's self times.
"""

import collections
import functools
import sys

# (metric prefix, module, attribute path) of every traced function
TRACED = (
    ("system.hom_validate", "system", "hom_validate"),
    ("system.decompose", "system", "decompose"),
    ("system.equal_as_maps", "system", "equal_as_maps"),
    ("system.hom_compose", "system", "hom_compose"),
    ("matrix.mul", "matrix", "Mat.__mul__"),
    ("crossed.crossed_product", "crossed", "crossed_product"),
    ("crossed.identify", "crossed", "CrossedPresentation.identify"),
    ("crossed.unidentify", "crossed", "CrossedPresentation.unidentify"),
    ("crossed.mul", "crossed", "CrossedPresentation.mul"),
    ("kinv.induced_map", "kinv", "induced_map"),
    ("kinv.invariant_of", "kinv", "invariant_of"),
    ("kinv.check_pair", "kinv", "check_pair"),
    ("classify.ksearch", "classify", "ksearch"),
    ("classify.lift", "classify", "lift"),
    ("classify.equiv_unitary", "classify", "equiv_unitary"),
    ("classify.intertwine", "classify", "intertwine"),
    ("classify.verify_certificate", "classify", "verify_certificate"),
    ("serialize.dumps", "serialize", "dumps"),
    ("serialize.loads", "serialize", "loads"),
)

# (metric prefix, module, attribute path) of every counted scalar op
SCALAR_OPS = (
    ("cyclo.scalar.mul", "cyclo", "Scalar.__mul__"),
    ("cyclo.scalar.add", "cyclo", "Scalar.__add__"),
    ("cyclo.scalar.inv", "cyclo", "Scalar.inv"),
)


class Patcher:
    """Replaces a function or method everywhere afzp refers to it by
    name, and puts the originals back on restore()."""

    def __init__(self, afz):
        self.afz = afz
        self._undo = []

    def patch(self, module, path, make_wrapper):
        owner = getattr(self.afz, module)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if classes:
            holders = [owner]
        else:
            holders = [mod for name, mod in list(sys.modules.items())
                       if name == "afzp" or name.startswith("afzp.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def restore(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()


class Tracer:
    """calls / total_s / self_s per traced function, the number of calls
    each traced function makes to each other one, and the sizes of the
    results of dumps and ksearch."""

    def __init__(self, clock):
        self.clock = clock
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.calls_from = collections.Counter()   # (caller, callee) -> n
        self.results = collections.Counter()      # prefix -> summed len()
        self._stack = []                          # [prefix, child seconds]

    def install(self, patcher):
        for prefix, module, path in TRACED:
            patcher.patch(module, path, functools.partial(self._wrap, prefix))

    def _wrap(self, prefix, fn):
        stats = self.stats[prefix]
        stack = self._stack
        calls_from = self.calls_from
        results = self.results
        clock = self.clock
        sized = prefix in ("serialize.dumps", "classify.ksearch")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls_from[stack[-1][0] if stack else None, prefix] += 1
            frame = [prefix, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if sized:
                results[prefix] += len(result)
            return result
        return traced

    def metrics(self, scale):
        """Times are multiplied by `scale` (see probe.SpeedProbe.scale)."""
        out = {}
        for prefix, _, _ in TRACED:
            calls, total, own = self.stats[prefix]
            out[prefix + ".calls"] = (calls, "count")
            out[prefix + ".total_s"] = (total * scale, "s")
            out[prefix + ".self_s"] = (own * scale, "s")
        out["serialize.dumps.bytes"] = (self.results["serialize.dumps"], "B")
        checked = self.calls_from["classify.ksearch", "kinv.check_pair"]
        accepted = self.results["classify.ksearch"]
        out["classify.ksearch.accept_ratio"] = (
            accepted / checked if checked else 0.0, "ratio")
        return out


class Counter:
    """Exact op counts: scalar mul/add/inv calls, and for every matrix
    product of two Mats the nonzero share of operand entries and, over
    those nonzero entries, of their field coefficients."""

    def __init__(self):
        self.counts = collections.Counter()

    def install(self, patcher):
        for prefix, module, path in SCALAR_OPS:
            patcher.patch(module, path, functools.partial(self._count, prefix))
        patcher.patch("matrix", "Mat.__mul__", self._count_operands)

    def _count(self, prefix, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_operands(self, fn):
        counts = self.counts
        mat_type = fn.__globals__["Mat"]

        @functools.wraps(fn)
        def counted(a, b):
            if isinstance(b, mat_type):
                for m in (a, b):
                    counts["entries"] += m.rows * m.cols
                    for row in m.entries:
                        for e in row:
                            if not e.is_zero():
                                counts["nonzero entries"] += 1
                                counts["coeffs"] += len(e.coeffs)
                                counts["nonzero coeffs"] += sum(
                                    1 for c in e.coeffs if c)
            return fn(a, b)
        return counted

    def metrics(self):
        c = self.counts
        out = {prefix + ".calls": (c[prefix], "count")
               for prefix, _, _ in SCALAR_OPS}
        out["matrix.mul.entry_nnz_frac"] = (
            c["nonzero entries"] / c["entries"] if c["entries"] else 0.0,
            "ratio")
        out["matrix.mul.coeff_nnz_frac"] = (
            c["nonzero coeffs"] / c["coeffs"] if c["coeffs"] else 0.0,
            "ratio")
        return out
