"""In-memory spans around weylenum's public entry points, installed at runtime.

The program itself carries no tracing.  `install` replaces each entry point
listed in ENTRY_POINTS with a wrapper that records a span (name, start, end,
parent) and a call count, everywhere the function object is bound inside the
``weylenum`` package, so calls through ``from .x import f`` names are caught
as well as calls through module attributes.  A generator function gets one
span per resumption, so the consumer's time between two levels is not
charged to the generator.

Byte counts below are computed from array ``nbytes`` or file sizes; they are
not measured memory or disk traffic.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MIB = float(1 << 20)


class Tracer:
    """Spans and counters for one process; parents come from a call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def totals(self) -> tuple[dict[str, float], dict[str, float], float]:
        """Per-name total time, per-name self time, and total root-span time."""
        total: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        own: dict[str, float] = defaultdict(float)
        roots = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            own[name] += dur - child[i]
            if self.parents[i] < 0:
                roots += dur
        return total, own, roots


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_array_bytes(x) for x in obj)
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _step(prefix):
    def hook(tracer, args, kwargs, out):
        weights = _first_arg(args, kwargs, "weights")
        tracer.counts[prefix + "candidates"] += weights.shape[0] * weights.shape[1]
        tracer.counts[prefix + "accepted"] += len(out[0])
        tracer.counts[prefix + "bytes_out"] += _array_bytes(out)
    return hook


def _level_yielded(tracer, args, kwargs, level):
    tracer.peak("level_size", level.size)
    tracer.peak("level_bytes", _array_bytes(level))


def _file_written(tracer, args, kwargs, out):
    tracer.counts["bytes_written"] += os.path.getsize(out.path)


def _file_read(tracer, args, kwargs, out):
    tracer.counts["bytes_read"] += os.path.getsize(_first_arg(args, kwargs, "path"))
    tracer.counts["elements_read"] += out.size


def _classes(tracer, args, kwargs, out):
    tracer.counts["classes"] += len(out)


# (module under weylenum, function, hook run outside the span on its result)
ENTRY_POINTS = (
    ("kernels", "step_level", _step("step_level_")),
    ("kernels", "step_orbit", _step("step_orbit_")),
    ("orbit", "generate_group", _level_yielded),
    ("orbit", "generate_orbit", _level_yielded),
    ("orbit", "build_next_level", None),
    ("orbit", "pair_level_weights", None),
    ("store", "format_level", None),
    ("store", "write_level", _file_written),
    ("store", "read_level", _file_read),
    ("store", "build_index", None),
    ("store", "find_level_files", None),
    ("classify", "conjugacy_classes", _classes),
    ("classify", "order_partition", None),
    ("classify", "element_order", None),
    ("classify", "format_class_report", None),
    ("cycletype", "class_cycle_type", None),
    ("rootsystems", "root_system", None),
    ("cli", "cmd_generate", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_orders", None),
    ("cli", "cmd_classes", None),
)


def _wrap(tracer: Tracer, fn, name: str, hook):
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                if hook:
                    hook(tracer, args, kwargs, item)
                yield item
    else:
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook:
                hook(tracer, args, kwargs, out)
            return out
    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every listed entry point inside the weylenum package to a wrapper.

    An entry point that no longer exists is recorded in ``tracer.missing``,
    which fails the span self-check of every workload that lists it.
    """
    for module, attr, hook in ENTRY_POINTS:
        name = f"{module}.{attr}"
        mod = importlib.import_module(f"weylenum.{module}")
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.append(name)
            continue
        wrapper = _wrap(tracer, original, name, hook)
        for modname, m in list(sys.modules.items()):
            if m is None or not (modname == "weylenum" or modname.startswith("weylenum.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures, keyed by the names in BENCHMARK.json.

    `trace.overhead_pct` needs an untraced run and is added by the caller.
    """
    total, own, _ = tracer.totals()
    c, calls = tracer.counts, tracer.calls

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "kernels.step_level_s": total["kernels.step_level"],
        "kernels.candidates": c["step_level_candidates"],
        "kernels.accepted": c["step_level_accepted"],
        "kernels.bytes_out_mb": c["step_level_bytes_out"] / MIB,
        "kernels.step_orbit_s": total["kernels.step_orbit"],
        "kernels.step_orbit_bytes_out_mb": c["step_orbit_bytes_out"] / MIB,
        "orbit.pair_level_weights_s": total["orbit.pair_level_weights"],
        "orbit.build_next_level_self_s": own["orbit.build_next_level"],
        "orbit.generate_group_self_s": own["orbit.generate_group"],
        "orbit.generate_orbit_self_s": own["orbit.generate_orbit"],
        "store.format_level_s": total["store.format_level"],
        "store.write_level_self_s": own["store.write_level"],
        "store.bytes_written_mb": c["bytes_written"] / MIB,
        "store.files_written": calls["store.write_level"],
        "store.read_level_s": total["store.read_level"],
        "store.bytes_read_mb": c["bytes_read"] / MIB,
        "store.build_index_s": total["store.build_index"],
        "store.find_level_files_s": total["store.find_level_files"],
        "classify.conjugacy_classes_s": total["classify.conjugacy_classes"],
        "classify.order_partition_s": total["classify.order_partition"],
        "classify.element_order_calls": calls["classify.element_order"],
        "classify.format_class_report_self_s": own["classify.format_class_report"],
        "classify.classes": c["classes"],
        "cycletype.class_cycle_type_s": total["cycletype.class_cycle_type"],
        "cycletype.class_cycle_type_calls": calls["cycletype.class_cycle_type"],
        "cli.cmd_generate_self_s": own["cli.cmd_generate"],
        "cli.cmd_verify_s": total["cli.cmd_verify"],
        "cli.cmd_orders_self_s": own["cli.cmd_orders"],
        "cli.cmd_classes_self_s": own["cli.cmd_classes"],
        "rootsystems.root_system_s": total["rootsystems.root_system"],
        "kernels.accept_ratio": ratio(c["step_level_accepted"], c["step_level_candidates"]),
        "kernels.step_orbit_accept_ratio": ratio(c["step_orbit_accepted"],
                                                 c["step_orbit_candidates"]),
        "orbit.peak_level_size": tracer.peaks.get("level_size", 0.0),
        "orbit.peak_level_mb": tracer.peaks.get("level_bytes", 0.0) / MIB,
        "store.read_level_us_per_elem": 1e6 * ratio(total["store.read_level"],
                                                    c["elements_read"]),
    }


def self_check(tracer: Tracer, required: tuple[str, ...], op_wall_s: float,
               min_coverage: float) -> list[str]:
    """Problems with the trace: a required span never ran, or root spans miss time.

    A required span with zero calls means a refactor bypassed the wrapped
    lookup, which would otherwise read as 0 s for that layer.
    """
    problems = [f"span {name}: entry point not found" for name in required
                if name in tracer.missing]
    problems += [f"span {name}: zero calls" for name in required
                 if name not in tracer.missing and tracer.calls[name] == 0]
    _, _, roots = tracer.totals()
    coverage = roots / op_wall_s if op_wall_s > 0 else 0.0
    if coverage < min_coverage:
        problems.append(f"top-level spans cover {coverage:.1%} of the operations' wall "
                        f"time, below {min_coverage:.0%}")
    return problems
