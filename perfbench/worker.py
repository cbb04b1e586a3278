"""Run one benchmark workload in this (fresh) process and print a JSON line.

Started by run.py with ``src`` on PYTHONPATH; see README.md.  With
``--setup-only`` it stops after imports and ``root_system()``, which is what
run.py times as set-up.  Otherwise it runs the workload's operations once,
checks every output outside the timed region and prints one JSON object:
wall and CPU time, attempted and failed operation counts, the problems
found, peak RSS and, with ``--trace 1``, the per-layer metrics of
tracing.py.  One repetition per process means every sample starts cold, as
a user's command does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import weylenum
from weylenum import cli, reference

import tracing

# sha256 over (file name, NUL, body) of every B7 level file in level order,
# as written by `weylenum generate B7` at the commit that defined this
# benchmark.  Any byte change in the level-file format shows up here.
B7_LEVEL_FILES_SHA256 = "9f5d545578f5d5f7c646f93401db121e41a2d8f5941ac9fc06637e2c6b64e9a8"

E8_DEGREES = (2, 8, 12, 14, 18, 20, 24, 30)
E8_ORBIT_LEVELS = 26

# Root spans must account for at least this share of the timed operations.
MIN_SPAN_COVERAGE = 0.9


def poincare(degrees, upto: int) -> list[int]:
    """Coefficients 0..upto of prod_d (1 + q + ... + q^(d-1))."""
    coeffs = [1] + [0] * upto
    for d in degrees:
        # Multiply by (1 - q^d) / (1 - q): prefix sums, then subtract the shift by d.
        run = 0
        summed = []
        for x in coeffs:
            run += x
            summed.append(run)
        coeffs = [summed[k] - (summed[k - d] if k >= d else 0) for k in range(upto + 1)]
    return coeffs


def partitions(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            ways[k] += ways[k - part]
    return ways[n]


def d_class_count(n: int) -> int:
    """Conjugacy classes of W(D_n), n even: (bipartitions(n) + 3 p(n/2)) / 2."""
    bip = sum(partitions(k) * partitions(n - k) for k in range(n + 1))
    return (bip + 3 * partitions(n // 2)) // 2


def start_weight(seed: int, rank: int) -> list[int]:
    """Strictly dominant start weight picked by the seed; seed 0 gives all ones."""
    if seed == 0:
        return [1] * rank
    rng = random.Random(seed)
    return [rng.randint(1, 3) for _ in range(rank)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def level_files_digest(directory: Path, prefix: str) -> str:
    # Listed here rather than through weylenum.store, so that the check adds
    # no spans to a traced run.
    paths = directory.glob(f"{prefix}_WeightMatrByLevel_*_elems=*.txt")
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: int(p.name.split("_")[2])):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def leading_json(text: str):
    """The JSON document a `--json` CLI command prints before any trailing lines."""
    return json.JSONDecoder().raw_decode(text.lstrip())[0]


class OrbitE8:
    """generate_orbit(E8, rho-like start, levels 0..26): weights-only kernel."""

    system = "E8"
    elements = sum(poincare(E8_DEGREES, E8_ORBIT_LEVELS))
    ops = 1
    spans = ("orbit.generate_orbit", "kernels.step_orbit")

    def __init__(self, args):
        self.rs = weylenum.root_system(self.system)
        self.start = start_weight(args.seed, self.rs.rank)

    def run(self):
        return [lvl.size for lvl in weylenum.orbit.generate_orbit(
            self.rs, self.start, levels_up_to=E8_ORBIT_LEVELS)]

    def check(self, sizes):
        want = poincare(E8_DEGREES, E8_ORBIT_LEVELS)
        return [] if sizes == want else [("generate_orbit", f"E8 level sizes {sizes} != {want}")]


class WriteB7:
    """`weylenum generate B7` into a fresh directory, then `weylenum verify B7`."""

    system = "B7"
    elements = sum(reference.LEVEL_SIZES["B7"])
    ops = 2
    spans = ("cli.cmd_generate", "cli.cmd_verify", "rootsystems.root_system",
             "orbit.generate_group", "orbit.build_next_level", "kernels.step_level",
             "orbit.pair_level_weights", "store.write_level", "store.format_level",
             "store.find_level_files")

    def __init__(self, args):
        weylenum.root_system(self.system)  # part of the timed set-up
        self.work = Path(args.work_dir)
        self.round = 0

    def run(self):
        self.round += 1
        out = self.work / f"B7_{self.round}"
        gen = run_cli(["generate", "B7", "--out", str(out)])
        ver = run_cli(["verify", "B7", "--out", str(out)])
        return out, gen, ver

    def check(self, result):
        out, (gen_code, gen_text), (ver_code, ver_text) = result
        try:
            problems = []
            if gen_code != 0:
                problems.append(("generate", f"exited {gen_code}: {gen_text[-500:]}"))
            else:
                digest = level_files_digest(out, "B7")
                if digest != B7_LEVEL_FILES_SHA256:
                    problems.append(("generate", f"level files sha256 {digest} "
                                                 f"!= {B7_LEVEL_FILES_SHA256}"))
            if ver_code != 0:
                problems.append(("verify", f"exited {ver_code}: {ver_text[-500:]}"))
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)


class AnalyzeD6:
    """`weylenum orders D6` then `weylenum classes D6 --json` on set-up files."""

    system = "D6"
    rank = 6
    elements = 2 ** (rank - 1) * math.factorial(rank)
    ops = 2
    spans = ("cli.cmd_orders", "cli.cmd_classes", "store.find_level_files",
             "store.read_level", "store.build_index", "classify.conjugacy_classes",
             "classify.order_partition", "classify.element_order",
             "classify.format_class_report", "cycletype.class_cycle_type")

    def __init__(self, args):
        weylenum.root_system(self.system)  # part of the timed set-up
        self.inputs = args.input_dir

    def run(self):
        orders = run_cli(["orders", "D6", "--out", self.inputs, "--json"])
        classes = run_cli(["classes", "D6", "--out", self.inputs, "--json"])
        return orders, classes

    def check(self, result):
        (ord_code, ord_text), (cls_code, cls_text) = result
        problems = []
        if ord_code != 0:
            problems.append(("orders", f"exited {ord_code}: {ord_text[-500:]}"))
        if cls_code != 0:
            problems.append(("classes", f"exited {cls_code}: {cls_text[-500:]}"))
        if problems:
            return problems
        orders = leading_json(ord_text)["order_partition"]
        payload = leading_json(cls_text)
        classes = payload["classes"]
        by_order: dict[str, int] = {}
        for c in classes:
            by_order[str(c["order"])] = by_order.get(str(c["order"]), 0) + c["size"]
        want = d_class_count(self.rank)
        if len(classes) != want:
            problems.append(("classes", f"{len(classes)} classes, expected {want}"))
        if sum(c["size"] for c in classes) != self.elements:
            problems.append(("classes", f"sizes sum to {sum(c['size'] for c in classes)}, "
                                        f"expected {self.elements}"))
        if payload["order_partition"] != by_order:
            problems.append(("classes", f"order partition {payload['order_partition']} "
                                        f"!= per-class sums {by_order}"))
        if orders != by_order:
            problems.append(("orders", f"partition {orders} != per-class sums {by_order}"))
        return problems


WORKLOADS = {"write-B7": WriteB7, "analyze-D6": AnalyzeD6, "orbit-E8": OrbitE8}


def environment() -> dict:
    resolve = getattr(weylenum.kernels, "resolve_kernel", None)
    return {"kernel": resolve() if resolve else "numpy", "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "numba": importlib.util.find_spec("numba") is not None}


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--input-dir")
    args = p.parse_args()

    src = Path.cwd() / "src"
    if not Path(weylenum.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"weylenum imported from {weylenum.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](args)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    report = {"attempted": workload.ops, "failed": 0, "problems": [],
              "elements": workload.elements, "env": environment()}
    c0, t0 = cpu_s(), time.perf_counter()
    try:
        result = workload.run()
    except Exception as exc:  # a failed operation is reported, not fatal
        report["problems"].append(f"{type(exc).__name__}: {exc}")
        report["failed"] = workload.ops
    else:
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = cpu_s() - c0
        found = workload.check(result)
        report["problems"] += [f"{op}: {msg}" for op, msg in found]
        report["failed"] = len({op for op, _ in found})
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and "wall_s" in report:
        report["layers"] = tracing.layer_metrics(tracer)
        report["layers"]["process.cpu_s"] = report["cpu_s"]
        report["problems"] += tracing.self_check(
            tracer, workload.spans, report["wall_s"], MIN_SPAN_COVERAGE)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
