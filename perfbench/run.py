"""weylenum benchmark: one workload per invocation, run in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload write-B7 --seed 0 --seconds 36 --trace 0

Workloads (README.md says why each exists): write-B7, analyze-D6, orbit-E8.
With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  The lines before it give the same
figures for people, plus error_rate and the kernel, numpy version, nproc and
numba availability of the run; runs with different kernels are not
comparable.

The program is imported from ``src/`` of the checkout; nothing is installed.
Outputs go to a temporary directory under ``.perfbench_tmp/`` in the checkout,
removed when the run ends.  Exit status: 0 when every operation and check
passed, 1 when one failed (the result line says so), 2 when the benchmark
could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("write-B7", "analyze-D6", "orbit-E8")
# Set-up is timed this many times per run and reported as the median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


class Bench:
    """One benchmark run: its arguments, checkout and temporary directory."""

    def __init__(self, args, root: Path, work: Path) -> None:
        self.args = args
        self.root = root
        self.work = work
        self.inputs = work / "inputs" if args.workload == "analyze-D6" else None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in THREAD_VARS:
            self.env.setdefault(var, str(os.cpu_count() or 1))

    def child(self, argv: list[str], capture: bool = False) -> tuple[float, str]:
        """Run a fresh Python process to completion; returns (wall s, stdout)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=self.root, env=self.env, text=True,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv} timed out after {CHILD_TIMEOUT_S} s") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return wall, proc.stdout or ""

    def worker_argv(self) -> list[str]:
        argv = [str(HERE / "worker.py"), "--workload", self.args.workload,
                "--work-dir", str(self.work)]
        if self.inputs is not None:
            argv += ["--input-dir", str(self.inputs)]
        return argv

    def setup(self) -> float:
        """Interpreter start, imports and root_system() in a fresh process, plus,
        for analyze-D6, generating the input level files in a process of their own."""
        wall, _ = self.child(self.worker_argv() + ["--setup-only"])
        if self.inputs is not None:
            shutil.rmtree(self.inputs, ignore_errors=True)
            wall += self.child(["-m", "weylenum", "generate", "D6",
                                "--out", str(self.inputs)])[0]
        return wall

    def repeat(self, trace: int, seconds: float) -> list[dict]:
        """Fresh workers, one repetition each, for about `seconds`: another is
        started while it would end no later than half a repetition past them."""
        argv = self.worker_argv() + ["--seed", str(self.args.seed), "--trace", str(trace)]
        runs, spans = [], []
        began = time.perf_counter()
        while True:
            took, out = self.child(argv, capture=True)
            runs.append(json.loads(out.strip().splitlines()[-1]))
            spans.append(took)
            if runs[-1]["failed"] or runs[-1]["problems"]:
                return runs
            if time.perf_counter() - began + statistics.median(spans) / 2 > seconds:
                return runs

    def end_to_end(self) -> tuple[list[dict], dict[str, float]]:
        setups = [self.setup() for _ in range(SETUP_SAMPLES)]
        runs = self.repeat(trace=0, seconds=self.args.seconds)
        if any("wall_s" not in r for r in runs):
            return runs, {}
        wall = statistics.median(r["wall_s"] for r in runs)
        return runs, {
            "wall_s": wall,
            "elements_per_s": runs[0]["elements"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": statistics.median(setups),
        }

    def per_layer(self) -> tuple[list[dict], dict[str, float]]:
        if self.inputs is not None:
            self.setup()
        plain = self.repeat(trace=0, seconds=self.args.seconds / 2)
        traced = self.repeat(trace=1, seconds=self.args.seconds / 2)
        runs = plain + traced
        if any("layers" not in r for r in traced) or any("wall_s" not in r for r in plain):
            return runs, {}
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        return runs, layers


def main() -> int:
    p = argparse.ArgumentParser(description="weylenum benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "weylenum" / "__init__.py").is_file():
        print(f"error: no src/weylenum under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(args, root, work)
        runs, values = bench.per_layer() if args.trace else bench.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = not problems and all(m["name"] in values for m in wanted)
    print(f"workload {args.workload}, seed {args.seed}, {len(runs)} worker processes, "
          f"environment {json.dumps(runs[0]['env'])}")
    print("worker wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in runs if "wall_s" in r))
    for problem in problems:
        print(f"FAILED {problem}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value} {m['unit']}")
    print(f"{'error_rate':40s} {failed / attempted:.6g} ({failed} of {attempted} "
          "operations failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
