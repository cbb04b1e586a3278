"""Command-line driver: generate, verify, classes, orders, bench.

Exit codes: 0 on success, 1 when a verification found mismatches, 2 on
runtime failures (bad arguments, missing files, integrity errors).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import classify, reference, store
from .errors import WeylError
from .orbit import generate_group
from .rootsystems import RootSystem, load_cartan_file, root_system

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_FAILURE = 2


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise WeylError(f"bad weight {text!r}: expected comma-separated integers") from None


def cmd_generate(name: str, out_dir: str, start_weight: str | None = None,
                 levels_up_to: int | None = None, cartan_file: str | None = None) -> int:
    rs = RootSystem(name, load_cartan_file(cartan_file)) if cartan_file else root_system(name)
    start = _parse_weight(start_weight) if start_weight is not None else None
    # Files of an earlier run would be read back as part of this one.
    stale = store.level_files(out_dir, rs.name)
    if stale:
        raise WeylError(f"{stale[min(stale)]} is left from an earlier run; remove the "
                        f"{rs.name} level files from {out_dir} or choose another --out")
    sizes = []
    t0 = time.perf_counter()
    for level in generate_group(rs, start=start, levels_up_to=levels_up_to):
        store.write_level(level, rs.name, out_dir)
        if level.index == 0:
            start = level.weights[0].tolist()  # the identity carries the start weight
        sizes.append(level.size)
        print(f"level {level.index}: {level.size}")
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    store.write_summary(out_dir, rs.name, sizes, elapsed_ms, rs.rank, start)
    print(f"{rs.name}: {sum(sizes)} elements in {len(sizes)} levels, {elapsed_ms:.1f} ms")
    print(f"wrote {len(sizes)} level files and {rs.name}_summary.json to {out_dir}")
    return EXIT_OK


def cmd_verify(name: str, out_dir: str) -> int:
    expected = reference.LEVEL_SIZES.get(name)
    if expected is None:
        print(f"no reference table for {name}; reference data covers "
              f"{', '.join(sorted(reference.LEVEL_SIZES))}", file=sys.stderr)
        return EXIT_FAILURE
    summary = store.read_summary(out_dir, name)
    got = summary.get("levels", [])
    mismatches = []
    if len(got) != len(expected):
        mismatches.append(f"level count: expected {len(expected)}, got {len(got)}")
    for k, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            mismatches.append(f"level {k}: expected {want}, got {have}")
    if summary.get("total") != sum(expected):
        mismatches.append(f"total: expected {sum(expected)}, got {summary.get('total')}")
    # The file names re-state each level's size; recount them independently
    # of the summary.
    paths = store.find_level_files(out_dir, name)
    from_files = [store.parse_level_file_name(p)[2] for p in paths]
    if from_files != list(expected):
        for k, (want, have) in enumerate(zip(expected, from_files)):
            if want != have:
                mismatches.append(f"level file {k}: expected elems={want}, got elems={have}")
        if len(from_files) != len(expected):
            mismatches.append(
                f"level file count: expected {len(expected)}, got {len(from_files)}")
    # The golden file holds the records of the all-ones start; summaries
    # older than the start_weight key were all-ones runs.
    start = summary.get("start_weight")
    golden = name == "D4" and (start is None or all(x == 1 for x in start))
    if golden:
        golden_path = Path(out_dir) / store.level_file_name("D4", 2, 9)
        body = golden_path.read_bytes() if golden_path.is_file() else None
        want_body = reference.GOLDEN_D4_LEVEL2.encode()
        if body is None:
            mismatches.append(f"golden level-2 file {golden_path.name} is missing")
        elif body != want_body:
            for ln, (want, have) in enumerate(
                    zip(want_body.splitlines(), body.splitlines()), start=1):
                if want != have:
                    mismatches.append(
                        f"golden level-2 file differs at line {ln}: "
                        f"expected {want.decode()!r}, got {have.decode(errors='replace')!r}")
                    break
            else:
                mismatches.append("golden level-2 file differs in length")
    for line in mismatches:
        print(line)
    if mismatches:
        print(f"{name}: FAIL ({len(mismatches)} mismatches)")
        return EXIT_MISMATCH
    note = ""
    if golden:
        note = ", golden level-2 file matches"
    elif name == "D4":
        note = f", golden level-2 file does not apply to start {','.join(map(str, start))}"
    print(f"{name}: OK ({sum(expected)} elements over {len(expected)} levels{note})")
    return EXIT_OK


def cmd_classes(name: str, out_dir: str, ceiling: int = classify.DEFAULT_CEILING,
                as_json: bool = False) -> int:
    paths = store.find_level_files(out_dir, name)
    total = sum(store.parse_level_file_name(p)[2] for p in paths)
    if total > ceiling:
        raise WeylError(f"{name} has {total} elements, above the ceiling {ceiling}; "
                        "pass --ceiling to raise the limit if you have the memory")
    # One level at a time: walked, matched to its file, scanned for orders and
    # dropped; build_index then gives the index of the walk's weights.
    run = store.read_run(paths)
    partition = classify.order_partition(run)
    index = store.build_index(run)
    classes = classify.conjugacy_classes(index, ceiling=ceiling)
    ctypes = classify.report_cycle_types(classes, index)
    report = classify.format_class_report(classes, index, ctypes)
    report_path = Path(out_dir) / f"{store._file_prefix(name)}_classes.txt"
    store._write_atomically(report_path, report.encode())
    if as_json:
        payload = {"root_system": name,
                   "classes": [{"size": c.size, "order": c.element_order,
                                "representative": list(c.representative),
                                "word": list(c.representative_word)} for c in classes],
                   "order_partition": {str(k): v for k, v in partition.items()}}
        print(json.dumps(payload, indent=2))
    else:
        print(report, end="")
        print(f"{name}: {len(classes)} classes; order partition "
              + ", ".join(f"{k}:{v}" for k, v in partition.items()))
    print(f"wrote {report_path}")
    if name == "D4":
        problems = []
        if sorted(c.size for c in classes) != sorted(reference.D4_CLASS_SIZES):
            problems.append(
                f"class sizes {sorted(c.size for c in classes)} != "
                f"{sorted(reference.D4_CLASS_SIZES)}")
        if partition != reference.D4_ORDER_PARTITION:
            problems.append(f"order partition {partition} != {reference.D4_ORDER_PARTITION}")
        if tuple(ctypes or ()) != reference.D4_CYCLE_TYPES:
            problems.append("cycle-type sequence deviates from the published rows")
        for line in problems:
            print(line)
        if problems:
            print("D4: FAIL")
            return EXIT_MISMATCH
        print("D4: classes match the published tables")
    return EXIT_OK


def cmd_orders(name: str, out_dir: str, as_json: bool = False) -> int:
    # One level at a time: walked, matched to its file, scanned and dropped.
    paths = store.find_level_files(out_dir, name)
    partition = classify.order_partition(store.read_run(paths))
    if as_json:
        print(json.dumps({"root_system": name,
                          "order_partition": {str(k): v for k, v in partition.items()}},
                         indent=2))
    else:
        print(f"{name} order partition: "
              + ", ".join(f"{k}:{v}" for k, v in partition.items()))
    if name == "D4" and partition != reference.D4_ORDER_PARTITION:
        print(f"expected {reference.D4_ORDER_PARTITION}")
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_bench(names: list[str]) -> int:
    rows = []
    for name in names:
        rs = root_system(name)
        t0 = time.perf_counter()
        total = 0
        n_levels = 0
        for level in generate_group(rs):
            total += level.size
            n_levels += 1
        elapsed = time.perf_counter() - t0
        rows.append({
            "system": rs.name,
            "levels": n_levels,
            "total": total,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "elements_per_sec": round(total / elapsed) if elapsed > 0 else None,
        })
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylenum",
        description="Enumerate finite Weyl groups level by level, with inverse "
                    "pairing, conjugacy classes, and signed cycle-types.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="enumerate a group and write level files")
    g.add_argument("type", help="root system id such as D4, B7, E7")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--start-weight", help="comma-separated coordinates, default all ones")
    g.add_argument("--levels-up-to", type=int, help="stop after this level index")
    g.add_argument("--cartan-file", help="text file with rank and Cartan matrix rows")

    v = sub.add_parser("verify", help="check generated output against reference tables")
    v.add_argument("type")
    v.add_argument("--out", required=True)

    c = sub.add_parser("classes", help="conjugacy classes from generated output")
    c.add_argument("type")
    c.add_argument("--out", required=True)
    c.add_argument("--ceiling", type=int, default=classify.DEFAULT_CEILING,
                   help="element-count limit for in-memory class computation")
    c.add_argument("--json", action="store_true")

    o = sub.add_parser("orders", help="order partition from generated output")
    o.add_argument("type")
    o.add_argument("--out", required=True)
    o.add_argument("--json", action="store_true")

    b = sub.add_parser("bench", help="in-memory enumeration benchmark (JSON)")
    b.add_argument("types", nargs="+")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args.type, args.out, args.start_weight,
                                args.levels_up_to, args.cartan_file)
        if args.command == "verify":
            return cmd_verify(args.type, args.out)
        if args.command == "classes":
            return cmd_classes(args.type, args.out, args.ceiling, args.json)
        if args.command == "orders":
            return cmd_orders(args.type, args.out, args.json)
        return cmd_bench(args.types)
    except (WeylError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
