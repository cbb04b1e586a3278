"""Acceptance gate: one test per shipping criterion, run at full strictness.

Each test prints one [PASS]/[FAIL] line naming its criterion, so a verbose
run reads as a checklist.  Tolerances are zero everywhere; the two large
enumerations carry generous wall-clock ceilings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import oracles
import weylenum as we
from weylenum import store
from weylenum.reference import GOLDEN_D4_LEVEL2
from weylenum.rootsystems import parse_id


def _verdict(label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {label}" + (f" :: {'; '.join(failures)}" if failures else ""))
    assert not failures, f"{label}: {'; '.join(failures)}"


def test_criterion_1_d4_full_enumeration_sizes_and_runtime():
    failures = []
    t0 = time.perf_counter()
    levels = list(we.generate_group(we.root_system("D4")))
    elapsed = time.perf_counter() - t0
    sizes = [l.size for l in levels]
    expected = oracles.length_generating_coefficients((2, 4, 4, 6))
    if sizes != expected:
        failures.append(f"sizes {sizes} != generating-function coefficients {expected}")
    if sizes != [1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1]:
        failures.append(f"sizes {sizes} deviate from the published sequence")
    if sum(sizes) != 192 or len(sizes) != 13:
        failures.append(f"got {sum(sizes)} elements in {len(sizes)} levels")
    if (sizes[0], sizes[1], sizes[2]) != (1, 4, 9):
        failures.append(f"spot anchors {sizes[:3]} != (1, 4, 9)")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, bound is 1s")
    _verdict("criterion 1: D4 enumerates 192 elements in 13 levels under 1s", failures)


def test_criterion_2_d4_level_two_golden_file(tmp_path, d4_levels):
    failures = []
    written = store.write_level(d4_levels[2], "D4", tmp_path)
    body = written.path.read_text(encoding="utf-8")
    if body != GOLDEN_D4_LEVEL2:
        for ln, (want, have) in enumerate(
                zip(GOLDEN_D4_LEVEL2.splitlines(), body.splitlines()), start=1):
            if want != have:
                failures.append(f"first difference at line {ln}: {want!r} vs {have!r}")
                break
        else:
            failures.append("written file has different length")
    if body.splitlines()[0] != "n=0, name=s2.s1, w=1,-2,3,3, n_inv=3":
        failures.append("anchor record line is wrong")
    _verdict("criterion 2: D4 level-2 file matches the golden sample byte for byte",
             failures)


def test_criterion_3_d4_conjugacy_sizes_and_order_partition(d4_classes, d4):
    failures = []
    if len(d4_classes) != 13:
        failures.append(f"{len(d4_classes)} classes, expected 13")
    sizes = sorted(c.size for c in d4_classes)
    if sizes != [1, 1, 6, 6, 6, 12, 12, 12, 24, 24, 24, 32, 32]:
        failures.append(f"size multiset {sizes}")
    partition = we.order_partition(we.CheckedRun(d4))
    if partition != {1: 1, 2: 43, 3: 32, 4: 84, 6: 32}:
        failures.append(f"order partition {partition}")
    _verdict("criterion 3: D4 has 13 classes with the published sizes and "
             "order partition", failures)


def test_criterion_4_d4_cycle_types_row_by_row(d4_classes, d4_index):
    failures = []
    got = tuple(we.class_cycle_type(c, d4_index) for c in d4_classes)
    expected = ((1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2), (2, 2),
                (-1, -1, 1, 1), (4,), (4,), (2, -1, -1), (-2, -1, 1),
                (-3, -1), (-2, -2), (-1, -1, -1, -1))
    if got != expected:
        failures.append(f"cycle-type sequence {got}")
    rendered = [we.render_cycle_type(t) for t in got]
    if rendered[:3] != ["[1111]", "[211]", "[31]"] or rendered[-1] != "[~1~1~1~1]":
        failures.append(f"rendering {rendered}")
    _verdict("criterion 4: D4 class cycle-types equal the published column in "
             "row order", failures)


def test_criterion_5_b7_and_e7_scale_runs():
    failures = []
    t0 = time.perf_counter()
    b7_sizes = [l.size for l in we.generate_group(we.root_system("B7"))]
    b7_elapsed = time.perf_counter() - t0
    if sum(b7_sizes) != 645120:
        failures.append(f"B7 total {sum(b7_sizes)}")
    if b7_sizes[3] != 77 or b7_sizes[24] != 36336 or b7_sizes[25] != 36336:
        failures.append(f"B7 spot checks {b7_sizes[3]}, {b7_sizes[24]}, {b7_sizes[25]}")
    if b7_elapsed > 120.0:
        failures.append(f"B7 took {b7_elapsed:.1f}s, bound is 120s")
    t0 = time.perf_counter()
    e7_sizes = [l.size for l in we.generate_group(we.root_system("E7"))]
    e7_elapsed = time.perf_counter() - t0
    if sum(e7_sizes) != 2903040:
        failures.append(f"E7 total {sum(e7_sizes)}")
    if e7_sizes[31] != 131046 or e7_sizes[32] != 131046:
        failures.append(f"E7 spot checks {e7_sizes[31]}, {e7_sizes[32]}")
    if e7_elapsed > 600.0:
        failures.append(f"E7 took {e7_elapsed:.1f}s, bound is 600s")
    print(f"    B7 in {b7_elapsed:.1f}s, E7 in {e7_elapsed:.1f}s")
    _verdict("criterion 5: B7 totals 645120 within 120s and E7 totals 2903040 "
             "within 600s, spot checks exact", failures)


def test_criterion_6_property_suite(d4_levels, b3_levels, a3_levels):
    failures = []
    start = d4_levels[0].weights[0]
    rs = we.root_system("D4")
    generators = list(we.generate_group(rs, levels_up_to=1))[1].matrices  # R_1..R_4
    eye = np.eye(4, dtype=np.int64)
    for level in d4_levels:
        for j in range(level.size):
            if not np.array_equal(level.matrices[j] @ level.matrices[level.inv_ordinal[j]], eye):
                failures.append(f"matrix times inverse fails at ({level.index}, {j})")
        inv = level.inv_ordinal
        if not np.array_equal(inv[inv], np.arange(level.size)):
            failures.append(f"inverse pointers not reciprocal in level {level.index}")
        by_dict, waiting = oracles.pair_level_dict(level.matrices, level.words, rs.cartan)
        self_paired = sum(1 for j, k in enumerate(by_dict) if j == k)
        if 2 * len(waiting) != level.size - self_paired:
            failures.append(f"dictionary count identity fails in level {level.index}")
        for j in range(level.size):
            v = start
            for g in reversed(level.words[j]):
                v = v @ generators[g - 1]
            if v.tolist() != level.weights[j].tolist():
                failures.append(f"word replay fails at ({level.index}, {j})")
    for name, levels in (("D4", d4_levels), ("B3", b3_levels), ("A3", a3_levels)):
        sizes = [l.size for l in levels]
        if sizes != sizes[::-1]:
            failures.append(f"{name} level sizes are not palindromic: {sizes}")
    _verdict("criterion 6: inverse products, reciprocity, dictionary count "
             "identity, palindromes, and word replay all hold", failures)


def test_criterion_7_wall_orbit_matches_brute_force(d4_levels):
    failures = []
    rs = we.root_system("D4")
    mu = np.array([1, 0, 0, 0], dtype=np.int64)
    orbit = list(we.generate_orbit(rs, mu))
    total = sum(o.size for o in orbit)
    orbit_points = {tuple(w) for o in orbit for w in o.weights.tolist()}
    brute = {tuple((mu @ level.matrices[j]).tolist())
             for level in d4_levels for j in range(level.size)}
    if total != 8:
        failures.append(f"orbit size {total}, expected 8")
    if len(orbit_points) != total:
        failures.append("orbit enumerated a point twice")
    if orbit_points != brute:
        failures.append(f"orbit {sorted(orbit_points)} != stored-matrix images "
                        f"{sorted(brute)}")
    _verdict("criterion 7: the D4 wall orbit of (1,0,0,0) has exactly the 8 "
             "brute-force images", failures)


@pytest.mark.parametrize("name", ["B3", "G2"])
def test_criterion_8_reflection_action_against_euclidean_oracle(name):
    failures = []
    rs = we.root_system(name)
    model = oracles.EuclideanModel(parse_id(rs.name)[0], rs.rank)
    rng = np.random.default_rng(20260822)
    weights = rng.integers(-50, 51, size=(1000, rs.rank))
    generators = list(we.generate_group(rs, levels_up_to=1))[1].matrices
    for w in weights:
        for i in range(1, rs.rank + 1):
            ours = tuple((w @ generators[i - 1]).tolist())
            theirs = model.reflect(w.tolist(), i)
            if ours != theirs:
                failures.append(f"R_{i} on {w.tolist()}: {ours} != {theirs}")
                break
        if failures:
            break
    images, src, gen = we.kernels.step_orbit(weights, rs.cartan)
    if len(images) == 0:
        failures.append("the step accepted no image")
    for image, s, g in zip(images.tolist(), src.tolist(), gen.tolist()):
        theirs = model.reflect(weights[s].tolist(), g + 1)
        if tuple(image) != theirs:
            failures.append(f"step image s{g + 1} of {weights[s].tolist()}: {image} != {theirs}")
            break
    _verdict(f"criterion 8: {name} weight action of the generator matrices and of "
             "every accepted step agrees with the Euclidean realization on 1000 "
             "random weights", failures)
