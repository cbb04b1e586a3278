from __future__ import annotations

import dataclasses
import hashlib
import re
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import weylenum as we
from test_kernels import finite_cartan
from test_store import _written_run
from weylenum import IntegrityError, WeylError, classify, store
from weylenum.classify import format_class_report, report_cycle_types
from weylenum.orbit import ENTRY_LIMIT, RowKeys
from weylenum.reference import (D4_CLASS1_MEMBERS, D4_CLASS_ROWS, D4_CLASS_SIZES,
                                D4_ORDER_PARTITION)


def test_element_order_basics():
    assert we.element_order(np.eye(3, dtype=np.int64)) == 1
    r1, r2 = np.array(oracles._reflections(we.cartan_matrix("A2")))
    assert we.element_order(r1) == 2
    assert we.element_order(r1 @ r2) == 3
    r1, r2 = np.array(oracles._reflections(we.cartan_matrix("G2")))
    assert we.element_order(r1 @ r2) == 6


def test_element_order_bound():
    shear = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(IntegrityError, match="no power up to 10000 reached the identity"):
        we.element_order(shear)


def test_order_partition_small():
    a1 = we.CheckedRun(we.root_system("A1"))
    assert we.order_partition(a1) == {1: 1, 2: 1}
    a2 = we.CheckedRun(we.root_system("A2"))
    assert we.order_partition(a2) == {1: 1, 2: 3, 3: 2}


def test_order_partition_d4(d4):
    assert we.order_partition(we.CheckedRun(d4)) == D4_ORDER_PARTITION


@st.composite
def _run(draw):
    """A finite-type Cartan matrix of rank 2 to 4 and a strictly dominant start."""
    cartan = draw(finite_cartan())
    start = draw(st.lists(st.integers(1, 3), min_size=len(cartan), max_size=len(cartan)))
    return cartan, start


@settings(max_examples=40, deadline=None)
@given(_run())
def test_weight_scan_agrees_with_matrix_powers(run):
    # each element's scanned order is the least p with M^p the identity, and
    # the partition is the count of those orders
    cartan, start = run
    rs = we.RootSystem("custom", cartan)
    levels = list(we.generate_group(rs, start=start))
    for level in levels:
        scanned = classify._orders(level.weights[level.inv_ordinal], level.matrices,
                                   levels[0].weights[0])
        assert np.array_equal(scanned, oracles.matrix_orders(level.matrices))
    want = Counter(np.concatenate([oracles.matrix_orders(level.matrices)
                                   for level in levels]).tolist())
    assert we.order_partition(we.CheckedRun(rs, start)) == dict(sorted(want.items()))


@pytest.mark.parametrize("name, start", [("B3", [20, 20, 20]), ("G2", [10, 20])])
def test_weight_scan_wraps_exactly_in_the_run_dtype(name, start):
    # coroot bounds 100 and 80 give int8 runs, yet the scan's first products
    # v[k] * M[k, l] and their partial sums reach 160 and wrap; every iterate
    # is a weight of the run, so the orders are still the matrices'
    rs = we.root_system(name)
    levels = list(we.generate_group(rs, start=start))
    assert levels[0].weights.dtype == np.int8
    products = [np.cumsum(level.weights[level.inv_ordinal].astype(np.int64)[:, :, None]
                          * level.matrices, axis=1) for level in levels]
    assert max(int(np.abs(p).max()) for p in products) > np.iinfo(np.int8).max
    for level in levels:
        scanned = classify._orders(level.weights[level.inv_ordinal], level.matrices,
                                   levels[0].weights[0])
        assert np.array_equal(scanned, oracles.matrix_orders(level.matrices))
    want = Counter(np.concatenate([oracles.matrix_orders(level.matrices)
                                   for level in levels]).tolist())
    assert we.order_partition(we.CheckedRun(rs, start)) == dict(sorted(want.items()))


@settings(max_examples=40, deadline=None)
@given(_run())
def test_descent_agrees_with_the_oracle(run):
    # every level's words and matrices, read off its weights alone
    cartan, start = run
    rs = we.RootSystem("custom", cartan)
    for level in we.generate_group(rs, start=start):
        words, matrices = classify.descent(level.weights, start, rs.cartan, level.index)
        assert np.array_equal(words, oracles.descent_words(level.weights, rs.cartan))
        assert words.dtype == level.words.dtype
        assert np.array_equal(matrices, level.matrices)


@pytest.mark.parametrize("length", [2, 4, 5])
def test_descent_refuses_a_weight_of_another_length(d4, d4_levels, length):
    # level 3's weights are not the start after 2 letters, and dominant after
    # 3; stepped on, a dominant weight goes to s_4 of it and back, so after 5
    # letters it is the start again
    with pytest.raises(IntegrityError, match=r"^level 3, record 0: its weight does not "
                                             rf"descend to the start in {length} letter\(s\)$"):
        classify.descent(d4_levels[3].weights, d4_levels[0].weights[0], d4.cartan, length,
                         lambda j: f"level 3, record {j}: ")


def test_classes_refuse_a_representative_whose_weight_is_of_another_level(d4_index):
    # ids 1 (level 1) and 14 (level 3) swap weights: a consistent key set, but
    # the weight of record 0 of level 1 takes three letters to descend
    weights = d4_index.weights.copy()
    weights[[1, 14]] = weights[[14, 1]]
    index = dataclasses.replace(d4_index, weights=weights, keys=RowKeys(weights))
    with pytest.raises(IntegrityError, match=r"^level 1, record 0: its weight does not "
                                             r"descend to the start in 1 letter\(s\)$"):
        we.conjugacy_classes(index)


def test_classes_refuse_a_descended_matrix_that_misses_the_inverse(d4_index, monkeypatch):
    # a descent that gives each matrix transposed: R_1^T sends the start to
    # [0, 1, 1, 1], not to s_1's weight [-1, 2, 1, 1]
    real = classify.descent

    def transposed(*args):
        words, matrices = real(*args)
        return words, matrices.transpose(0, 2, 1)

    monkeypatch.setattr(classify, "descent", transposed)
    with pytest.raises(IntegrityError, match=r"^level 1, record 0: start @ M = \[0, 1, 1, 1\] "
                                             "for its descended matrix M disagrees with the "
                                             "weight of its inverse$"):
        we.conjugacy_classes(d4_index)


def _tamper(levels, k, j, matrix):
    matrices = levels[k].matrices.copy()
    matrices[j] = matrix
    return levels[:k] + [dataclasses.replace(levels[k], matrices=matrices)] + levels[k + 1:]


def _non_group_record(levels):
    """(k, j, M + N) for the first scanned record whose M + N, where N's rows a
    and b are x and -x, so start @ N == 0, keeps its entries within D4's
    largest coroot coefficient, 2."""
    rank = levels[0].weights.shape[1]
    for level in levels[2:]:
        for j in np.flatnonzero(np.arange(level.size) <= level.inv_ordinal):
            for a, b, c in np.ndindex(rank, rank, rank):
                m = level.matrices[j].astype(np.int64)
                m[a, c] += 1
                m[b, c] -= 1
                if a != b and np.abs(m).max() <= 2:
                    return level.index, int(j), m
    raise AssertionError("no record to tamper")


def _refused_on_disk(directory, levels, message):
    """Reading the files of `levels` is refused with `message` before the
    order scan takes a level the walk does not make."""
    run = store.read_run(_written_run(directory, levels))
    with pytest.raises(WeylError, match=message):
        we.order_partition(run)


def test_non_group_record_leaves_the_orbit_range(tmp_path, d4_levels):
    # M + N agrees with start @ M but is no group element; the walk names it
    k, j, m = _non_group_record(d4_levels)
    _refused_on_disk(tmp_path, _tamper(d4_levels, k, j, m),
                     rf"^level {k}, record {j}: its matrix in .* is {re.escape(str(m.tolist()))}, "
                     rf"not the walk's {re.escape(str(d4_levels[k].matrices[j].tolist()))}$")


def test_non_group_partner_misses_the_start(tmp_path, d4_levels):
    # the same tamper on the later record of an inverse pair, which the order
    # scan does not step from its partner's weight
    three = d4_levels[3]
    j = int(np.flatnonzero(np.arange(three.size) > three.inv_ordinal)[0])
    m = three.matrices[j].astype(np.int64)
    m[0, 0] += 1
    m[1, 0] -= 1
    _refused_on_disk(tmp_path, _tamper(d4_levels, 3, j, m),
                     rf"^level 3, record {j}: its matrix in .* is {re.escape(str(m.tolist()))}, ")


def test_matrix_entry_beyond_the_largest_coroot_coefficient(tmp_path, d4_levels):
    # an entry of 3 in D4, where coroot coefficients are at most 2, with
    # start @ N == 0 still
    m = d4_levels[3].matrices[0].astype(np.int64)
    n = 3 - m[0, 0]
    m[0, 0] += n
    m[1, 0] -= n
    _refused_on_disk(tmp_path, _tamper(d4_levels, 3, 0, m),
                     r"^level 3, record 0: its matrix in .* is \[\[3, ")


def test_order_partition_refuses_a_start_no_walk_takes(tmp_path, d4_levels):
    # every weight times 2**38 is a consistent run whose start's coroot bound,
    # 5 * 2**38, is at least the checked arithmetic bound 2**40
    big = [dataclasses.replace(level, weights=level.weights.astype(np.int64) << 38)
           for level in d4_levels]
    _refused_on_disk(tmp_path, big, rf"^start weight \[{1 << 38}, .*\] has coroot bound "
                                    rf"{5 << 38}, at least .* {ENTRY_LIMIT}$")


@pytest.mark.slow
def test_e7_classes_and_order_partition():
    run = we.CheckedRun(we.root_system("E7"))
    partition = we.order_partition(run)
    classes = we.conjugacy_classes(we.build_index(run))
    assert len(classes) == 60
    assert sum(partition.values()) == 2_903_040
    by_order = Counter()
    for cls in classes:
        by_order[cls.element_order] += cls.size
    assert partition == dict(sorted(by_order.items()))


def test_d4_thirteen_classes_in_published_row_order(d4_classes):
    assert len(d4_classes) == 13
    assert tuple(c.size for c in d4_classes) == D4_CLASS_SIZES
    assert tuple(c.element_order for c in d4_classes) \
        == tuple(row[1] for row in D4_CLASS_ROWS)
    assert sum(c.size for c in d4_classes) == 192


def test_d4_class_members_partition(d4_classes, d4_levels):
    seen = set()
    for cls in d4_classes:
        assert cls.members == tuple(sorted(cls.members))
        assert cls.representative == cls.members[0]
        assert cls.size == len(cls.members)
        seen.update(cls.members)
    assert len(seen) == 192
    assert seen == {(lvl.index, j) for lvl in d4_levels for j in range(lvl.size)}


def test_d4_reflection_class_members(d4_classes, d4_levels):
    cls = d4_classes[1]
    assert cls.members == D4_CLASS1_MEMBERS
    assert cls.representative_word == (1,)
    assert d4_levels[3].word(5) == (2, 1, 2)
    assert d4_levels[9].word(6) == (2, 4, 3, 2, 1, 2, 4, 3, 2)


def _matrix_coords(levels):
    return {level.matrices[j].tobytes(): (level.index, j)
            for level in levels for j in range(level.size)}


def test_classes_closed_under_conjugation(d4_classes, d4_levels):
    coords = _matrix_coords(d4_levels)
    member_class = {}
    for idx, cls in enumerate(d4_classes):
        for member in cls.members:
            member_class[member] = idx
    generators = [d4_levels[1].matrices[j] for j in range(4)]
    for cls_idx, cls in enumerate(d4_classes):
        for lvl, j in cls.members:
            m = d4_levels[lvl].matrices[j]
            for refl in generators:
                assert member_class[coords[(refl @ m @ refl).tobytes()]] == cls_idx


def test_class_counts_small_systems():
    for name, expected in [("A2", 3), ("A3", 5), ("B2", 5), ("B3", 10), ("G2", 6),
                           ("B4", 20), ("D5", 18), ("F4", 25), ("E6", 25)]:
        index = we.build_index(we.CheckedRun(we.root_system(name)))
        classes = we.conjugacy_classes(index)
        assert len(classes) == expected, name
        assert sum(c.size for c in classes) == index.total


def test_a2_class_sizes():
    index = we.build_index(we.CheckedRun(we.root_system("A2")))
    classes = we.conjugacy_classes(index)
    assert sorted(c.size for c in classes) == [1, 2, 3]


def test_partition_independent_of_generator_order(d4_levels, d4_classes):
    # closing under conjugation with the generators in reverse order must
    # produce the same partition
    coords = _matrix_coords(d4_levels)
    generators = [d4_levels[1].matrices[j]
                  for j in range(d4_levels[1].size - 1, -1, -1)]
    seen: set[tuple[int, int]] = set()
    parts = []
    for lvl in range(len(d4_levels)):
        for j in range(d4_levels[lvl].size):
            if (lvl, j) in seen:
                continue
            seen.add((lvl, j))
            queue = deque([(lvl, j)])
            members = []
            while queue:
                a, b = queue.popleft()
                members.append((a, b))
                m = d4_levels[a].matrices[b]
                for refl in generators:
                    coord = coords[(refl @ m @ refl).tobytes()]
                    if coord not in seen:
                        seen.add(coord)
                        queue.append(coord)
            parts.append(frozenset(members))
    assert set(parts) == {frozenset(c.members) for c in d4_classes}


@settings(max_examples=40, deadline=None)
@given(_run())
def test_classes_agree_with_matrix_conjugates(run):
    # the classes read off the weight rows are the components of the
    # conjugations that the elements' matrices give
    cartan, start = run
    rs = we.RootSystem("custom", cartan)
    levels = list(we.generate_group(rs, start=start))
    index = we.build_index(we.CheckedRun(rs, start))
    ids = {frozenset((index.offsets[k] + j).item() for k, j in c.members)
           for c in we.conjugacy_classes(index)}
    assert ids == oracles.components(oracles.matrix_conjugates(levels), index.total)


def test_conjugacy_ceiling(d4_index):
    with pytest.raises(WeylError, match="ceiling"):
        we.conjugacy_classes(d4_index, ceiling=100)


def test_d4_labels(d4_classes, d4_index):
    labels = [we.class_label_d4(c, we.class_cycle_type(c, d4_index)) for c in d4_classes]
    assert labels == [
        "∅",
        "A_1",
        "A_2",
        "ambiguous: 2A_1 (line 3) / 2A_1 (line 4)",
        "ambiguous: 2A_1 (line 3) / 2A_1 (line 4)",
        "D_2",
        "ambiguous: A_3 (line 6) / A_3 (line 7)",
        "ambiguous: A_3 (line 6) / A_3 (line 7)",
        "3A_1",
        "D_3",
        "D_4",
        "D_4(a_1)",
        "4A_1",
    ]


def test_d4_label_unknown_combination():
    fake = we.ConjugacyClass(representative_word=(),
                             members=((0, 0), (1, 0), (1, 1), (1, 2), (1, 3)),
                             element_order=7)
    assert we.class_label_d4(fake, (1, 1, 1, 1)) is None


def test_format_class_report_d4(d4_classes, d4_index):
    report = format_class_report(
        d4_classes, d4_index, report_cycle_types(d4_classes, d4_index))
    assert "class 0: size=1, order=1" in report
    assert "word=e" in report
    assert "cycle_type=[1111]" in report
    assert "label=ambiguous: 2A_1 (line 3) / 2A_1 (line 4)" in report
    assert "cycle_type=[~1~1~1~1]" in report
    assert report.count("members:") == 13


def test_format_class_report_d6_is_pinned(d6_classes, d6_index):
    # the bytes of D6_classes.txt as `weylenum classes D6` writes it
    report = format_class_report(
        d6_classes, d6_index, report_cycle_types(d6_classes, d6_index)).encode("utf-8")
    assert hashlib.sha256(report).hexdigest() \
        == "8841cbde7b2590d1a37190d822ae8ed699b1cb628bc015ae9c3fc9a736aa3bb2"


def test_format_class_report_family_a():
    index = we.build_index(we.CheckedRun(we.root_system("A3")))
    classes = we.conjugacy_classes(index)
    report = format_class_report(classes, index, report_cycle_types(classes, index))
    assert "cycle_type" not in report
    assert "label" not in report
