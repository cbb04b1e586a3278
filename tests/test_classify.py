from __future__ import annotations

import hashlib
from collections import deque

import numpy as np
import pytest

import oracles
import weylenum as we
from weylenum import IntegrityError, WeylError
from weylenum.classify import format_class_report, report_cycle_types
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
    a1 = we.build_index(we.generate_group(we.root_system("A1")))
    assert we.order_partition(a1) == {1: 1, 2: 1}
    a2 = we.build_index(we.generate_group(we.root_system("A2")))
    assert we.order_partition(a2) == {1: 1, 2: 3, 3: 2}


def test_order_partition_d4(d4_index):
    assert we.order_partition(d4_index) == D4_ORDER_PARTITION


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
        levels = list(we.generate_group(we.root_system(name)))
        index = we.build_index(levels)
        classes = we.conjugacy_classes(index)
        assert len(classes) == expected, name
        assert sum(c.size for c in classes) == index.total


def test_a2_class_sizes():
    levels = list(we.generate_group(we.root_system("A2")))
    index = we.build_index(levels)
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


def test_format_class_report_family_a(a3_levels):
    index = we.build_index(a3_levels)
    classes = we.conjugacy_classes(index)
    report = format_class_report(classes, index, report_cycle_types(classes, index))
    assert "cycle_type" not in report
    assert "label" not in report
