from __future__ import annotations

from math import lcm

import pytest

import oracles
from weylenum import reference, root_system, store
from weylenum.rootsystems import parse_id


@pytest.mark.parametrize("name", ["D4", "B7", "D8", "E7", "B8"])
def test_level_sizes_match_generating_function(name):
    # independently recomputed; this is what pins the repaired table entries
    family, rank = parse_id(name)
    assert list(reference.LEVEL_SIZES[name]) == oracles.poincare_level_sizes(family, rank)


@pytest.mark.parametrize("name", ["D4", "B7", "D8", "E7", "B8"])
def test_level_sizes_shape(name):
    sizes = reference.LEVEL_SIZES[name]
    assert list(sizes) == list(sizes)[::-1]
    rs = root_system(name)
    assert len(sizes) == rs.n_positive_roots + 1
    assert sizes[0] == 1 and sizes[-1] == 1
    assert sum(sizes) == rs.order


def test_spot_checks_agree_with_tables():
    for level, value in reference.B7_SPOT_CHECKS.items():
        assert reference.LEVEL_SIZES["B7"][level] == value
    for level, value in reference.E7_SPOT_CHECKS.items():
        assert reference.LEVEL_SIZES["E7"][level] == value


def test_repaired_entries():
    # each of these disagrees with its printed source by one digit; the
    # generating function fixes the call
    assert reference.LEVEL_SIZES["B7"][21] == 32510
    assert reference.LEVEL_SIZES["D8"][25] == 257296
    assert reference.LEVEL_SIZES["E7"][10] == 4795
    assert reference.LEVEL_SIZES["B8"][22] == 249202
    assert sum(reference.LEVEL_SIZES["D8"]) == 5160960


def test_golden_level_two_shape(tmp_path):
    lines = reference.GOLDEN_D4_LEVEL2.splitlines()
    assert len(lines) == 45  # 9 records of header + 4 rows
    headers = [l for l in lines if l.startswith("n=")]
    assert len(headers) == 9
    assert headers[0] == "n=0, name=s2.s1, w=1,-2,3,3, n_inv=3"
    # the strict reader parses the golden text and checks ordinals 0..8 in order
    path = tmp_path / store.level_file_name("D4", 2, 9)
    path.write_text(reference.GOLDEN_D4_LEVEL2, encoding="utf-8", newline="\n")
    inv = store.read_level(path).inv_ordinal.tolist()
    assert [inv[i] for i in inv] == list(range(9))


def test_class_rows_consistent():
    assert sum(row[0] for row in reference.D4_CLASS_ROWS) == 192
    assert sorted(reference.D4_CLASS_SIZES) \
        == [1, 1, 6, 6, 6, 12, 12, 12, 24, 24, 24, 32, 32]
    for size, order, ctype, label in reference.D4_CLASS_ROWS:
        assert sum(abs(c) for c in ctype) == 4
        assert list(ctype) == sorted(ctype, key=lambda c: (-abs(c), c > 0))
        # a positive k-cycle has order k, a negative one order 2k
        assert order == lcm(*(abs(c) if c > 0 else 2 * abs(c) for c in ctype))
        assert label


def test_order_partition_consistent_with_class_rows():
    derived: dict[int, int] = {}
    for size, order, _, _ in reference.D4_CLASS_ROWS:
        derived[order] = derived.get(order, 0) + size
    assert dict(sorted(derived.items())) == reference.D4_ORDER_PARTITION
    assert sum(reference.D4_ORDER_PARTITION.values()) == 192


def test_class1_members_count():
    assert len(reference.D4_CLASS1_MEMBERS) == 12
    assert len(set(reference.D4_CLASS1_MEMBERS)) == 12
    # reflections live in odd levels only
    assert all(lvl % 2 == 1 for lvl, _ in reference.D4_CLASS1_MEMBERS)
