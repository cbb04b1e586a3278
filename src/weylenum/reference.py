"""Embedded reference data: published level-size tables and D4 class data.

Level-size sequences are palindromic, so only the lower half is written out
and the rest is mirrored.  Every sequence here is cross-checked by the test
suite against the coefficients of the length generating function
prod_d (q^d - 1)/(q - 1) over the degrees of the group.  Four half-table
entries are repaired relative to their published source, which fails its own
row-sum identity at exactly these spots (each is a single-digit slip; the
printed D8 total 5169960 also disagrees with the order formula 2^7*8!):

    B7 level 21: 32150 -> 32510        D8 level 25: 257295 -> 257296
    E7 level 10: 4975  -> 4795         B8 level 22: 249201 -> 249202
"""

from __future__ import annotations

D4_LEVEL_SIZES = (1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1)


def _mirror_even(half: tuple[int, ...]) -> tuple[int, ...]:
    # Two equal middle levels: sizes for levels 0..N with N odd.
    return half + half[::-1]


def _mirror_odd(half: tuple[int, ...]) -> tuple[int, ...]:
    # Single peak level: sizes for levels 0..N with N even.
    return half + half[-2::-1]


_B7_HALF = (1, 7, 27, 77, 181, 371, 686, 1170, 1869, 2827, 4082, 5662,
            7581, 9835, 12399, 15225, 18242, 21358, 24464, 27440, 30162,
            32510, 34376, 35672, 36336)

_D8_HALF = (1, 8, 35, 112, 293, 664, 1350, 2520, 4388, 7208, 11263, 16848,
            24248, 33712, 45425, 59480, 75853, 94384, 114766, 136544,
            159125, 181800, 203777, 224224, 242318, 257296, 268504, 275440,
            277788)

_E7_HALF = (1, 7, 27, 77, 182, 378, 713, 1247, 2051, 3205, 4795, 6909,
            9632, 13040, 17194, 22134, 27874, 34398, 41657, 49567, 58009,
            66831, 75852, 84868, 93659, 101997, 109655, 116417, 122087,
            126497, 129514, 131046)

_B8_HALF = (1, 8, 35, 112, 293, 664, 1350, 2520, 4389, 7216, 11298, 16960,
            24541, 34376, 46775, 62000, 80241, 101592, 126029, 153392,
            183373, 215512, 249202, 283704, 318171, 351680, 383270, 411984,
            436913, 457240, 472281, 481520, 484636)

LEVEL_SIZES: dict[str, tuple[int, ...]] = {
    "D4": D4_LEVEL_SIZES,
    "B7": _mirror_even(_B7_HALF),
    "D8": _mirror_odd(_D8_HALF),
    "E7": _mirror_even(_E7_HALF),
    "B8": _mirror_odd(_B8_HALF),
}

# The published level-2 file for D4, verbatim.
GOLDEN_D4_LEVEL2 = """\
n=0, name=s2.s1, w=1,-2,3,3, n_inv=3
[-1, 1, 0, 0]
[-1, 0, 1, 1]
[0, 0, 1, 0]
[0, 0, 0, 1]
n=1, name=s3.s1, w=-1,3,-1,1, n_inv=1
[-1, 1, 0, 0]
[0, 1, 0, 0]
[0, 1, -1, 0]
[0, 0, 0, 1]
n=2, name=s4.s1, w=-1,3,1,-1, n_inv=2
[-1, 1, 0, 0]
[0, 1, 0, 0]
[0, 0, 1, 0]
[0, 1, 0, -1]
n=3, name=s1.s2, w=-2,1,2,2, n_inv=0
[0, -1, 1, 1]
[1, -1, 1, 1]
[0, 0, 1, 0]
[0, 0, 0, 1]
n=4, name=s3.s2, w=2,1,-2,2, n_inv=6
[1, 0, 0, 0]
[1, -1, 1, 1]
[1, -1, 0, 1]
[0, 0, 0, 1]
n=5, name=s4.s2, w=2,1,2,-2, n_inv=8
[1, 0, 0, 0]
[1, -1, 1, 1]
[0, 0, 1, 0]
[1, -1, 1, 0]
n=6, name=s2.s3, w=3,-2,1,3, n_inv=4
[1, 0, 0, 0]
[1, 0, -1, 1]
[0, 1, -1, 0]
[0, 0, 0, 1]
n=7, name=s4.s3, w=1,3,-1,-1, n_inv=7
[1, 0, 0, 0]
[0, 1, 0, 0]
[0, 1, -1, 0]
[0, 1, 0, -1]
n=8, name=s2.s4, w=3,-2,3,1, n_inv=5
[1, 0, 0, 0]
[1, 0, 1, -1]
[0, 0, 1, 0]
[0, 1, 0, -1]
"""

# D4 conjugacy classes in published row order: (size, element order,
# canonical signed cycle-type, subset label).  Negative ints mark negative
# cycles.  Rows 3/4 and rows 6/7 are indistinguishable by these invariants.
D4_CLASS_ROWS: tuple[tuple[int, int, tuple[int, ...], str], ...] = (
    (1, 1, (1, 1, 1, 1), "∅"),
    (12, 2, (2, 1, 1), "A_1"),
    (32, 3, (3, 1), "A_2"),
    (6, 2, (2, 2), "2A_1"),
    (6, 2, (2, 2), "2A_1"),
    (6, 2, (-1, -1, 1, 1), "D_2"),
    (24, 4, (4,), "A_3"),
    (24, 4, (4,), "A_3"),
    (12, 2, (2, -1, -1), "3A_1"),
    (24, 4, (-2, -1, 1), "D_3"),
    (32, 6, (-3, -1), "D_4"),
    (12, 4, (-2, -2), "D_4(a_1)"),
    (1, 2, (-1, -1, -1, -1), "4A_1"),
)

D4_CLASS_SIZES = tuple(row[0] for row in D4_CLASS_ROWS)
D4_CYCLE_TYPES = tuple(row[2] for row in D4_CLASS_ROWS)
D4_ORDER_PARTITION = {1: 1, 2: 43, 3: 32, 4: 84, 6: 32}

# Members of the class of the simple reflections, as 0-based (level, ordinal).
D4_CLASS1_MEMBERS = (
    (1, 0), (1, 1), (1, 2), (1, 3),
    (3, 5), (3, 10), (3, 15),
    (5, 14), (5, 22), (5, 24),
    (7, 17), (9, 6),
)

# Spot values quoted alongside the published tables.
B7_SPOT_CHECKS = {3: 77, 24: 36336, 25: 36336}
E7_SPOT_CHECKS = {31: 131046, 32: 131046}
