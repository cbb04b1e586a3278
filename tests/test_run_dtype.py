"""The run's dtype: chosen once per walk from the start's coroot bound.

For a dominant start, every weight coordinate of the orbit lies in [-B, B],
where B is the start's largest pairing with a positive coroot, and every
group matrix entry is a coroot coefficient.  These tests check that the bound
is reached (so it is exact, not merely safe), that the walk picks the
narrowest signed type holding it, and that a narrow walk, whose intermediate
products wrap, gives the levels of the same walk in int64.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylenum as we
from test_kernels import finite_cartan
from weylenum import WeylError, kernels
from weylenum.orbit import ENTRY_LIMIT, _level_zero, build_next_level
from weylenum.rootsystems import positive_coroots
from weylenum.store import format_level

BUILT_IN = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
            + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
            + ["E6", "E7", "E8", "F4", "G2"])


def _bound(cartan, start) -> int:
    return int((positive_coroots(cartan) @ np.asarray(start)).max())


def _first_levels(rs, start):
    """Level 0 of the group walk and of the orbit walk from `start`."""
    return next(we.generate_group(rs, start=start)), next(we.generate_orbit(rs, start))


@pytest.mark.parametrize("name", BUILT_IN)
def test_coroot_bound_of_rho_is_coxeter_number_less_one(name):
    rs = we.root_system(name)
    coroots = positive_coroots(rs.cartan)
    assert len(coroots) == rs.n_positive_roots
    assert (coroots >= 0).all() and coroots.any(axis=1).all()
    coxeter = 2 * rs.n_positive_roots // rs.rank
    assert _bound(rs.cartan, [1] * rs.rank) == coxeter - 1
    for level in _first_levels(rs, [1] * rs.rank):
        assert level.weights.dtype == np.int8


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4",
                                  "D4", "D5", "F4", "G2", "E6"])
def test_coroot_bound_is_reached(name):
    # the largest |weight coordinate| of the full walk is the bound, and the
    # largest |matrix entry| is the largest coroot coefficient
    rs = we.root_system(name)
    top_weight = top_entry = 0
    for level in we.generate_group(rs):
        assert level.weights.dtype == level.matrices.dtype == np.int8
        top_weight = max(top_weight, int(np.abs(level.weights).max()))
        top_entry = max(top_entry, int(np.abs(level.matrices).max()))
    assert top_weight == _bound(rs.cartan, [1] * rs.rank)
    assert top_entry == int(positive_coroots(rs.cartan).max())


def test_matrix_bound_of_e7_and_e8():
    e7, e8 = we.root_system("E7"), we.root_system("E8")
    assert (_bound(e7.cartan, [1] * 7), int(positive_coroots(e7.cartan).max())) == (17, 4)
    assert (_bound(e8.cartan, [1] * 8), int(positive_coroots(e8.cartan).max())) == (29, 6)


@pytest.mark.parametrize("start, bound, dtype", [
    ([127], 127, np.int8), ([128], 128, np.int16),
    ([32767], 32767, np.int16), ([32768], 32768, np.int32),
    ([(1 << 31) - 1], (1 << 31) - 1, np.int32), ([1 << 31], 1 << 31, np.int64),
])
def test_run_dtype_is_the_narrowest_that_holds_the_bound(start, bound, dtype):
    a1 = we.root_system("A1")
    assert _bound(a1.cartan, start) == bound
    for level in _first_levels(a1, start):
        assert level.weights.dtype == dtype
    # on A2 the bound of (a, b) is a + b
    a2 = we.root_system("A2")
    split = [bound // 2, bound - bound // 2]
    for level in _first_levels(a2, split):
        assert level.weights.dtype == dtype


def test_e8_from_all_threes_runs_in_int8():
    e8 = we.root_system("E8")
    assert _bound(e8.cartan, [3] * 8) == 87
    for level in _first_levels(e8, [3] * 8):
        assert level.weights.dtype == np.int8
    assert next(we.generate_group(e8, start=[3] * 8)).matrices.dtype == np.int8


def test_start_with_small_entries_and_a_large_bound_is_refused():
    # every entry is below 2**40, but the bound, 29 * 2**36, is not
    e8 = we.root_system("E8")
    start = [1 << 36] * 8
    assert max(start) < ENTRY_LIMIT <= _bound(e8.cartan, start) == 29 << 36
    message = (f"has coroot bound {29 << 36}, at least the checked arithmetic bound "
               f"{ENTRY_LIMIT}$")
    for walk in (we.generate_group(e8, start=start), we.generate_orbit(e8, start)):
        with pytest.raises(WeylError, match=message):
            next(walk)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_steps_keep_the_run_dtype(dtype):
    # numpy 1.24 and numpy 2 promote scalars differently; a step must widen on
    # neither.  On B3 the coroot bound of (x, x, x) is 5x, and of (x, 0, 1) 2x + 1.
    x = min(int(np.iinfo(dtype).max), ENTRY_LIMIT - 1) // 5
    b3 = we.root_system("B3")
    assert _bound(b3.cartan, [x] * 3) == 5 * x
    for level in we.generate_group(b3, start=[x] * 3):
        assert level.weights.dtype == level.matrices.dtype == dtype
    for level in we.generate_orbit(b3, [x, 0, 1]):
        assert level.weights.dtype == dtype
    # the kernels alone, on F4 levels cast by hand
    cartan = we.cartan_matrix("F4").astype(dtype)
    weights, matrices = np.ones((1, 4), dtype=dtype), np.eye(4, dtype=dtype)[None]
    for _ in range(3):
        weights, matrices, _, _ = kernels.step_level(weights, matrices, cartan)
        assert weights.dtype == matrices.dtype == dtype
        assert kernels.step_orbit(weights, cartan)[0].dtype == dtype


@st.composite
def narrow_start(draw):
    """A finite-type Cartan matrix, a narrow dtype, and a strictly dominant start
    whose coroot bound lies just under that dtype's maximum, so that twice it wraps."""
    cartan = draw(finite_cartan())
    rank = len(cartan)
    dtype = draw(st.sampled_from([np.int8, np.int16]))
    target = int(np.iinfo(dtype).max) - draw(st.integers(0, 5))
    start = np.array(draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)))
    j = draw(st.integers(0, rank - 1))
    coroots = positive_coroots(cartan)
    # raise coordinate j as far as the bound allows: beta . start <= target for each beta
    start[j] += min((target - int(b @ start)) // int(b[j]) for b in coroots if b[j])
    return cartan, dtype, start.tolist()


def _int64_group_walk(rs, start):
    level = _level_zero(np.array(start, dtype=np.int64))  # build_next_level keeps int64
    while level.size:
        yield level
        level = build_next_level(level, rs)


@settings(max_examples=40)
@given(narrow_start())
def test_narrow_walks_equal_int64_walks(case):
    cartan, dtype, start = case
    rs = we.RootSystem("custom", cartan)
    bound = _bound(rs.cartan, start)
    assert np.iinfo(dtype).max // 2 < bound <= np.iinfo(dtype).max
    narrow = list(we.generate_group(rs, start=start))
    wide = list(_int64_group_walk(rs, start))
    assert len(narrow) == len(wide)
    for got, want in zip(narrow, wide):
        assert got.weights.dtype == got.matrices.dtype == dtype
        assert want.weights.dtype == want.matrices.dtype == np.int64
        assert got == want  # weights, matrices, words and inv_ordinal
        assert b"".join(format_level(got)) == b"".join(format_level(want))
    weights = np.array([start], dtype=np.int64)
    for level in we.generate_orbit(rs, start):
        assert level.weights.dtype == dtype
        assert np.array_equal(level.weights, weights)
        weights = kernels.step_orbit(weights, rs.cartan)[0]
    assert len(weights) == 0


def test_format_level_of_a_narrow_level_is_its_int64_bytes():
    for name in ("D4", "B5", "F4"):
        for level in we.generate_group(we.root_system(name)):
            assert level.weights.dtype == np.int8
            wide = dataclasses.replace(level, weights=level.weights.astype(np.int64),
                                       matrices=level.matrices.astype(np.int64))
            assert b"".join(format_level(level)) == b"".join(format_level(wide))
