from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from weylenum import cartan_matrix, kernels, root_system
from weylenum.rootsystems import validate_cartan

BUILT_IN = ["A1", "A2", "A3", "A5", "B2", "B3", "B5", "C2", "C3", "C5", "D4", "D5",
            "E6", "E7", "E8", "F4", "G2"]
# Irreducible finite types of rank at most 4; products and relabellings of
# them give every finite-type Cartan matrix of rank 2 to 4.
COMPONENTS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]


def test_first_step_from_identity():
    rs = root_system("D4")
    w = np.ones((1, 4), dtype=np.int64)
    eye = np.eye(4, dtype=np.int64)[None]
    new_w, new_m, src, gen = kernels.step_level(w, eye, rs.cartan)
    # every generator extends the identity
    assert new_w.tolist() == [[-1, 2, 1, 1], [2, -1, 2, 2], [1, 2, -1, 1], [1, 2, 1, -1]]
    assert src.tolist() == [0, 0, 0, 0]
    assert gen.tolist() == [0, 1, 2, 3]
    for t in range(4):
        assert np.array_equal(new_m[t], oracles._reflections(rs.cartan)[t])


def test_step_orbit_matches_step_level_weights():
    rs = root_system("D4")
    w = np.ones((1, 4), dtype=np.int64)
    m = np.eye(4, dtype=np.int64)[None]
    lw, _, _, _ = kernels.step_level(w, m, rs.cartan)
    ow, _, _ = kernels.step_orbit(w, rs.cartan)
    assert np.array_equal(lw, ow)


@st.composite
def finite_cartan(draw):
    """A 2x2 to 4x4 finite-type Cartan matrix: components, block-joined, relabelled."""
    size = draw(st.integers(2, 4))
    parts, rank = [], 0
    while rank < size:
        part = draw(st.sampled_from([c for c in COMPONENTS if rank + int(c[1]) <= size]))
        parts.append(cartan_matrix(part))
        rank += len(parts[-1])
    c = np.zeros((rank, rank), dtype=np.int64)
    at = 0
    for part in parts:
        c[at:at + len(part), at:at + len(part)] = part
        at += len(part)
    order = draw(st.permutations(range(rank)))
    return validate_cartan(c[np.ix_(order, order)])


@st.composite
def level_input(draw):
    """A Cartan matrix with random weight rows and matrices of its rank."""
    cartan = draw(st.one_of(st.sampled_from(BUILT_IN).map(cartan_matrix), finite_cartan()))
    n = len(cartan)
    m = draw(st.integers(0, 12))
    entries = st.integers(-4, 4)
    weights = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)),
                       dtype=np.int64).reshape(m, n)
    matrices = np.array(draw(st.lists(entries, min_size=m * n * n, max_size=m * n * n)),
                        dtype=np.int64).reshape(m, n, n)
    return weights, matrices, cartan


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@settings(max_examples=300)
@given(level_input())
def test_steps_match_tensor_reference(case):
    # element for element and in order: images, matrices, src and gen
    weights, matrices, cartan = case
    want = oracles.step_reference(weights, matrices, cartan)
    _assert_same(kernels.step_level(weights, matrices, cartan), want)
    images, _, src, gen = want
    _assert_same(kernels.step_orbit(weights, cartan), (images, src, gen))
