from __future__ import annotations

import multiprocessing
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_store import _cpus
from test_tracing import thread_tracer
from weylenum import (RootSystem, cartan_matrix, generate_group, generate_orbit, kernels,
                      orbit, root_system)
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
    ow, = kernels.step_orbit(w, rs.cartan)
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


def _assert_steps_match_reference(weights, matrices, cartan):
    """Both steps equal oracles.step_reference element for element and in order:
    `step_level` in all four outputs, `step_orbit` in its images alone.

    Images and matrices are in the level's dtype, `src` is int32 and `gen` the
    narrowest unsigned type of the generator indices, as the words use.
    """
    want = oracles.step_reference(weights, matrices, cartan)
    dtypes = (weights.dtype, matrices.dtype, np.int32, np.min_scalar_type(len(cartan) - 1))
    for got, parts in ((kernels.step_level(weights, matrices, cartan), (0, 1, 2, 3)),
                       (kernels.step_orbit(weights, cartan), (0,))):
        assert len(got) == len(parts)
        for g, k in zip(got, parts):
            assert g.dtype == dtypes[k]
            assert g.shape == want[k].shape
            assert np.array_equal(g, want[k])


@settings(max_examples=300)
@given(level_input())
def test_steps_match_tensor_reference(case):
    # the inputs are int64, the oracle's dtype, so images and matrices keep it
    _assert_steps_match_reference(*case)


@pytest.fixture(scope="module")
def blocked_levels():
    """Levels of more than 2 * BLOCK + 7 sources, by name.

    `wrapping-int8`: level 18 of E7 + A1, the A1 node last, from the start
    (1, ..., 1, 100), in int8.  Its coroot bound is 100, and about half the
    rows of every block hold A1 coordinate 100, whose image under the last
    generator, 100 - 2 * 100, wraps.  `random-f4`: int64 weights and matrices
    in -4..4 on F4.
    """
    cartan = np.zeros((8, 8), dtype=np.int64)
    cartan[:7, :7] = cartan_matrix("E7")
    cartan[7, 7] = 2
    start = [1] * 7 + [100]
    *_, level = generate_group(RootSystem("E7+A1", cartan), start=start, levels_up_to=18)
    assert level.weights.dtype == np.int8
    rng = np.random.default_rng(23)
    m = 2 * kernels.BLOCK + 7
    return {"wrapping-int8": (level.weights, level.matrices, cartan.astype(np.int8)),
            "random-f4": (rng.integers(-4, 5, size=(m, 4)), rng.integers(-4, 5, size=(m, 4, 4)),
                          cartan_matrix("F4"))}


@pytest.mark.parametrize("name", ["wrapping-int8", "random-f4"])
@pytest.mark.parametrize("sources", [0, kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1,
                                     2 * kernels.BLOCK + 7], ids=["0", "B-1", "B", "B+1", "2B+7"])
def test_steps_match_reference_across_blocks(blocked_levels, name, sources):
    # a level of more than one block is cut in two; on one CPU both halves
    # run on the calling thread, and on two the second on the worker
    weights, matrices, cartan = blocked_levels[name]
    assert len(weights) >= sources
    for cpus in (1, 2):
        with _cpus(cpus):
            _assert_steps_match_reference(weights[:sources], matrices[:sources], cartan)


@pytest.mark.parametrize("sources, cuts", [(kernels.BLOCK, 0), (kernels.BLOCK + 1, 2)])
def test_only_a_step_of_more_than_one_block_is_cut_in_two(blocked_levels, sources, cuts):
    weights, matrices, cartan = blocked_levels["random-f4"]
    with _cpus(2), mock.patch.object(kernels, "_in_two", wraps=kernels._in_two) as in_two:
        kernels.step_level(weights[:sources], matrices[:sources], cartan)
        kernels.step_orbit(weights[:sources], cartan)
    assert in_two.call_count == 2 * cuts  # each step's mask pass, then its build pass


def test_a_traced_step_keeps_its_spans_on_the_calling_thread(blocked_levels, monkeypatch):
    # The benchmark's tracer keeps one call stack: the worker runs the step's
    # inner passes, never a traced entry point.
    weights, matrices, cartan = blocked_levels["wrapping-int8"]
    tracer = thread_tracer(monkeypatch)
    with _cpus(2):
        kernels.step_orbit(weights, cartan)
        kernels.step_level(weights, matrices, cartan)
    assert kernels._worker is not None
    assert tracer.threads == {threading.get_ident()}
    assert tracer.names == ["kernels.step_orbit", "kernels.step_level"]
    assert tracer.parents == [-1, -1]


def test_a_forked_child_step_makes_its_own_worker(blocked_levels):
    weights, _, cartan = blocked_levels["wrapping-int8"]
    with _cpus(2):
        want = kernels.step_orbit(weights, cartan)  # the parent's worker is made
        child = multiprocessing.get_context("fork").Process(target=lambda: sys.exit(
            not all(map(np.array_equal, kernels.step_orbit(weights, cartan), want))))
        child.start()
        child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


def _traced_step(step, *args):
    """The output of step(*args) on two threads, and its traced peak.  The step
    is run once untraced first, so that the worker is made outside the trace."""
    with _cpus(2):
        step(*args)
        tracemalloc.start()
        try:
            out = step(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return out, peak


def test_step_holds_no_full_level_temporary():
    # E8's orbit of rho, level 22 to 23: 588,833 sources, 729,680 images, cut
    # in two halves on two threads.  Beyond its images the step may hold its
    # accepted positions, 4 B an image, and 128 B per source of one block
    # (4 MiB) for both threads together.  11.3 MiB was measured against this
    # bound of 12.3 MiB; a level-wide (sources, rank) mask, 4.5 MiB, and the
    # level's src and gen, 3.5 MiB, made 16.7 MiB.
    e8 = root_system("E8")
    *_, level = generate_orbit(e8, [1] * 8, levels_up_to=22)
    (images,), peak = _traced_step(kernels.step_orbit, level.weights,
                                   e8.cartan.astype(level.weights.dtype))
    assert len(images) == 729_680
    assert peak < images.nbytes + 4 * len(images) + 128 * kernels.BLOCK


def test_group_step_holds_no_full_level_temporary():
    # The same for E8's group, level 22 to 23, whose output is the images,
    # matrices, src and gen: 58.9 MiB was measured against this bound of
    # 60.4 MiB, and a level-wide mask made 61.3 MiB.
    e8 = root_system("E8")
    *_, level = generate_group(e8, levels_up_to=22)
    out, peak = _traced_step(kernels.step_level, level.weights, level.matrices,
                             e8.cartan.astype(level.weights.dtype))
    assert len(out[0]) == 729_680
    assert peak < sum(a.nbytes for a in out) + 4 * len(out[0]) + 128 * kernels.BLOCK


def test_words_hold_no_full_level_gathered_copy():
    # One E8 group step, level 16 to 17: 166,768 new words of 17 letters, in
    # six blocks.  Their build may hold the result and one block of gathered
    # rows, with its source indices as intp; 0.59 MB was measured beyond the
    # result, against 2.8 MB for a gathered copy of the whole level.
    e8 = root_system("E8")
    *_, level = generate_group(e8, levels_up_to=16)
    cartan = e8.cartan.astype(level.weights.dtype)
    *_, src, gen = kernels.step_level(level.weights, level.matrices, cartan)
    assert len(src) > 4 * kernels.BLOCK
    tracemalloc.start()
    try:
        words = orbit._prepend(gen, level.words, src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(words[:, 0], gen + 1)
    assert np.array_equal(words[:, 1:], level.words[src])
    block = kernels.BLOCK * (words.shape[1] * words.itemsize + np.dtype(np.intp).itemsize)
    assert peak < words.nbytes + block
