from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import weylenum as we
from weylenum import IntegrityError, WeylError
from weylenum.orbit import (ENTRY_LIMIT, RowKeys, _level_zero, build_next_level,
                            pair_level_weights)


def _generators(rs):
    """The generator matrices R_1..R_rank as the enumeration builds them: level 1."""
    one = list(we.generate_group(rs, levels_up_to=1))[1]
    assert one.words.tolist() == [[g] for g in range(1, rs.rank + 1)]
    return one.matrices


def _step_accepts(source, i, image):
    """Whether kernels.step_orbit keeps `image`, the D4 reflection of `source` by generator i."""
    rs = we.root_system("D4")
    assert (np.array(source) @ _generators(rs)[i - 1]).tolist() == image
    images, _, gen = we.kernels.step_orbit(np.array([source], dtype=np.int64), rs.cartan)
    return image in images[gen == i - 1].tolist()


def test_apply_reflection_d4():
    r = _generators(we.root_system("D4"))
    w = np.array([1, 1, 1, 1]) @ r[0]
    assert w.tolist() == [-1, 2, 1, 1]
    assert (w @ r[1]).tolist() == [1, -2, 3, 3]


def test_apply_reflection_interior_point():
    r = _generators(we.root_system("D4"))
    assert (np.array([3, -2, 1, 3]) @ r[2]).tolist() == [3, -1, -1, 3]
    # zero in the acting coordinate leaves the weight fixed
    assert (np.array([3, 0, 1, 3]) @ r[1]).tolist() == [3, 0, 1, 3]


def test_apply_reflection_overflow_guard():
    # every entry of the start is below ENTRY_LIMIT, but s1 doubles one past
    # it: the start's coroot bound is 2 * big, and the start check refuses it
    # before level 0, so no level ever holds the entry
    big = 1 << 39
    assert 2 * big == ENTRY_LIMIT
    levels = we.generate_group(we.root_system("A2"), start=[big, big])
    with pytest.raises(WeylError, match=f"has coroot bound {ENTRY_LIMIT}, at least "
                                        f"the checked arithmetic bound {ENTRY_LIMIT}$"):
        next(levels)


@pytest.mark.parametrize("entry", [-(1 << 63), -ENTRY_LIMIT, ENTRY_LIMIT])
@pytest.mark.parametrize("where", ["weights", "matrices"])
def test_check_entry_limit_refuses_large_entries(entry, where):
    # No level is scanned for entry size: the start check refuses every walk,
    # weights only or with matrices, whose levels could hold an entry of
    # magnitude ENTRY_LIMIT or more.  On A2 the orbit of (a, b) holds a + b
    # and -(a + b), the coroot bound.  The per-level scan that this replaced
    # took min and max, since -2**63 is its own absolute value in int64 and an
    # np.abs scan passes it; the start check takes the magnitude of Python
    # ints, so -2**63 as a start entry is refused too.
    a2 = we.root_system("A2")
    walk = ((lambda start: we.generate_orbit(a2, start)) if where == "weights"
            else (lambda start: we.generate_group(a2, start=start)))
    if entry == -(1 << 63):
        start = [entry, 1]
    else:
        start = [ENTRY_LIMIT // 2] * 2
        assert entry in {x for w in oracles.brute_force_orbit(a2.cartan.tolist(), start)
                         for x in w}
    with pytest.raises(WeylError, match=f"the checked arithmetic bound {ENTRY_LIMIT}$"):
        next(walk(start))
    # one below the bound the walk runs, in int64, and reaches it
    levels = list(walk([ENTRY_LIMIT // 2 - 1, ENTRY_LIMIT // 2]))
    assert levels[0].weights.dtype == np.int64
    assert -min(int(l.weights.min()) for l in levels) == ENTRY_LIMIT - 1


def test_level_delta_signs():
    # a generator steps a weight up a level only where its coordinate is
    # positive; at -1 the step goes down and at 0 the weight is fixed
    images, src, gen = we.kernels.step_orbit(np.array([[3, -1, 0]]), we.cartan_matrix("A3"))
    assert (images.tolist(), src.tolist(), gen.tolist()) == ([[-3, 2, 0]], [0], [0])


def test_snow_accepts_unique_ancestry():
    # the element with weight (-1,3,-1,1) in D4 has two one-step ancestries;
    # only the one through generator 3 passes
    assert _step_accepts([-1, 2, 1, 1], 3, [-1, 3, -1, 1]) is True
    assert _step_accepts([1, 2, -1, 1], 1, [-1, 3, -1, 1]) is False
    # at the last generator the tail condition is vacuous
    assert _step_accepts([1, 2, 1, 1], 4, [1, 3, 1, -1]) is True


def test_snow_accepts_shared_image():
    # (3,-1,-1,3) is reachable from two sources; the tail rule keeps
    # exactly the step through generator 3
    assert _step_accepts([3, -2, 1, 3], 3, [3, -1, -1, 3]) is True
    assert _step_accepts([2, 1, -2, 2], 2, [3, -1, -1, 3]) is False


def test_level_zero():
    lvl = next(we.generate_group(we.root_system("A3"), start=[1, 2, 1]))
    assert lvl.index == 0
    assert lvl.size == 1
    assert lvl.weights.tolist() == [[1, 2, 1]]
    assert lvl.words.shape == (1, 0)
    assert lvl.word(0) == ()
    assert lvl.inv_ordinal.tolist() == [0]
    assert np.array_equal(lvl.matrices, np.eye(3, dtype=np.int64)[None])


def test_level_zero_rejects():
    a3 = we.root_system("A3")
    for start, message in (([1, -1, 1], "dominant"), ([[1, 1], [1, 1]], "coordinates"),
                           ([], "coordinates")):
        for walk in (we.generate_group(a3, start=start), we.generate_orbit(a3, start)):
            with pytest.raises(WeylError, match=message):
                next(walk)


def test_levels_are_built_paired_and_stay_so(d4, d4_levels):
    with pytest.raises(dataclasses.FrozenInstanceError):
        d4_levels[1].inv_ordinal = np.full(4, -1, dtype=np.int64)
    # the step past the top level is empty, and paired as every other level
    past = build_next_level(d4_levels[-1], d4)
    assert (past.index, past.size, past.words.shape) == (13, 0, (0, 13))
    assert past.inv_ordinal.shape == (0,)


def test_d4_level_one_exact(d4_levels):
    one = d4_levels[1]
    assert one.words.tolist() == [[1], [2], [3], [4]]
    assert one.weights.tolist() == [[-1, 2, 1, 1], [2, -1, 2, 2],
                                    [1, 2, -1, 1], [1, 2, 1, -1]]
    # simple reflections are their own inverses
    assert one.inv_ordinal.tolist() == [0, 1, 2, 3]


def test_d4_level_two_exact(d4_levels):
    two = d4_levels[2]
    assert two.words.tolist() == [[2, 1], [3, 1], [4, 1], [1, 2], [3, 2], [4, 2],
                                  [2, 3], [4, 3], [2, 4]]
    assert two.weights.tolist() == [
        [1, -2, 3, 3], [-1, 3, -1, 1], [-1, 3, 1, -1], [-2, 1, 2, 2],
        [2, 1, -2, 2], [2, 1, 2, -2], [3, -2, 1, 3], [1, 3, -1, -1],
        [3, -2, 3, 1]]
    assert two.inv_ordinal.tolist() == [3, 1, 2, 0, 6, 8, 4, 7, 5]


def test_d4_matrices_distinct(d4_levels):
    matrices = np.concatenate([level.matrices for level in d4_levels])
    assert matrices.shape == (192, 4, 4)
    assert len(np.unique(matrices.reshape(192, 16), axis=0)) == 192


def test_pairing_dictionary_protocol():
    d = oracles.PairingDictionary()
    assert len(d) == 0
    assert d.match(b"k1") is None
    d.insert(b"k1", 0)
    assert d.match(b"k1") == 0
    assert len(d) == 1
    with pytest.raises(ValueError, match="registered twice"):
        d.insert(b"k1", 2)


@pytest.mark.parametrize("name", ["D4", "B3", "A3", "G2", "F4"])
def test_pairing_strategies_agree(name):
    # weight matching and the dictionary protocol find the same partners
    rs = we.root_system(name)
    for level in we.generate_group(rs):
        by_dict, _ = oracles.pair_level_dict(level.matrices, level.words, rs.cartan)
        assert by_dict == level.inv_ordinal.tolist()


def test_pair_level_dict_count_identity(d4, d4_levels):
    for level in d4_levels:
        inv, waiting = oracles.pair_level_dict(level.matrices, level.words, d4.cartan)
        self_paired = sum(1 for j, k in enumerate(inv) if j == k)
        assert 2 * len(waiting) == level.size - self_paired
        assert inv == level.inv_ordinal.tolist()


def test_match_rows():
    rows = np.array([[1, 2], [2, 1], [-1, 3]], dtype=np.int64)
    queries = np.array([[-1, 3], [1, 2], [1, 2]], dtype=np.int64)
    assert we.match_rows(rows, queries).tolist() == [2, 0, 0]
    with pytest.raises(IntegrityError, match="duplicate weights at rows 0 and 2"):
        we.match_rows(np.array([[1, 2], [2, 1], [1, 2]]), rows[:1])
    with pytest.raises(IntegrityError, match="query row 1 has no matching element"):
        we.match_rows(rows, np.array([[2, 1], [2, 2]]))


def _entries(wide):
    """Small entries, or with `wide` also entries near +-2**40, so columns span about 2**41."""
    small = st.integers(-3, 3)
    if not wide:
        return small
    edge = ENTRY_LIMIT - 4
    return st.one_of(small, small.map(lambda x: x + edge), small.map(lambda x: x - edge))


@st.composite
def _distinct_rows(draw):
    rank, wide = draw(st.integers(1, 8)), draw(st.booleans())
    return sorted(draw(st.sets(st.tuples(*[_entries(wide)] * rank), min_size=1, max_size=40)))


@given(_distinct_rows(), st.sampled_from([np.int8, np.int16, np.int64]),
       st.randoms(use_true_random=False))
def test_match_rows_agrees_with_dict(rows, dtype, rnd):
    # the rows in any signed dtype that holds them, the queries in int64
    rnd.shuffle(rows)
    queries = [rnd.choice(rows) for _ in range(2 * len(rows))]
    where = {row: j for j, row in enumerate(rows)}
    if max(abs(x) for row in rows for x in row) > np.iinfo(dtype).max:
        dtype = np.int64
    got = we.match_rows(np.array(rows, dtype=dtype), np.array(queries, dtype=np.int64))
    assert got.tolist() == [where[q] for q in queries]


def test_row_keys_word_count():
    # spans of 2**30 pack two columns to a word, spans of about 2**41 one
    narrow = np.array([[0, 0, 0], [(1 << 30) - 1] * 3], dtype=np.int64)
    wide = np.array([[-(ENTRY_LIMIT - 1)] * 8, [ENTRY_LIMIT - 1] * 8, [0] * 8], dtype=np.int64)
    cases = [(narrow, 2), (wide, 8), (wide[:, :1], 1), (np.ones((1, 8), dtype=np.int64), 1)]
    for rows, words in cases:
        keys = RowKeys(rows)
        assert keys.words == words
        assert keys.find(rows[::-1]).tolist() == list(range(len(rows)))[::-1]


def test_match_rows_full_int64_range():
    # a column spanning all of int64 is a word of its own, packed modulo 2**64
    lo, hi = -(1 << 63), (1 << 63) - 1
    rows = np.array([[hi, 0], [lo, 0], [0, 1], [lo, 1], [hi, 1]], dtype=np.int64)
    assert RowKeys(rows).words == 2
    assert we.match_rows(rows, rows[[4, 1, 0, 2, 3]]).tolist() == [4, 1, 0, 2, 3]
    with pytest.raises(IntegrityError, match="query row 1 has no matching element"):
        we.match_rows(rows, np.array([[0, 1], [1, 0]], dtype=np.int64))


def test_match_rows_edge_cases():
    rows = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int64)
    empty = rows[:0]
    assert we.match_rows(rows, empty).tolist() == []
    assert we.match_rows(empty, empty).tolist() == []
    with pytest.raises(IntegrityError, match="query row 0 has no matching element"):
        we.match_rows(empty, rows[:1])
    # [2, 0] is outside the rows' range but packs to the key of [0, 1]
    with pytest.raises(IntegrityError, match="query row 1 has no matching element"):
        we.match_rows(rows, np.array([[1, 1], [2, 0]], dtype=np.int64))
    with pytest.raises(IntegrityError, match="query row 0 has no matching element"):
        we.match_rows(rows, np.array([[1, 0], [0, 1]], dtype=np.int64))
    # a duplicate among rows that pack into several words
    big = ENTRY_LIMIT - 1
    wide = np.array([[big, -big, 1], [-big, big, 1], [0, 0, 0], [-big, big, 1]],
                    dtype=np.int64)
    assert RowKeys(wide[:3]).words == 2
    with pytest.raises(IntegrityError, match="duplicate weights at rows 1 and 3"):
        we.match_rows(wide, wide[:0])
    # rows keep a signed dtype, here at both ends of int8, and unsigned rows are cast
    ends = np.array([[-128, 127], [127, -128], [0, 0]], dtype=np.int8)
    assert we.match_rows(ends, ends[::-1].astype(np.int64)).tolist() == [2, 1, 0]
    with pytest.raises(IntegrityError, match="query row 0 has no matching element"):
        we.match_rows(ends, np.array([[-129, 127]]))
    assert we.match_rows(np.array([[255], [0]], dtype=np.uint8), [[0], [255]]).tolist() == [1, 0]


def test_pair_level_weights_empty_level(d4):
    # the empty level that ends every run pairs to no ordinals
    top = list(we.generate_group(d4))[-1]
    weights, matrices, _, _ = we.kernels.step_level(top.weights, top.matrices, d4.cartan)
    assert len(weights) == 0
    assert pair_level_weights(13, weights, matrices, top.weights[0]).tolist() == []


def test_pair_level_weights_rejects_duplicate_rows():
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(IntegrityError, match="level 1: duplicate weights"):
        pair_level_weights(1, np.array([[1, 0], [1, 0]], dtype=np.int64),
                           np.stack([eye, eye]), np.array([1, 0], dtype=np.int64))


def test_pair_level_weights_rejects_non_reciprocal():
    # start @ M is M's first row, so the partners are 0 -> 1 -> 2 -> 0
    weights = np.array([[1, 0], [2, 0], [3, 0]], dtype=np.int64)
    matrices = np.zeros((3, 2, 2), dtype=np.int64)
    matrices[:, 0] = weights[[1, 2, 0]]
    with pytest.raises(IntegrityError, match=(
            r"^level 1: record 0 has n_inv=1, but record 1 has n_inv=2; "
            "inverse ordinals must be reciprocal$")):
        pair_level_weights(1, weights, matrices, np.array([1, 0], dtype=np.int64))


def test_pair_level_weights_rejects_wall_level(d4):
    # from a wall start the inverse's weight can sit in a different level,
    # so weight pairing must refuse rather than mispair
    zero = _level_zero(np.array([1, 0, 0, 0]))
    weights, matrices = zero.weights, zero.matrices
    for _ in range(2):
        weights, matrices, _, _ = we.kernels.step_level(weights, matrices, d4.cartan)
    with pytest.raises(IntegrityError, match="level 2: query row .* no matching element"):
        pair_level_weights(2, weights, matrices, np.array([1, 0, 0, 0], dtype=np.int64))


def test_generate_group_sizes(d4_levels, b3_levels, a3_levels):
    assert [l.size for l in d4_levels] == [1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1]
    assert sum(l.size for l in b3_levels) == 48
    assert sum(l.size for l in a3_levels) == 24
    for levels in (d4_levels, b3_levels, a3_levels):
        sizes = [l.size for l in levels]
        assert sizes == sizes[::-1]


def test_generate_group_small_systems():
    assert [l.size for l in we.generate_group(we.root_system("A1"))] == [1, 1]
    assert [l.size for l in we.generate_group(we.root_system("G2"))] \
        == [1, 2, 2, 2, 2, 2, 1]


def test_generate_group_rejects_bad_start(d4):
    with pytest.raises(WeylError, match="strictly dominant"):
        list(we.generate_group(d4, start=[1, 0, 1, 1]))
    with pytest.raises(WeylError, match="coordinates"):
        list(we.generate_group(d4, start=[1, 1, 1]))
    # refused before level 0 is yielded: beyond int64, and at the entry limit
    for big in (99999999999999999999, ENTRY_LIMIT):
        with pytest.raises(WeylError, match=f"the checked arithmetic bound {ENTRY_LIMIT}$"):
            next(we.generate_group(d4, start=[big, 1, 1, 1]))


def test_non_integral_start_is_refused():
    # int64 conversion would truncate these to (1, 2), the wall weight (0, 1) and (2, 1)
    a2 = we.root_system("A2")
    with pytest.raises(WeylError, match=(
            r"^start weight coordinates must be integers, got \[1\.7, 2\.2\]$")):
        next(we.generate_group(a2, start=[1.7, 2.2]))
    with pytest.raises(WeylError, match=r"must be integers, got \[0\.5, 1\.9\]$"):
        next(we.generate_orbit(a2, [0.5, 1.9]))
    for walk in (lambda start: we.generate_group(a2, start=start),
                 lambda start: we.generate_orbit(a2, start)):
        with pytest.raises(WeylError, match=r"must be integers, got \[2\.9, 1\.0\]$"):
            next(walk([2.9, 1.0]))
        with pytest.raises(WeylError, match="must be integers"):
            next(walk([float("nan"), 1]))
        assert next(walk([2.0, 1.0])).weights.tolist() == [[2, 1]]


@pytest.mark.parametrize("start, shown", [
    (["1", "2"], "['1', '2']"), ([1, "2"], "['1', '2']"), ([1 + 0j, 2], "[(1+0j), (2+0j)]"),
    ([None, 1], "[None, 1]"), ([2, None], "[2, None]"),
], ids=["strings", "int-and-string", "complex", "none-first", "none-last"])
def test_non_numeric_start_is_refused(start, shown):
    # refused as non-integral, not with the TypeError of abs() or float()
    a2 = we.root_system("A2")
    message = "^start weight coordinates must be integers, got " + re.escape(shown) + "$"
    for walk in (lambda: next(we.generate_group(a2, start=start)),
                 lambda: next(we.generate_orbit(a2, start))):
        with pytest.raises(WeylError, match=message):
            walk()


def test_negative_levels_up_to_is_refused(d4):
    with pytest.raises(WeylError, match="^levels_up_to must be at least 0, got -1$"):
        next(we.generate_group(d4, levels_up_to=-1))
    with pytest.raises(WeylError, match="^levels_up_to must be at least 0, got -3$"):
        next(we.generate_orbit(d4, [1, 0, 0, 0], levels_up_to=-3))
    assert [l.size for l in we.generate_group(d4, levels_up_to=0)] == [1]


def test_walk_stops_at_the_level_bound():
    # A system is refused at construction unless it is of finite type, so the
    # bound of n_positive_roots + 1 levels is safety code.  A forged A3 with
    # three of its six coroots claims levels 0..3 only; both walks must stop.
    rs = we.root_system("A3")
    object.__setattr__(rs, "coroots", rs.coroots[:3])
    assert rs.n_positive_roots == 3
    message = (r"^exceeded 4 levels, more than the longest element has; "
               "the enumeration is corrupted$")
    for walk in (we.generate_group(rs), we.generate_orbit(rs, [1, 1, 1])):
        sizes = []
        with pytest.raises(IntegrityError, match=message):
            for level in walk:
                sizes.append(level.size)
        assert sizes == [1, 3, 5, 6]


def test_generate_group_truncation(d4):
    levels = list(we.generate_group(d4, levels_up_to=3))
    assert [l.size for l in levels] == [1, 4, 9, 16]


def test_generate_group_deterministic(d4, d4_levels):
    again = list(we.generate_group(d4))
    assert len(again) == len(d4_levels)
    for a, b in zip(again, d4_levels):
        assert a == b


@pytest.mark.parametrize("name", ["A4", "B4", "C3", "D4", "F4", "G2", "E6"])
def test_words_are_the_descent_of_the_weights(name):
    rs = we.root_system(name)
    for level in we.generate_group(rs):
        assert level.words.dtype == np.min_scalar_type(rs.rank) == np.uint8
        assert level.words.shape == (level.size, level.index)
        assert np.array_equal(oracles.descent_words(level.weights, rs.cartan), level.words)


def test_word_invariants(d4_levels):
    start = d4_levels[0].weights[0]
    r = _generators(we.root_system("D4"))
    eye = np.eye(4, dtype=np.int64)
    for level in d4_levels:
        assert len(set(map(tuple, level.words.tolist()))) == level.size
        for j in range(level.size):
            word = level.word(j)
            assert len(word) == level.index
            v = start
            for g in reversed(word):
                v = v @ r[g - 1]
            assert v.tolist() == level.weights[j].tolist()
            inverse = level.matrices[level.inv_ordinal[j]]
            assert np.array_equal(level.matrices[j] @ inverse, eye)
            assert (start @ inverse).tolist() == level.weights[j].tolist()


def test_inverse_pointers_reciprocal(d4_levels):
    eye = np.eye(4, dtype=np.int64)
    for level in d4_levels:
        inv = level.inv_ordinal
        assert np.array_equal(inv[inv], np.arange(level.size))
        for j in range(level.size):
            assert np.array_equal(level.matrices[j] @ level.matrices[inv[j]], eye)


def test_self_inverse_count_matches_involutions(d4_levels):
    # fixed points of the pairing are exactly the order <= 2 matrices
    eye = np.eye(4, dtype=np.int64)
    for level in d4_levels:
        paired_self = int(np.sum(level.inv_ordinal == np.arange(level.size)))
        involutions = sum(1 for j in range(level.size)
                          if np.array_equal(level.matrices[j] @ level.matrices[j], eye))
        assert paired_self == involutions


def test_level_index_is_its_word_length(d4_levels):
    assert "index" not in {f.name for f in dataclasses.fields(we.Level)}
    assert [level.index for level in d4_levels] == list(range(13))
    assert all(level.index == level.words.shape[1] for level in d4_levels)
    empty = we.Level(weights=np.empty((0, 4), dtype=np.int64),
                     matrices=np.empty((0, 4, 4), dtype=np.int64),
                     words=np.empty((0, 3), dtype=np.uint8),
                     inv_ordinal=np.empty(0, dtype=np.int64))
    assert empty.index == 3
    with pytest.raises(TypeError):
        we.Level(index=3, weights=empty.weights, matrices=empty.matrices,
                 words=empty.words, inv_ordinal=empty.inv_ordinal)
    # empty levels of two word lengths differ
    assert empty != dataclasses.replace(empty, words=np.empty((0, 2), dtype=np.uint8))


def test_custom_cartan_enumeration():
    rs = we.RootSystem("twisted", [[2, -1], [-3, 2]])
    levels = list(we.generate_group(rs))
    assert [l.size for l in levels] == [1, 2, 2, 2, 2, 2, 1]
    assert sum(l.size for l in levels) == oracles.matrix_closure_order(rs.cartan)
    assert (rs.n_positive_roots, rs.order) == (6, 12)


def test_custom_full_run_is_checked_against_its_invariants():
    # a custom system's run must end at level n_positive_roots with rs.order
    # elements, as a built-in one's; forged coroots make each check fire
    def forged(rows):
        rs = we.RootSystem("custom", [[2, -1], [-3, 2]])
        object.__setattr__(rs, "coroots", np.array(rows))
        return rs
    seven = forged([[1, 0], [0, 1], [1, 1], [2, 1], [3, 1], [3, 2], [4, 2]])
    with pytest.raises(IntegrityError, match="^run ended at level 6, expected 7$"):
        list(we.generate_group(seven))
    # heights 1, 1, 2, 2, 3, 4 give exponents 2 and 4, so order 15
    heights = forged([[1, 0], [0, 1], [1, 1], [2, 0], [2, 1], [3, 1]])
    assert (heights.n_positive_roots, heights.order) == (6, 15)
    with pytest.raises(IntegrityError, match="^enumerated 12 elements, expected 15$"):
        list(we.generate_group(heights))


def test_generate_orbit_regular_matches_group(d4, d4_levels):
    orbit = list(we.generate_orbit(d4, [1, 1, 1, 1]))
    assert [o.size for o in orbit] == [l.size for l in d4_levels]
    for o, l in zip(orbit, d4_levels):
        assert np.array_equal(o.weights, l.weights)


def test_generate_orbit_wall(d4):
    orbit = list(we.generate_orbit(d4, [1, 0, 0, 0]))
    total = sum(o.size for o in orbit)
    assert total == 8
    seen = {tuple(w) for o in orbit for w in o.weights.tolist()}
    assert seen == oracles.brute_force_orbit(d4.cartan.tolist(), [1, 0, 0, 0])


def test_generate_orbit_spinor_b3():
    rs = we.root_system("B3")
    orbit = list(we.generate_orbit(rs, [0, 0, 1]))
    assert sum(o.size for o in orbit) == 8


def test_generate_orbit_zero_weight(d4):
    orbit = list(we.generate_orbit(d4, [0, 0, 0, 0]))
    assert len(orbit) == 1
    assert orbit[0].weights.tolist() == [[0, 0, 0, 0]]


def test_generate_orbit_rejects(d4):
    with pytest.raises(WeylError, match="dominant"):
        list(we.generate_orbit(d4, [1, -1, 0, 0]))
    with pytest.raises(WeylError, match="coordinates"):
        list(we.generate_orbit(d4, [1, 0, 0]))
    for big in (99999999999999999999, ENTRY_LIMIT):
        with pytest.raises(WeylError, match=f"the checked arithmetic bound {ENTRY_LIMIT}$"):
            next(we.generate_orbit(d4, [big, 0, 0, 0]))


def test_generate_orbit_truncation(d4):
    orbit = list(we.generate_orbit(d4, [1, 1, 1, 1], levels_up_to=2))
    assert [o.size for o in orbit] == [1, 4, 9]


@settings(max_examples=25)
@given(st.lists(st.integers(1, 5), min_size=3, max_size=3))
def test_level_sizes_independent_of_regular_start(start):
    rs = we.root_system("B3")
    sizes = [l.size for l in we.generate_group(rs, start=start)]
    assert sizes == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]


@settings(max_examples=40)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_orbit_matches_brute_force(mu):
    rs = we.root_system("B3")
    orbit = list(we.generate_orbit(rs, mu))
    seen = [tuple(w) for o in orbit for w in o.weights.tolist()]
    assert len(seen) == len(set(seen))
    assert set(seen) == oracles.brute_force_orbit(rs.cartan.tolist(), mu)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 4), max_size=10),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_word_then_reverse_returns_start(word, start):
    r = _generators(we.root_system("D4"))
    v = np.asarray(start, dtype=np.int64)
    for g in reversed(word):
        v = v @ r[g - 1]
    for g in word:
        v = v @ r[g - 1]
    assert v.tolist() == list(start)
