from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import weylenum as we
from oracles import SignedPermutation, signed_cycle_type, word_to_signed_perm
from weylenum import IntegrityError
from weylenum.cycletype import _cycle_labels, _cycle_type, _epsilon_images
from weylenum.reference import D4_CYCLE_TYPES


def test_signed_permutation_validation():
    SignedPermutation((2, -1, 3))
    with pytest.raises(ValueError):
        SignedPermutation((1, 1, 3))
    with pytest.raises(ValueError):
        SignedPermutation((1, 0, 3))
    with pytest.raises(ValueError):
        SignedPermutation((1, 2, 4))


def test_identity_and_compose():
    ident = SignedPermutation.identity(4)
    assert ident.images == (1, 2, 3, 4)
    swap = SignedPermutation((2, 1, 3, 4))
    flip = SignedPermutation((1, 2, -4, -3))
    assert swap.compose(ident) == swap
    assert ident.compose(flip) == flip
    assert flip.compose(flip) == ident
    assert flip.negative_count() == 2


def test_generator_actions_d4():
    assert word_to_signed_perm((1,), 4).images == (2, 1, 3, 4)
    assert word_to_signed_perm((3,), 4).images == (1, 2, 4, 3)
    assert word_to_signed_perm((4,), 4).images == (1, 2, -4, -3)
    with pytest.raises(ValueError):
        word_to_signed_perm((5,), 4)


@pytest.mark.parametrize("n", range(3, 8))
def test_generator_images_match_euclidean_reflections(n):
    # generator i reflects e_k in the simple root a_i of the Euclidean D_n
    # model; both oracle replays must send e_k where that reflection does
    roots = oracles.simple_roots("D", n)
    basis = [tuple(int(d == k) for d in range(n)) for k in range(n)]
    for i, a in enumerate(roots, start=1):
        expected = []
        for v in basis:
            scale = 2 * oracles._dot(v, a) / oracles._dot(a, a)
            image = [x - scale * y for x, y in zip(v, a)]
            (j,) = [d for d, x in enumerate(image) if x]
            assert abs(image[j]) == 1
            expected.append(int(image[j]) * (j + 1))
        assert oracles.d_generator(n, i).images == tuple(expected)
        assert oracles.signed_images(np.array([[i]]), n)[0].tolist() == expected


def test_word_to_signed_perm_examples():
    assert word_to_signed_perm((3, 2, 4), 4).images == (1, 4, -3, -2)
    assert word_to_signed_perm((), 4) == SignedPermutation.identity(4)
    assert word_to_signed_perm((2, 1), 4).images == (3, 1, 2, 4)


def test_word_to_signed_perm_rejects_generator_out_of_range():
    with pytest.raises(ValueError, match=r"generator index 5 out of range 1\.\.4"):
        word_to_signed_perm((5,), 4)


def test_word_to_signed_perm_negation_pairs():
    # s3 then s4 negates the last two basis vectors
    assert word_to_signed_perm((3, 4), 4).images == (1, 2, -3, -4)
    assert word_to_signed_perm((1, 4, 2, 3), 4).images == (2, -4, -3, 1)


def test_cycle_type_of_short_words():
    perm = word_to_signed_perm((1, 3, 4), 4)
    assert signed_cycle_type(perm) == (2, -1, -1)


def test_signed_cycle_type_examples():
    assert signed_cycle_type(SignedPermutation.identity(4)) == (1, 1, 1, 1)
    assert signed_cycle_type(SignedPermutation((-1, -2, -3, -4))) \
        == (-1, -1, -1, -1)
    assert signed_cycle_type(SignedPermutation((1, 4, -3, -2))) == (-2, -1, 1)
    assert signed_cycle_type(SignedPermutation((3, 1, 2, 4))) == (3, 1)
    # negative sorts before positive at equal length
    assert signed_cycle_type(SignedPermutation((2, 1, -3, 4))) == (2, -1, 1)


def test_render_cycle_type():
    assert we.render_cycle_type((1, 1, 1, 1)) == "[1111]"
    assert we.render_cycle_type((2, -1, -1)) == "[2~1~1]"
    assert we.render_cycle_type((-3, -1)) == "[~3~1]"
    assert we.render_cycle_type((4,)) == "[4]"


def test_whole_group_cycle_type_census(d4_levels):
    census = Counter(
        signed_cycle_type(word_to_signed_perm(level.words[j], 4))
        for level in d4_levels for j in range(level.size))
    assert census == {
        (1, 1, 1, 1): 1, (2, 1, 1): 12, (3, 1): 32, (2, 2): 12,
        (-1, -1, 1, 1): 6, (4,): 48, (2, -1, -1): 12, (-2, -1, 1): 24,
        (-3, -1): 32, (-2, -2): 12, (-1, -1, -1, -1): 1,
    }
    assert sum(census.values()) == 192


def test_class_cycle_types_match_published_rows(d4_classes, d4_index):
    types = tuple(we.class_cycle_type(c, d4_index) for c in d4_classes)
    assert types == D4_CYCLE_TYPES


@pytest.mark.parametrize("name, classes, distinct", [("D5", 18, 18), ("D6", 37, 34)])
def test_class_cycle_types_beyond_d4(name, classes, distinct, request):
    index = request.getfixturevalue(f"{name.lower()}_index")
    n = index.start.size
    types = Counter(we.class_cycle_type(c, index) for c in we.conjugacy_classes(index))
    assert (sum(types.values()), len(types)) == (classes, distinct)
    for ctype in types:
        assert sum(abs(c) for c in ctype) == n
        assert sum(c < 0 for c in ctype) % 2 == 0
    # a class of D_n splits in two exactly when its cycles are all positive
    # and of even length
    assert {t for t, k in types.items() if k > 1} \
        == {t for t in types if all(c > 0 and c % 2 == 0 for c in t)}
    if name == "D6":
        assert {t for t, k in types.items() if k > 1} == {(6,), (4, 2), (2, 2, 2)}


def test_class_cycle_type_reads_each_class_once(d4_classes, d4_index, monkeypatch):
    calls = []
    real = we.cycletype._epsilon_images
    monkeypatch.setattr(we.cycletype, "_epsilon_images",
                        lambda weights, start: calls.append(len(weights)) or real(weights, start))
    for c in d4_classes:
        we.class_cycle_type(c, d4_index)
    assert calls == [c.size for c in d4_classes]


def test_class_cycle_type_detects_disagreement(d4_index, d4_levels):
    fake = SimpleNamespace(representative=(1, 0), members=((1, 0), (2, 0)))
    rep = signed_cycle_type(word_to_signed_perm(d4_levels[1].word(0), 4))
    got = signed_cycle_type(word_to_signed_perm(d4_levels[2].word(0), 4))
    with pytest.raises(IntegrityError, match=rf"cycle type \({', '.join(map(str, got))}\) "
                                             rf"of member \(2, 0\) differs from the "
                                             rf"representative's \({', '.join(map(str, rep))}\)"):
        we.class_cycle_type(fake, d4_index)


def test_signed_perm_order_matches_matrix_order(d4_classes, d4_levels):
    # the signed-permutation model and the weight-matrix model must assign
    # every class the same element order
    for cls in d4_classes:
        lvl, j = cls.representative
        perm = word_to_signed_perm(d4_levels[lvl].words[j], 4)
        power = perm
        order = 1
        while power != SignedPermutation.identity(4):
            power = power.compose(perm)
            order += 1
        assert order == cls.element_order


@settings(max_examples=80)
@given(st.lists(st.integers(1, 4), max_size=12))
def test_even_sign_changes(word):
    # family D preserves an even number of sign flips
    assert word_to_signed_perm(word, 4).negative_count() % 2 == 0


@settings(max_examples=80)
@given(st.lists(st.integers(1, 4), max_size=12))
def test_word_times_reverse_is_identity(word):
    full = tuple(word) + tuple(reversed(word))
    assert word_to_signed_perm(full, 4) == SignedPermutation.identity(4)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 5), max_size=10))
def test_cycle_type_is_canonical(word):
    ctype = signed_cycle_type(word_to_signed_perm(word, 5))
    assert sum(abs(c) for c in ctype) == 5
    assert list(ctype) == sorted(ctype, key=lambda c: (-abs(c), c > 0))


@st.composite
def word_batch(draw):
    """A rank n and several D_n words."""
    n = draw(st.integers(3, 7))
    return n, draw(st.lists(st.lists(st.integers(1, n), max_size=10), min_size=1, max_size=8))


@settings(max_examples=80)
@given(word_batch())
def test_batched_replay_matches_word_by_word(batch):
    # the oracle's array replay against its one-word replay
    n, words = batch
    width = max(map(len, words))
    images = oracles.signed_images(np.array([w + [0] * (width - len(w)) for w in words]).reshape(
        len(words), width), n)
    labels = _cycle_labels(images)
    for word, row, label in zip(words, images, labels):
        perm = word_to_signed_perm(word, n)
        assert tuple(row.tolist()) == perm.images
        assert _cycle_type(label) == signed_cycle_type(perm)


def test_array_replay_rejects_generator_out_of_range():
    with pytest.raises(ValueError, match=r"generator index 5 out of range 1\.\.4"):
        oracles.signed_images(np.array([[1], [5], [3], [4]]), 4)


@pytest.mark.parametrize("equal", [True, False], ids=["last-two-equal", "last-two-differ"])
@pytest.mark.parametrize("n", range(3, 8))
def test_epsilon_read_matches_word_replay(n, equal):
    # a random strictly dominant start, whose last ε-coordinate is zero
    # exactly when its last two coordinates are equal; every member's
    # ε-read cycle type against the array replay of its word, and up to
    # 40 members a level against the one-word replay
    rng = np.random.default_rng(10 * n + equal)
    start = rng.integers(1, 4, n)
    while (start[-2] == start[-1]) != equal:
        start[-1] = rng.integers(1, 4)
    for level in we.generate_group(we.root_system(f"D{n}"), start=start.tolist()):
        labels = _cycle_labels(_epsilon_images(level.weights, start))
        assert np.array_equal(labels, _cycle_labels(oracles.signed_images(level.words, n)))
        for j in rng.permutation(level.size)[:40].tolist():
            assert _cycle_type(labels[j]) \
                == signed_cycle_type(word_to_signed_perm(level.words[j], n))
