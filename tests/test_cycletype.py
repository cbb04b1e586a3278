from __future__ import annotations

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylenum as we
from weylenum import IntegrityError, WeylError
from weylenum.cycletype import SignedPermutation, _action, _cycle_labels, _signed_images
from weylenum.reference import D4_CYCLE_TYPES


def test_signed_permutation_validation():
    SignedPermutation((2, -1, 3))
    with pytest.raises(WeylError):
        SignedPermutation((1, 1, 3))
    with pytest.raises(WeylError):
        SignedPermutation((1, 0, 3))
    with pytest.raises(WeylError):
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
    assert we.word_to_signed_perm((1,), 4).images == (2, 1, 3, 4)
    assert we.word_to_signed_perm((3,), 4).images == (1, 2, 4, 3)
    assert we.word_to_signed_perm((4,), 4).images == (1, 2, -4, -3)
    with pytest.raises(WeylError):
        we.word_to_signed_perm((5,), 4)


def test_word_to_signed_perm_examples():
    assert we.word_to_signed_perm((3, 2, 4), 4).images == (1, 4, -3, -2)
    assert we.word_to_signed_perm((), 4) == SignedPermutation.identity(4)
    assert we.word_to_signed_perm((2, 1), 4).images == (3, 1, 2, 4)
    with pytest.raises(WeylError, match="rank"):
        we.word_to_signed_perm((1,), 2)


def test_word_to_signed_perm_rejects_generator_out_of_range():
    with pytest.raises(WeylError, match=r"generator index 5 out of range 1\.\.4"):
        we.word_to_signed_perm((5,), 4)


def test_word_to_signed_perm_negation_pairs():
    # s3 then s4 negates the last two basis vectors
    assert we.word_to_signed_perm((3, 4), 4).images == (1, 2, -3, -4)
    assert we.word_to_signed_perm((1, 4, 2, 3), 4).images == (2, -4, -3, 1)


def test_cycle_type_of_short_words():
    perm = we.word_to_signed_perm((1, 3, 4), 4)
    assert we.signed_cycle_type(perm) == (2, -1, -1)


def test_signed_cycle_type_examples():
    assert we.signed_cycle_type(SignedPermutation.identity(4)) == (1, 1, 1, 1)
    assert we.signed_cycle_type(SignedPermutation((-1, -2, -3, -4))) \
        == (-1, -1, -1, -1)
    assert we.signed_cycle_type(SignedPermutation((1, 4, -3, -2))) == (-2, -1, 1)
    assert we.signed_cycle_type(SignedPermutation((3, 1, 2, 4))) == (3, 1)
    # negative sorts before positive at equal length
    assert we.signed_cycle_type(SignedPermutation((2, 1, -3, 4))) == (2, -1, 1)


def test_render_cycle_type():
    assert we.render_cycle_type((1, 1, 1, 1)) == "[1111]"
    assert we.render_cycle_type((2, -1, -1)) == "[2~1~1]"
    assert we.render_cycle_type((-3, -1)) == "[~3~1]"
    assert we.render_cycle_type((4,)) == "[4]"


def test_whole_group_cycle_type_census(d4_levels):
    census = Counter(
        we.signed_cycle_type(we.word_to_signed_perm(level.words[j], 4))
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


def test_class_cycle_type_replays_each_class_once(d4_classes, d4_index, monkeypatch):
    calls = []
    real = we.cycletype._signed_images
    monkeypatch.setattr(we.cycletype, "_signed_images",
                        lambda words, n: calls.append(len(words)) or real(words, n))
    for c in d4_classes:
        we.class_cycle_type(c, d4_index)
    assert calls == [c.size for c in d4_classes]


def test_class_cycle_type_detects_disagreement(d4_index):
    fake = SimpleNamespace(representative=(1, 0), members=((1, 0), (2, 0)))
    with pytest.raises(IntegrityError, match="differs"):
        we.class_cycle_type(fake, d4_index)


def test_signed_perm_order_matches_matrix_order(d4_classes, d4_levels):
    # the signed-permutation model and the weight-matrix model must assign
    # every class the same element order
    for cls in d4_classes:
        lvl, j = cls.representative
        perm = we.word_to_signed_perm(d4_levels[lvl].words[j], 4)
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
    assert we.word_to_signed_perm(word, 4).negative_count() % 2 == 0


@settings(max_examples=80)
@given(st.lists(st.integers(1, 4), max_size=12))
def test_word_times_reverse_is_identity(word):
    full = tuple(word) + tuple(reversed(word))
    assert we.word_to_signed_perm(full, 4) == SignedPermutation.identity(4)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 5), max_size=10))
def test_cycle_type_is_canonical(word):
    ctype = we.signed_cycle_type(we.word_to_signed_perm(word, 5))
    assert sum(abs(c) for c in ctype) == 5
    assert list(ctype) == sorted(ctype, key=lambda c: (-abs(c), c > 0))


@st.composite
def word_batch(draw):
    """A rank n and several D_n words."""
    n = draw(st.integers(3, 6))
    return n, draw(st.lists(st.lists(st.integers(1, n), max_size=10), min_size=1, max_size=8))


@settings(max_examples=80)
@given(word_batch())
def test_batched_replay_matches_word_by_word(batch):
    # the array replay behind class_cycle_type against the one-word path
    n, words = batch
    width = max(map(len, words))
    images = _signed_images(np.array([w + [0] * (width - len(w)) for w in words]).reshape(
        len(words), width), n)
    labels = _cycle_labels(images)
    for word, row, label in zip(words, images, labels):
        perm = we.word_to_signed_perm(word, n)
        assert tuple(row.tolist()) == perm.images
        # label c marks each of the |c| positions of a cycle c
        cycles = Counter({c: k // abs(c) for c, k in Counter(label.tolist()).items()})
        assert cycles == Counter(we.signed_cycle_type(perm))


def test_class_cycle_type_rejects_generator_out_of_range(d4_index):
    levels = list(d4_index.levels)
    words = np.array([[1], [5], [3], [4]], dtype=np.uint8)
    levels[1] = dataclasses.replace(levels[1], words=words)
    fake = SimpleNamespace(representative=(1, 0), members=((1, 0), (1, 1)))
    with pytest.raises(WeylError, match="out of range 1..4"):
        we.class_cycle_type(fake, dataclasses.replace(d4_index, levels=tuple(levels)))


def test_action_bounds():
    with pytest.raises(WeylError):
        _action(4, 0)
    with pytest.raises(WeylError):
        _action(4, 5)
