"""Signed cycle-types of W(D_n) classes, replayed as arrays of signed permutations.

Generators of D_n act on the basis e_1..e_n as the adjacent transpositions
(e_i e_{i+1}) for i < n plus the final generator e_{n-1} -> -e_n,
e_n -> -e_{n-1}.  A word maps to the composition of its generators with the
rightmost applied first, matching how words label group elements elsewhere
in this package.  Row k of a replayed array holds the images of e_1..e_n
under word k: images[s] = j means e_{s+1} -> e_j, with j < 0 for a sign flip.

A signed cycle-type lists the cycle lengths of the underlying permutation,
negated when the signs along the cycle multiply to -1, longer cycles first
and negative before positive at equal length; length-1 cycles included.

Only D_n in Bourbaki numbering has a signed-permutation model here; the
functions take its rank n and do not check the run's Cartan matrix, which
`classify.report_cycle_types` does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import IntegrityError, WeylError


def render_cycle_type(ctype: Sequence[int]) -> str:
    """Plain-text form with ~ standing in for the negative mark: [2~1~1]."""
    return "[" + "".join(str(c) if c > 0 else f"~{-c}" for c in ctype) + "]"


def _signed_images(words: np.ndarray, n: int) -> np.ndarray:
    """Signed permutations of D_n words, one row per word of generators 1..n.

    A 0 pads a shorter word and acts as the identity.  Word positions are
    taken left to right, for all rows at once, each composed on the right of
    the product so far, so the rightmost letter acts first.
    """
    if words.size and (words.min() < 0 or words.max() > n):
        bad = words[(words < 0) | (words > n)][0]
        raise WeylError(f"generator index {bad} out of range 1..{n}")
    # Row g holds the images under generator g; row 0, the padding, is the identity.
    actions = np.tile(np.arange(1, n + 1, dtype=np.int64), (n + 1, 1))
    g = np.arange(1, n)
    actions[g, g - 1], actions[g, g] = g + 1, g
    actions[n, n - 2:] = -n, -(n - 1)
    images = np.tile(np.arange(1, n + 1, dtype=np.int64), (len(words), 1))
    for p in range(words.shape[1]):
        a = actions[words[:, p]]
        images = np.sign(a) * np.take_along_axis(images, np.abs(a) - 1, axis=1)
    return images


def _cycle_labels(images: np.ndarray) -> np.ndarray:
    """Per row, each position's cycle length, negated on a negative cycle, sorted.

    Position s lies on a cycle of length L when L is the first power of the
    permutation that sends e_s to +-e_s; the sign there is the cycle's sign.
    Two rows agree exactly when their signed cycle types do.
    """
    n = images.shape[1]
    home = np.arange(1, n + 1)
    labels = np.zeros(images.shape, dtype=np.int64)
    power = images
    for k in range(1, n + 1):
        back = (labels == 0) & (np.abs(power) == home)
        labels[back] = np.where(power[back] > 0, k, -k)
        power = np.sign(power) * np.take_along_axis(images, np.abs(power) - 1, axis=1)
    return np.sort(labels, axis=1)


def _cycle_type(labels: np.ndarray) -> tuple[int, ...]:
    """The signed cycle-type of one `_cycle_labels` row, in canonical order.

    A cycle c marks each of its |c| positions with c, so a label that
    appears k times stands for k / |c| cycles.
    """
    values, counts = np.unique(labels, return_counts=True)
    cycles = [c for c, k in zip(values.tolist(), counts.tolist()) for _ in range(k // abs(c))]
    return tuple(sorted(cycles, key=lambda c: (-abs(c), c > 0)))


def class_cycle_type(cls, index) -> tuple[int, ...]:
    """Cycle type of a conjugacy class, checked to be constant over all members.

    `index` is the `ElementIndex` of the run whose levels the class's
    (level, ordinal) member coordinates point into.  All members are
    replayed together, as one array of signed permutations, and compared
    with row 0, the representative (the least member).
    """
    levels = index.levels
    n = index.start.size
    lvl_of, ord_of = np.array(cls.members, dtype=np.int64).reshape(-1, 2).T
    padded = np.zeros((len(lvl_of), lvl_of.max(initial=0)), dtype=np.int64)
    for lvl in np.flatnonzero(np.bincount(lvl_of)).tolist():  # words of length lvl
        rows = np.flatnonzero(lvl_of == lvl)
        padded[rows, :lvl] = levels[lvl].words[ord_of[rows]]
    labels = _cycle_labels(_signed_images(padded, n))
    expected = _cycle_type(labels[0])
    differ = np.flatnonzero((labels != labels[0]).any(axis=1))
    if differ.size:
        lvl, j = cls.members[differ[0]]
        raise IntegrityError(
            f"cycle type {_cycle_type(labels[differ[0]])} of member ({lvl}, {j}) differs "
            f"from the representative's {expected}; conjugation must preserve it")
    return expected
