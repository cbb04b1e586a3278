"""Signed permutations for W(D_n) words and their signed cycle-types.

Generators of D_n act on the basis e_1..e_n as the adjacent transpositions
(e_i e_{i+1}) for i < n plus the final generator e_{n-1} -> -e_n,
e_n -> -e_{n-1}.  A word maps to the composition of its generators with the
rightmost applied first, matching how words label group elements elsewhere
in this package.

Only family D has a signed-permutation model here; the functions take its
rank n and do not check the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import IntegrityError, WeylError


@dataclass(frozen=True)
class SignedPermutation:
    """images[i] = j means e_{i+1} -> e_j, with j < 0 for a sign flip."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise WeylError(f"not a signed permutation: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    def compose(self, inner: "SignedPermutation") -> "SignedPermutation":
        """self after inner (inner is applied first)."""
        out = []
        for v in inner.images:
            w = self.images[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return SignedPermutation(tuple(out))

    def negative_count(self) -> int:
        return sum(1 for v in self.images if v < 0)


@lru_cache(maxsize=None)
def _action(n: int, i: int) -> tuple[int, ...]:
    """Images of generator i of D_n as a plain tuple; composed words are validated once."""
    if not 1 <= i <= n:
        raise WeylError(f"generator index {i} out of range 1..{n}")
    images = list(range(1, n + 1))
    if i < n:
        images[i - 1], images[i] = i + 1, i
    else:
        images[n - 2], images[n - 1] = -n, -(n - 1)
    return tuple(images)


def word_to_signed_perm(word: Sequence[int], n: int) -> SignedPermutation:
    """Compose a word's generator actions, rightmost generator first (D_n).

    The images are composed as plain tuples and validated once, at the end.
    """
    if n < 3:
        raise WeylError(f"family D needs rank >= 3, got {n}")
    images = tuple(range(1, n + 1))
    for g in word:
        images = tuple(images[v - 1] if v > 0 else -images[-v - 1] for v in _action(n, int(g)))
    return SignedPermutation(images)


def signed_cycle_type(p: SignedPermutation) -> tuple[int, ...]:
    """Cycle lengths of the underlying permutation, negated when the signs
    along the cycle multiply to -1.  Canonical order: longer cycles first,
    negative before positive at equal length; length-1 cycles included."""
    seen = [False] * p.n
    cycles = []
    for s in range(p.n):
        if seen[s]:
            continue
        length, sign, k = 0, 1, s
        while not seen[k]:
            seen[k] = True
            v = p.images[k]
            if v < 0:
                sign = -sign
            k = abs(v) - 1
            length += 1
        cycles.append(length if sign > 0 else -length)
    cycles.sort(key=lambda c: (-abs(c), c > 0))
    return tuple(cycles)


def render_cycle_type(ctype: Sequence[int]) -> str:
    """Plain-text form with ~ standing in for the negative mark: [2~1~1]."""
    return "[" + "".join(str(c) if c > 0 else f"~{-c}" for c in ctype) + "]"


def _signed_images(words: np.ndarray, n: int) -> np.ndarray:
    """Signed permutations of D_n words, one row per word of generators 1..n.

    A 0 pads a shorter word and acts as the identity.  Word position p is
    applied to all rows at once, composed as in word_to_signed_perm.
    """
    if words.size and (words.min() < 0 or words.max() > n):
        bad = words[(words < 0) | (words > n)][0]
        raise WeylError(f"generator index {bad} out of range 1..{n}")
    actions = np.array([tuple(range(1, n + 1))] + [_action(n, g) for g in range(1, n + 1)])
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


def class_cycle_type(cls, index) -> tuple[int, ...]:
    """Cycle type of a conjugacy class, checked to be constant over all members.

    `index` is the `ElementIndex` of the run whose levels the class's
    (level, ordinal) member coordinates point into.  All members are
    replayed together, as one array of signed permutations, and compared
    with row 0, the representative (the least member).
    """
    levels = index.levels
    n = index.start.size
    rep_lvl, rep_ord = cls.representative
    expected = signed_cycle_type(word_to_signed_perm(levels[rep_lvl].word(rep_ord), n))
    lvl_of, ord_of = np.array(cls.members, dtype=np.int64).reshape(-1, 2).T
    padded = np.zeros((len(lvl_of), lvl_of.max(initial=0)), dtype=np.int64)
    for lvl in np.unique(lvl_of).tolist():  # a level's words all have length lvl
        rows = np.flatnonzero(lvl_of == lvl)
        padded[rows, :lvl] = levels[lvl].words[ord_of[rows]]
    labels = _cycle_labels(_signed_images(padded, n))
    differ = np.flatnonzero((labels != labels[0]).any(axis=1))
    if differ.size:
        lvl, j = cls.members[differ[0]]
        got = signed_cycle_type(word_to_signed_perm(levels[lvl].word(j), n))
        raise IntegrityError(
            f"cycle type {got} of member ({lvl}, {j}) differs from the "
            f"representative's {expected}; conjugation must preserve it")
    return expected
