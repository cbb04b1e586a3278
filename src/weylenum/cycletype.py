"""Signed cycle-types of W(D_n) classes, read off the members' weight rows.

In Euclidean ε-coordinates W(D_n) acts as the signed permutations of
e_1..e_n with an even number of sign changes (Bourbaki, *Lie Groups and Lie
Algebras*, ch. VI, plate IV), and an element's weight is a signed
permutation of the start's coordinates, held as the images of e_1..e_n:
images[s] = j means e_{s+1} -> e_j, with j < 0 for a sign flip.  A signed
cycle-type lists the cycle lengths of the underlying permutation, negated
when the signs along the cycle multiply to -1, longer cycles first and
negative before positive at equal length; length-1 cycles included.
Only D_n in Bourbaki numbering has this model; `classify.report_cycle_types`
checks the run's Cartan matrix.  A class's weight rows are one gather from
its run's `ElementIndex.weights`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import IntegrityError


def render_cycle_type(ctype: Sequence[int]) -> str:
    """Plain-text form with ~ standing in for the negative mark: [2~1~1]."""
    return "[" + "".join(str(c) if c > 0 else f"~{-c}" for c in ctype) + "]"


def _epsilon_images(weights: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Signed permutations of D_n elements, one row per weight row.  Row i of
    `omega` is 2ω_{i+1} in ε-coordinates; home, the start's, has distinct
    magnitudes, and column j of a row is ±home[s], so ±(s + 1) is the image of
    e_{j+1} under the element or its inverse (which share a cycle type).  A 0
    in home, at n - 1 when the start's last two coordinates are equal, takes
    the sign that makes the number of sign changes even."""
    n = len(start)
    omega = 2 * np.tri(n, dtype=np.int64)
    omega[n - 2:] = 1
    omega[n - 2, n - 1] = -1
    home = start.astype(np.int64) @ omega
    eps = weights.astype(np.int64) @ omega
    by_size = np.argsort(np.abs(home))
    at = np.searchsorted(np.abs(home)[by_size], np.abs(eps)).clip(max=n - 1)
    source = by_size[at]
    images = np.where(eps * home[source] < 0, -1, 1) * (source + 1)
    odd = (images < 0).sum(axis=1) % 2 == 1
    images[(eps == 0) & odd[:, None]] *= -1
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
    (level, ordinal) member coordinates point into.  All members' weight
    rows are gathered by id, as one array of signed permutations, and
    compared with row 0, the representative (the least member).
    """
    lvl_of, ord_of = np.array(cls.members, dtype=np.int64).reshape(-1, 2).T
    weights = index.weights[index.offsets[lvl_of] + ord_of]
    labels = _cycle_labels(_epsilon_images(weights, index.start))
    expected = _cycle_type(labels[0])
    differ = np.flatnonzero((labels != labels[0]).any(axis=1))
    if differ.size:
        lvl, j = cls.members[differ[0]]
        raise IntegrityError(
            f"cycle type {_cycle_type(labels[differ[0]])} of member ({lvl}, {j}) differs "
            f"from the representative's {expected}; conjugation must preserve it")
    return expected
