"""Element orders, the order partition, and conjugacy classes.

Element orders come from one weight scan, `_orders`, which `element_order`
and `order_partition` share.  `order_partition` scans the levels a
`store.CheckedRun` passes on, one at a time; they are the walk's, so the
scan checks nothing the walk has proved.

The classes take a complete run as one `ElementIndex`, its weights and
inverse ids; a representative's word and matrix come from `descent`.
Classes are closed under conjugation by the simple reflections alone, which
suffices because they generate the group.  Each generator's conjugation is
read off the weight rows for every element at once, and the classes are
the connected components of those maps.  Classes are numbered by their
least member in (level, ordinal) order, which is also the representative,
so numbering and representatives are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cycletype
from .errors import IntegrityError, WeylError
from .reference import D4_CLASS_ROWS
from .rootsystems import cartan_matrix
from .store import CheckedRun, ElementIndex, format_word

# Conjugacy needs the whole group in memory; refuse beyond this many elements
# unless the caller raises the ceiling explicitly.
DEFAULT_CEILING = 10_000_000

# No element of a finite Weyl group in the supported rank range has an order
# anywhere near this; hitting it means the input was not a group element.
DEFAULT_ORDER_BOUND = 10_000


@dataclass(frozen=True)
class ConjugacyClass:
    representative_word: tuple[int, ...]
    members: tuple[tuple[int, int], ...]     # (level, ordinal), sorted
    element_order: int

    @property
    def representative(self) -> tuple[int, int]:  # the least member
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def _orders(v: np.ndarray, matrices: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Least p >= 1 with v_p == start for each row j, where v_1 = v[j] and
    v_{p+1} = v_p @ matrices[j]: the order of matrices[j] when v[j] is
    start @ matrices[j] and `start` is strictly dominant.  No such p up to
    DEFAULT_ORDER_BOUND is an IntegrityError.  The scan steps in the dtype of
    `matrices`, exactly whenever every iterate fits it (see `kernels`)."""
    v = v.astype(matrices.dtype, copy=False)
    orders = np.zeros(len(v), dtype=np.int64)
    pending = np.arange(len(v))
    for p in range(1, DEFAULT_ORDER_BOUND + 1):
        done = (v == start).all(axis=1)
        orders[pending[done]] = p
        pending, v, matrices = pending[~done], v[~done], matrices[~done]
        if not pending.size:
            return orders
        v = np.matmul(v[:, None, :], matrices)[:, 0]
    raise IntegrityError(f"no power up to {DEFAULT_ORDER_BOUND} reached the identity")


def element_order(m: np.ndarray) -> int:
    """Smallest p >= 1 with m^p equal to the identity, for the matrix m of a
    Weyl group element.  The all-ones weight rho is strictly dominant in every
    system, so rho @ m^p == rho exactly when m^p is the identity."""
    m = np.asarray(m, dtype=np.int64)
    rho = np.ones(len(m), dtype=np.int64)
    return int(_orders((rho @ m)[None], m[None], rho)[0])


def order_partition(run: CheckedRun) -> dict[int, int]:
    """Count of elements per element order, over the group of `run`, whose
    levels are scanned and dropped one at a time as it passes them on.

    The start is strictly dominant, so it lies in the open chamber, on which
    W acts simply transitively: w^p = e exactly when start @ M^p == start.
    So each element carries one weight row, stepped v <- v @ M from p = 1,
    whose weight start @ M is its inverse's, already on the level.  An
    element and its inverse share an order, so only ordinals j with
    j <= inv_ordinal[j] are scanned, each counted twice when it is not its
    own inverse.  The scan steps in the run dtype: every iterate is a weight
    of the run, which that dtype holds, so each step is exact though its
    partial sums may wrap, as in the level step (see `kernels`).  The pairing
    is used and the classes are not, so the partition cross-checks their
    per-class sums.
    """
    counts = np.zeros(DEFAULT_ORDER_BOUND + 1, dtype=np.int64)
    for level in run:
        if level.index == 0:
            start = level.weights[0]
        inv = level.inv_ordinal
        scanned = np.flatnonzero(np.arange(level.size) <= inv)
        orders = _orders(level.weights[inv[scanned]], level.matrices[scanned], start)
        counts += np.bincount(np.concatenate([orders, orders[inv[scanned] != scanned]]),
                              minlength=counts.size)
    return {p: int(n) for p, n in enumerate(counts.tolist()) if n}


def descent(weights: np.ndarray, start: np.ndarray, cartan: np.ndarray, lengths,
            where=lambda j: "") -> tuple[np.ndarray, np.ndarray]:
    """Words and int64 matrices of the elements of weights `weights` and lengths
    `lengths` (one, or one per row), by descent (Humphreys, *Reflection Groups
    and Coxeter Groups*, §1.6-1.7): the first letter is 1 + the index of the
    last negative coordinate, whose reflection R_i (the identity but row i,
    e_i - cartan[i]) gives the weight of the rest.  The matrix of a_1...a_k is
    R_{a_1}...R_{a_k}, and row j's word is ``words[j, :lengths[j]]``, 0 past
    it.  A row dominant before its length in letters, or not the start after
    them, is an IntegrityError prefixed with `where(j)`."""
    v = np.array(weights, dtype=np.int64)
    n, rank = v.shape
    lengths = np.broadcast_to(lengths, n)
    matrices = np.repeat(np.eye(rank, dtype=np.int64)[None], n, axis=0)
    words = np.zeros((n, lengths.max(initial=0)), dtype=np.min_scalar_type(rank))
    descends = np.ones(n, dtype=bool)
    for t in range(words.shape[1]):
        a = np.flatnonzero(lengths > t)  # the rows still descending
        negative = v[a] < 0
        descends[a] &= negative.any(axis=1)
        i = rank - 1 - np.argmax(negative[:, ::-1], axis=1)
        words[a, t] = i + 1
        v[a] -= v[a, i, None] * cartan[i]
        matrices[a] -= matrices[a, :, i, None] * cartan[i][:, None, :]
    bad = np.flatnonzero(~descends | (v != start).any(axis=1))
    if bad.size:
        raise IntegrityError(f"{where(bad[0])}its weight does not descend to the start "
                             f"in {lengths[bad[0]]} letter(s)")
    return words, matrices


def conjugacy_classes(index: ElementIndex,
                      ceiling: int = DEFAULT_CEILING) -> list[ConjugacyClass]:
    """Partition the group into conjugacy classes; each representative's word
    and matrix M are the `descent` of its weight row, and its order is
    `element_order(M)`."""
    if index.total > ceiling:
        raise WeylError(f"group has {index.total} elements, above the ceiling {ceiling}; "
                        "raise it explicitly to proceed")
    # weight(s·y) = weight(y) @ R_s, so one lookup gives L_s, the id of s·y
    # for every y, and s·x·s = L_s[inv[L_s[inv[x]]]].
    conjugates = []
    for i, row in enumerate(index.cartan):
        refl = np.eye(len(row), dtype=np.int64)
        refl[i] -= row
        left = index.keys.find(index.weights @ refl)
        conjugates.append(left[index.inv[left[index.inv]]])
    # Min-label propagation with pointer jumping: each label falls to the
    # least id in its class, the class's least member in (level, ordinal) order.
    label, previous = np.arange(index.total), None
    while not np.array_equal(label, previous):
        previous = label
        for conj in conjugates:
            label = np.minimum(label, label[conj])
        label = label[label]
    ids = np.argsort(label, kind="stable")
    heads = np.flatnonzero(np.diff(label[ids], prepend=-1))
    level_of = np.repeat(np.arange(len(index.offsets) - 1), np.diff(index.offsets))[ids]
    coords = list(zip(level_of.tolist(), (ids - index.offsets[level_of]).tolist()))
    reps, lengths = ids[heads], level_of[heads]

    def at(c: int) -> str:
        return "level {}, record {}: ".format(*coords[heads[c]])

    words, matrices = descent(index.weights[reps], index.start, index.cartan, lengths, at)
    q = index.start @ matrices
    bad = np.flatnonzero((q != index.weights[index.inv[reps]]).any(axis=1))
    if bad.size:
        raise IntegrityError(f"{at(bad[0])}start @ M = {q[bad[0]].tolist()} for its descended "
                             "matrix M disagrees with the weight of its inverse")
    return [ConjugacyClass(tuple(words[c, :lengths[c]].tolist()), tuple(coords[lo:hi]),
                           element_order(matrices[c]))
            for c, (lo, hi) in enumerate(zip(heads, [*heads[1:], index.total]))]


def class_label_d4(cls: ConjugacyClass, ctype: tuple[int, ...]) -> str | None:
    """Published label of a D4 class, keyed by (size, order, cycle type).

    `ctype` is the class's signed cycle type, as `class_cycle_type` gives it.
    Two pairs of table rows collide on all three invariants; those come back
    as an "ambiguous" answer naming both rows.  Unknown combinations give None.
    """
    hits = [(row, label) for row, (size, order, ct, label) in enumerate(D4_CLASS_ROWS)
            if size == cls.size and order == cls.element_order and ct == ctype]
    if not hits:
        return None
    if len(hits) == 1:
        return hits[0][1]
    return "ambiguous: " + " / ".join(f"{label} (line {row})" for row, label in hits)


def report_cycle_types(classes: Sequence[ConjugacyClass],
                       index: ElementIndex) -> list[tuple[int, ...]] | None:
    """Each class's signed cycle type when the run's Cartan matrix is that of
    D_n, n >= 3, in Bourbaki numbering; else None.  The run's name plays no part."""
    rank = index.start.size
    if rank < 3 or not np.array_equal(index.cartan, cartan_matrix(f"D{rank}")):
        return None
    return [cycletype.class_cycle_type(cls, index) for cls in classes]


def format_class_report(classes: Sequence[ConjugacyClass], index: ElementIndex,
                        ctypes: Sequence[tuple[int, ...]] | None) -> str:
    """Human-readable class report, one block per class.

    `ctypes` are the classes' `report_cycle_types`.  When given, each block
    shows its class's cycle type and, in rank 4, its published D4 label."""
    with_labels = ctypes is not None and index.start.size == 4
    lines = []
    for i, cls in enumerate(classes):
        word = format_word(cls.representative_word).strip() or "e"
        head = (f"class {i}: size={cls.size}, order={cls.element_order}, "
                f"representative={cls.representative}, word={word}")
        if ctypes is not None:
            head += f", cycle_type={cycletype.render_cycle_type(ctypes[i])}"
        if with_labels:
            label = class_label_d4(cls, ctypes[i])
            if label is not None:
                head += f", label={label}"
        lines.append(head)
        lines.append("  members: " + ", ".join(f"({a}, {b})" for a, b in cls.members))
    return "\n".join(lines) + "\n"
