"""Element orders, the order partition, and conjugacy classes.

Each takes a complete run as one `ElementIndex`, which holds its levels.
Classes are closed under conjugation by the simple reflections alone, which
suffices because they generate the group.  Each generator's conjugation is
computed for every element at once: the conjugates' weights are looked up
in the packed weight keys of the index, and the classes are the connected
components of those maps.  Classes are
numbered by their least member in (level, ordinal) order, which is also
the representative, so numbering and representatives are deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cycletype
from .errors import IntegrityError, WeylError
from .reference import D4_CLASS_ROWS
from .rootsystems import cartan_matrix
from .store import ElementIndex, format_word

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


def _orders(matrices: np.ndarray) -> np.ndarray:
    """Order of each matrix in a stack: smallest p >= 1 with m^p the identity."""
    eye = np.eye(matrices.shape[-1], dtype=np.int64)
    orders = np.zeros(len(matrices), dtype=np.int64)
    pending = np.arange(len(matrices))
    power = matrices
    for p in range(1, DEFAULT_ORDER_BOUND + 1):
        done = (power == eye).all(axis=(1, 2))
        orders[pending[done]] = p
        pending, power = pending[~done], power[~done]
        if not pending.size:
            return orders
        power = power @ matrices[pending]
    raise IntegrityError(f"no power up to {DEFAULT_ORDER_BOUND} reached the identity")


def element_order(m: np.ndarray) -> int:
    """Smallest p >= 1 with m^p equal to the identity."""
    return int(_orders(np.asarray(m, dtype=np.int64)[None])[0])


def order_partition(index: ElementIndex) -> dict[int, int]:
    """Count of elements per element order, over the whole group.

    Powers every element's matrix, one level at a time; it does not use the
    conjugacy classes, so it cross-checks their per-class sums.
    """
    counts: Counter[int] = Counter()
    for level in index.levels:
        counts.update(_orders(level.matrices).tolist())
    return dict(sorted(counts.items()))


def conjugacy_classes(index: ElementIndex,
                      ceiling: int = DEFAULT_CEILING) -> list[ConjugacyClass]:
    """Partition the group into conjugacy classes.

    Generator matrices are taken from level 1, whose elements are exactly
    the simple reflections in ascending order.
    """
    levels = index.levels
    if index.total > ceiling:
        raise WeylError(
            f"group has {index.total} elements, above the ceiling {ceiling}; "
            "raise it explicitly to proceed")
    # start @ R M R is the weight of (R M R)^-1, so the weight keys give the
    # id of every element's conjugate by each generator R, a level at a time.
    conjugates = []
    for refl in levels[1].matrices:
        v = index.start @ refl
        q = np.concatenate([(v @ level.matrices) @ refl for level in levels])
        conjugates.append(index.inv[index.keys.find(q)])
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
    level_of = np.repeat(np.arange(len(levels)), np.diff(index.offsets))[ids]
    coords = list(zip(level_of.tolist(), (ids - index.offsets[level_of]).tolist()))
    classes: list[ConjugacyClass] = []
    for lo, hi in zip(heads, [*heads[1:], index.total]):
        members = tuple(coords[lo:hi])
        lvl, j = members[0]
        classes.append(ConjugacyClass(
            representative_word=levels[lvl].word(j),
            members=members,
            element_order=element_order(levels[lvl].matrices[j]),
        ))
    return classes


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
