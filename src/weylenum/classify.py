"""Element orders, the order partition, and conjugacy classes.

Element orders come from one weight scan, `_orders`, which `element_order`
and `order_partition` share.  `order_partition` takes a whole run's
`ElementIndex`, or the levels a `store.CheckedRun` passes on, one at a time.

The classes take a complete run as one `ElementIndex`, which holds its levels.
Classes are closed under conjugation by the simple reflections alone, which
suffices because they generate the group.  Each generator's conjugation is
computed for every element at once: the conjugates' weights are looked up
in the packed weight keys of the index, and the classes are the connected
components of those maps.  Classes are
numbered by their least member in (level, ordinal) order, which is also
the representative, so numbering and representatives are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import cycletype
from .errors import IntegrityError, WeylError
from .orbit import ENTRY_LIMIT, Level
from .reference import D4_CLASS_ROWS
from .rootsystems import cartan_matrix, positive_coroots, validate_cartan
from .store import ElementIndex, format_word, level_one_cartan

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


def _orders(v: np.ndarray, matrices: np.ndarray, start: np.ndarray,
            bound: int | None = None, where=lambda j: "") -> np.ndarray:
    """Least p >= 1 with v_p == start for each row j, where v_1 = v[j] and
    v_{p+1} = v_p @ matrices[j]: the order of matrices[j] when v[j] is
    start @ matrices[j] and `start` is strictly dominant.

    An iterate with an entry beyond `bound` raises IntegrityError, as does a
    row with no such p up to DEFAULT_ORDER_BOUND; `where(j)` prefixes the
    message with the name of row j.
    """
    v, matrices = v.astype(np.int64, copy=False), matrices.astype(np.int64, copy=False)
    orders = np.zeros(len(v), dtype=np.int64)
    pending = np.arange(len(v))
    for p in range(1, DEFAULT_ORDER_BOUND + 1):
        if bound is not None:
            out = np.flatnonzero((np.abs(v) > bound).any(axis=1))
            if out.size:
                raise IntegrityError(
                    f"{where(pending[out[0]])}start @ M^{p} = {v[out[0]].tolist()} leaves the "
                    f"orbit's weight range [-{bound}, {bound}]; M is not a group element")
        done = (v == start).all(axis=1)
        orders[pending[done]] = p
        pending, v, matrices = pending[~done], v[~done], matrices[~done]
        if not pending.size:
            return orders
        v = np.matmul(v[:, None, :], matrices)[:, 0]
    raise IntegrityError(
        f"{where(pending[0])}no power up to {DEFAULT_ORDER_BOUND} reached the identity")


def element_order(m: np.ndarray) -> int:
    """Smallest p >= 1 with m^p equal to the identity, for the matrix m of a
    Weyl group element.  The all-ones weight rho is strictly dominant in every
    system, so rho @ m^p == rho exactly when m^p is the identity."""
    m = np.asarray(m, dtype=np.int64)
    rho = np.ones(len(m), dtype=np.int64)
    return int(_orders((rho @ m)[None], m[None], rho)[0])


def _bounds(start: np.ndarray, cartan: np.ndarray) -> tuple[int, int]:
    """(B, c): every weight of the start's orbit lies in [-B, B], and every
    entry of a group matrix, a coroot coefficient, in [-c, c].

    B is the start's coroot bound, max |<start, beta^vee>| over the positive
    coroots, in exact integers.  A run whose B is at least ENTRY_LIMIT is
    refused, since no walk starts there; below it, an iterate in [-B, B]
    times a matrix in [-c, c] is exact in int64.
    """
    coroots = positive_coroots(validate_cartan(cartan))
    bound = max(abs(x) for x in coroots.astype(object) @ start.astype(object))
    if bound >= ENTRY_LIMIT:
        raise IntegrityError(f"level 0: start {start.tolist()} has coroot bound {bound}, at "
                             f"least the checked arithmetic bound {ENTRY_LIMIT}")
    return bound, int(coroots.max())


def order_partition(run: ElementIndex | Iterable[Level]) -> dict[int, int]:
    """Count of elements per element order, over the whole group.

    `run` is an index, or the levels of a complete run in order as a
    `store.CheckedRun` passes them on, scanned and dropped one at a time.
    The start is strictly dominant, so it lies in the open chamber, on which
    W acts simply transitively: w^p = e exactly when start @ M^p == start.
    So each element carries one weight row, stepped v <- v @ M from p = 1,
    whose weight start @ M is its inverse's, already on the level.  An
    element and its inverse share an order, so only ordinals j with
    j <= inv_ordinal[j] are scanned, each counted twice when it is not its
    own inverse; the other element of the pair is stepped once, as its
    weight @ M must be the start.  From level 1 on, a matrix entry beyond
    the largest coroot coefficient, an iterate beyond the start's coroot
    bound (`_bounds`) or a step that misses the start is an IntegrityError
    naming the level and the ordinal.  The pairing is used and the classes
    are not, so the partition cross-checks their per-class sums.
    """
    levels = run.levels if isinstance(run, ElementIndex) else run
    counts = np.zeros(DEFAULT_ORDER_BOUND + 1, dtype=np.int64)
    bound = None
    for k, level in enumerate(levels):
        if k == 0:
            start = level.weights[0].astype(np.int64)
        elif k == 1:
            bound, entry = _bounds(start, level_one_cartan(level))
        matrices, inv = level.matrices, level.inv_ordinal
        scanned = np.flatnonzero(np.arange(level.size) <= inv)

        def at(j: int) -> str:
            return f"level {level.index}, record {j}: "

        if k and max(int(matrices.max()), -int(matrices.min())) > entry:
            beyond = np.flatnonzero(((matrices > entry) | (matrices < -entry)).any(axis=(1, 2)))
            raise IntegrityError(f"{at(beyond[0])}a matrix entry lies beyond the largest "
                                 f"coroot coefficient, {entry}; M is not a group element")
        orders = _orders(level.weights[inv[scanned]], matrices[scanned], start, bound,
                         lambda row: at(scanned[row]))
        # Each scanned iterate v_1 was the weight of a partner, so it is in [-B, B].
        partners = np.flatnonzero(np.arange(level.size) > inv)
        back = np.matmul(level.weights[partners, None, :].astype(np.int64),
                         matrices[partners].astype(np.int64))
        missed = np.flatnonzero((back[:, 0] != start).any(axis=1))
        if missed.size:
            raise IntegrityError(f"{at(partners[missed[0]])}its weight @ M = "
                                 f"{back[missed[0], 0].tolist()} is not the start; "
                                 "M is not a group element")
        counts += np.bincount(np.concatenate([orders, orders[inv[scanned] != scanned]]),
                              minlength=counts.size)
    return {p: int(n) for p, n in enumerate(counts.tolist()) if n}


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
