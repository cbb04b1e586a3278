"""Level-by-level enumeration of a Weyl group with same-pass inverse pairing.

Elements are generated as levels L_0, L_1, ... where L_k holds the elements
of reduced word length k, each represented by its weight (the image of the
start weight), its matrix, and its word.  The words of a level are one
``(n, k)`` array of the smallest unsigned dtype that holds the rank,
generators 1..rank with the first letter first, and `Level.word` gives one
as a tuple.  A successor's word is its generator prepended to its source's
row, built for a whole level in one array operation.  A candidate successor
is kept only when the acceptance rule fires, which reaches every element of
the next level exactly once, so no global visited-set is needed.  The
reflection action and that rule are stated once, in :mod:`.kernels`.

Because an element and its inverse share a word length, each level is paired
against itself in the pass that builds it: the weight of the inverse of
element ``w`` equals ``start @ w.matr``, so partners are found by matching
weight rows.  `RowKeys` is that matcher, for pairing and for the whole-run
index alike: it packs each row into integer words (one int64 for the
weights of every built-in system) and looks queries up among the sorted
keys.  This needs a strictly dominant start weight, which makes the
weights within a level distinct.  A `Level` is built once, already paired,
and is immutable.  The pairing alone determines the inverse matrices, so
none is stored: the inverse of element j has matrix ``matrices[inv_ordinal[j]]``.

`generate_group` and the weights-only `generate_orbit` share one walk: one
start check (integral, dominant, strictly so for the group, and a coroot
bound below `ENTRY_LIMIT`), one level loop, and one bound on the level count,
the system's positive-root count; a negative `levels_up_to` is refused.  A
full group run must end at that level with the system's order in total, for
built-in and custom systems alike.  Only a level and its predecessor are
held, and levels are yielded one at a time so callers can stream them to disk.

A walk's arrays are held in the run's dtype, the narrowest signed integer
type that holds the start's coroot bound over `RootSystem.coroots`, which
caps every weight coordinate and matrix entry of the run: int8 for the
default start of every built-in system.  The walk's copy of the Cartan
matrix is cast to it too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .errors import IntegrityError, WeylError
from .rootsystems import RootSystem

# A start with an entry or a coroot bound of this magnitude or more is refused.
# The bound caps every entry of a run, so no level holds one this large, far
# below the int64 overflow threshold of the level step.
ENTRY_LIMIT = 1 << 40

# The run's dtype is the first of these that holds the start's coroot bound.
_RUN_DTYPES = (np.int8, np.int16, np.int32, np.int64)

Weight = Sequence[int]


@dataclass(frozen=True, eq=False)
class Level:
    """All elements of one word length, in discovery order, each with its inverse."""

    weights: np.ndarray          # (n, rank) in the run's dtype; int64 when read from disk
    matrices: np.ndarray         # (n, rank, rank) in the same dtype
    words: np.ndarray            # (n, index) of np.min_scalar_type(rank)
    inv_ordinal: np.ndarray      # (n,) int64; ordinal of each element's inverse

    @property
    def index(self) -> int:  # the word length, read off the words
        return self.words.shape[1]

    @property
    def size(self) -> int:
        return len(self.weights)

    def word(self, j: int) -> tuple[int, ...]:
        """Element j's word as a tuple of Python ints, first letter first."""
        return tuple(self.words[j].tolist())

    def __repr__(self) -> str:
        return f"Level(index={self.index}, size={self.size})"

    def __eq__(self, other: object) -> bool:
        """Structural equality over the stored fields."""
        if not isinstance(other, Level):
            return NotImplemented
        return (np.array_equal(self.words, other.words)
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.matrices, other.matrices)
                and np.array_equal(self.inv_ordinal, other.inv_ordinal))


def check_inverse_ordinals(inv: np.ndarray, where: str) -> None:
    """The inverse rule of a level: each ordinal in 0..size-1, and inv[inv[j]] == j.

    A breach is an IntegrityError whose message starts with `where`."""
    if ((inv < 0) | (inv >= len(inv))).any():
        raise IntegrityError(f"{where}: inverse ordinal out of range")
    bad = np.flatnonzero(inv[inv] != np.arange(len(inv)))
    if bad.size:
        j = int(bad[0])
        raise IntegrityError(
            f"{where}: record {j} has n_inv={inv[j]}, but record {inv[j]} has "
            f"n_inv={inv[inv[j]]}; inverse ordinals must be reciprocal")


@dataclass(frozen=True)
class OrbitLevel:
    """One level of a plain weight orbit: weights only, no group data."""

    index: int
    weights: np.ndarray          # (n, rank) in the run's dtype

    @property
    def size(self) -> int:
        return len(self.weights)


# Each word of a packed key is below this, so it is exact in int64.
_WORD_LIMIT = 1 << 62


class RowKeys:
    """Distinct integer rows packed into int64 keys and sorted, for lookups.

    Each column is offset by its least value, so it takes values in
    0..span-1, and consecutive columns share an int64 word as digits of a
    mixed-radix number while the product of their spans stays within 2**62.
    Equal keys therefore mean equal rows.  The weights of a built-in system
    from the default start fit one word; columns spanning about 2**41
    (entries near the entry limit) take one word each.  Raises
    IntegrityError when two rows are equal.
    """

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows)
        if rows.dtype.kind != "i":
            rows = rows.astype(np.int64)
        # Rows keep their signed dtype, so that only their offsets are int64.
        limits = np.iinfo(rows.dtype)
        self.low = rows.min(axis=0, initial=limits.max).astype(np.int64)
        high = rows.max(axis=0, initial=limits.min).astype(np.int64)
        # Python ints, so that no span or product of spans overflows.
        spans = [max(int(h) - int(l) + 1, 1) for l, h in zip(self.low, high)]
        word_of, place = [], []
        words, product = 0, _WORD_LIMIT + 1  # so that the first column opens a word
        for span in spans:
            if product * span > _WORD_LIMIT:
                words, product = words + 1, 1
            word_of.append(words - 1)
            place.append(product)
            product *= span
        # places[c, k] is column c's place value in word k, zero in every other word.
        self.places = np.zeros((len(spans), words), dtype=np.int64)
        self.places[np.arange(len(spans)), word_of] = place
        self.top = (high - self.low).view(np.uint64)  # span - 1, the largest offset
        keys = self._pack(rows)[1]
        self.order = np.argsort(keys[0]) if words == 1 else np.lexsort(keys[::-1])
        self.sorted = keys[:, self.order]
        same = (self.sorted[:, 1:] == self.sorted[:, :-1]).all(axis=0)
        if same.any():
            first = int(np.argmax(same))
            group = (self.sorted == self.sorted[:, first:first + 1]).all(axis=0)
            a, b = np.sort(self.order[group])[:2]
            raise IntegrityError(
                f"duplicate weights at rows {a} and {b}; "
                "weight matching requires a strictly dominant start weight")

    @property
    def words(self) -> int:
        return self.places.shape[1]

    def _pack(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The offsets of `rows` from the least row values, and their (words, len(rows)) keys.

        Offsets are taken modulo 2**64 (int64 arithmetic wraps): as uint64 an
        offset is at most `top` exactly when the entry is in its column's
        range, and there each word's sum is below 2**62, so exact.  Outside
        the range a key is meaningless.  A column whose span alone exceeds
        2**62 is a word by itself with place 1, where the wrapped offset
        still tells its at most 2**64 values apart.
        """
        offsets = rows - self.low
        return offsets, (offsets @ self.places).T

    def find(self, queries: np.ndarray) -> np.ndarray:
        """Position among the keyed rows of each row of `queries`.

        Raises IntegrityError when a query matches no row.
        """
        offsets, keys = self._pack(np.asarray(queries, dtype=np.int64))
        n = len(self.order)
        if self.words == 1:
            # Sorted queries make searchsorted walk the rows once, in order.
            by_key = np.argsort(keys[0])
            at = np.empty(len(by_key), dtype=np.int64)
            at[by_key] = np.searchsorted(self.sorted[0], keys[0][by_key])
        else:
            # Merge the queries into the sorted rows; a stable sort puts each
            # row before the queries equal to it, so a query's last preceding
            # row is its only possible match.
            merged = np.lexsort(np.concatenate([self.sorted, keys], axis=1)[::-1])
            is_row = merged < n
            last_row = np.maximum.accumulate(np.where(is_row, merged, -1))
            at = np.empty(keys.shape[1], dtype=np.int64)
            at[merged[~is_row] - n] = last_row[~is_row]
        found = np.zeros(len(at), dtype=bool)
        if n:
            at = at.clip(0, n - 1)
            found = (self.sorted[:, at] == keys).all(axis=0)
            beyond = offsets.view(np.uint64) > self.top
            if beyond.any():  # a query outside the rows' range may pack to any key
                found &= ~beyond.any(axis=1)
        missing = np.flatnonzero(~found)
        if missing.size:
            raise IntegrityError(f"query row {missing[0]} has no matching element")
        return self.order[at]


def match_rows(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position in `rows` of each row of `queries`.

    With a strictly dominant start a weight row names exactly one element,
    so this turns weights into element positions.  Raises IntegrityError
    when two rows are equal or a query matches no row.
    """
    return RowKeys(rows).find(queries)


def pair_level_weights(index: int, weights: np.ndarray, matrices: np.ndarray,
                       start: np.ndarray) -> np.ndarray:
    """Inverse ordinals of level `index`, found by weight matching (vectorized).

    The weight of the inverse of element j is start @ matrices[j]; with a
    strictly dominant start the weights within a level are pairwise distinct,
    so row matching recovers the pairing in one shot.
    """
    try:
        inv = match_rows(weights, np.matmul(start, matrices))
    except IntegrityError as exc:
        raise IntegrityError(f"level {index}: {exc}") from None
    check_inverse_ordinals(inv, f"level {index}")
    return inv


def _start_vector(start: Weight, rs: RootSystem, strict: bool) -> np.ndarray:
    """`start` as a new vector in the run's dtype, checked in this order: real
    coordinates, each of magnitude below ENTRY_LIMIT, on Python numbers before
    any int64 conversion; integral coordinates; `rs.rank` of them, at least one;
    dominance, strict if `strict`; a coroot bound below ENTRY_LIMIT.

    The coroot bound is B = max <start, beta^vee> over `rs.coroots`.  For a
    dominant start, coordinate i of w(start) is <start, w^-1 alpha_i^vee>, and
    w^-1 alpha_i^vee is a coroot, so every weight of the orbit lies in [-B, B].
    A group matrix entry is a coroot coefficient, at most B when the start is
    strictly dominant.  The run's dtype is the narrowest signed integer type
    that holds B.
    """
    entries = np.ravel(start).tolist()
    real = all(isinstance(x, numbers.Real) for x in entries)
    if real and any(abs(x) >= ENTRY_LIMIT for x in entries):
        raise WeylError(f"start weight {entries} has an entry of magnitude at least the "
                        f"checked arithmetic bound {ENTRY_LIMIT}")
    if not (real and all(float(x).is_integer() for x in entries)):
        raise WeylError(f"start weight coordinates must be integers, got {entries}")
    arr = np.array(start, dtype=np.int64)
    if arr.shape != (rs.rank,):
        raise WeylError(
            f"start weight needs {rs.rank} coordinates (at least one), got shape {arr.shape}")
    if (arr < int(strict)).any():
        raise WeylError(f"start weight must be {'strictly ' if strict else ''}dominant "
                        f"(all coordinates >= {int(strict)}), got {arr.tolist()}")
    # Exact below rank 2**20: entries are below 2**40, coroot coefficients at most 6.
    bound = int((rs.coroots @ arr).max())
    if bound >= ENTRY_LIMIT:
        raise WeylError(f"start weight {arr.tolist()} has coroot bound {bound}, at least "
                        f"the checked arithmetic bound {ENTRY_LIMIT}")
    return arr.astype(next(t for t in _RUN_DTYPES if bound <= np.iinfo(t).max))


def _level_zero(arr: np.ndarray) -> Level:
    """Level 0 of a checked start vector, in its dtype."""
    return Level(
        weights=arr[None, :],
        matrices=np.eye(len(arr), dtype=arr.dtype)[None],
        words=np.zeros((1, 0), dtype=np.min_scalar_type(len(arr))),
        inv_ordinal=np.zeros(1, dtype=np.int64),
    )


def build_next_level(current: Level, rs: RootSystem) -> Level:
    """Construct the successor of a level, paired with its inverses.

    Sources are scanned in stored order and generators in ascending order;
    survivors of the acceptance rule are appended in discovery order with
    word = generator prepended to the source's word.  The new level keeps the
    dtype of `current`, and the Cartan matrix is cast to it.
    """
    index = current.index + 1
    cartan = rs.cartan.astype(current.weights.dtype)
    new_w, new_m, src, gen0 = kernels.step_level(current.weights, current.matrices, cartan)
    start = current.weights[0] @ current.matrices[0]
    return Level(
        weights=new_w,
        matrices=new_m,
        words=np.concatenate(
            [(gen0 + 1).astype(current.words.dtype)[:, None], current.words[src]], axis=1),
        inv_ordinal=pair_level_weights(index, new_w, new_m, start),
    )


def _walk(rs: RootSystem, first, step, levels_up_to: int | None) -> Iterator:
    """Yield `first`, then each level `step` makes from the one before, until one is
    empty or level `levels_up_to` is out.  A level longer than the longest element
    of `rs` is an IntegrityError."""
    if levels_up_to is not None and levels_up_to < 0:
        raise WeylError(f"levels_up_to must be at least 0, got {levels_up_to}")
    limit = rs.n_positive_roots + 1
    level = first
    yield level
    while levels_up_to is None or level.index < levels_up_to:
        level = step(level)
        if level.size == 0:
            return
        if level.index >= limit:
            raise IntegrityError(f"exceeded {limit} levels, more than the longest element "
                                 "has; the enumeration is corrupted")
        yield level


def generate_group(rs: RootSystem, start: Weight | None = None,
                   levels_up_to: int | None = None) -> Iterator[Level]:
    """Yield the levels L_0..L_N of the full group, each paired.

    The start weight defaults to all-ones and must be strictly dominant so
    that weights stay in bijection with elements.  A full run is checked
    against the system's root count and group order, and for the singleton top
    level; `levels_up_to` truncates the run and skips those checks.
    """
    start = _start_vector([1] * rs.rank if start is None else start, rs, strict=True)
    total = 0
    for level in _walk(rs, _level_zero(start),
                       lambda level: build_next_level(level, rs), levels_up_to):
        if (level.weights == 0).any():
            raise IntegrityError(f"level {level.index}: zero weight coordinate on a regular orbit")
        total += level.size
        yield level
    if levels_up_to is not None:
        return
    if level.index != rs.n_positive_roots:
        raise IntegrityError(f"run ended at level {level.index}, expected {rs.n_positive_roots}")
    if total != rs.order:
        raise IntegrityError(f"enumerated {total} elements, expected {rs.order}")
    if level.size != 1:
        raise IntegrityError(
            f"top level holds {level.size} elements, expected the longest element alone")


def generate_orbit(rs: RootSystem, mu: Weight,
                   levels_up_to: int | None = None) -> Iterator[OrbitLevel]:
    """Yield the levels of the orbit of a dominant weight, weights only.

    Works for weights on chamber walls too; the acceptance rule still visits
    each orbit point exactly once.  Inverse pairing is not attempted: on a
    wall, distinct group elements share weights, so weight rows identify
    orbit points rather than elements.
    """
    start = _start_vector(mu, rs, strict=False)
    cartan = rs.cartan.astype(start.dtype)

    def step(level: OrbitLevel) -> OrbitLevel:
        weights, _, _ = kernels.step_orbit(level.weights, cartan)
        return OrbitLevel(index=level.index + 1, weights=weights)

    yield from _walk(rs, OrbitLevel(index=0, weights=start[None, :]), step, levels_up_to)
