"""Independent cross-checks used by the tests only.

Each oracle recomputes something the package also knows, but by a different
route: level sizes come from the length generating function expanded with
sympy, the reflection action is replayed on explicit root vectors in
Euclidean space with Fraction arithmetic, D_n words are replayed as signed
permutations (one generator at a time, and as arrays), conjugates come from
the elements' matrices, and orbits and closures are built by brute force
with plain-dict bookkeeping.  Nothing here imports from the package except
`read_level_reference`, which returns the package's `Level` and raises its
errors so that a test can compare outcomes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import sympy

_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def degrees(family: str, rank: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of the reflection group."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _EXCEPTIONAL_DEGREES[(family, rank)]


def length_generating_coefficients(degs) -> list[int]:
    """Coefficients of prod_d (q^d - 1)/(q - 1), lowest power first.

    Coefficient k counts the elements of reduced word length k.
    """
    q = sympy.Symbol("q")
    poly = sympy.prod(sum(q**j for j in range(d)) for d in degs)
    return [int(c) for c in reversed(sympy.Poly(sympy.expand(poly), q).all_coeffs())]


def poincare_level_sizes(family: str, rank: int) -> list[int]:
    return length_generating_coefficients(degrees(family, rank))


def solve_linear(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly over the rationals (Gauss, partial pivot)."""
    n = len(rhs)
    aug = [[Fraction(matrix[r][c]) for c in range(n)] + [Fraction(rhs[r])]
           for r in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def simple_roots(family: str, rank: int) -> list[tuple[Fraction, ...]]:
    """Simple roots as explicit vectors, Bourbaki numbering.

    B_n sits in R^n with the short root e_n last, C_n with 2*e_n last, D_n
    forks through e_{n-1}+e_n, G2 lives in the sum-zero plane of R^3, F4 in
    R^4 with a half-integral root, and E6/E7 are the leading slices of the
    E8 realization in R^8.
    """
    F = Fraction

    def e(i: int, dim: int) -> tuple[Fraction, ...]:
        return tuple(F(int(k == i)) for k in range(dim))

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    if family == "A":
        dim = rank + 1
        return [minus(e(i, dim), e(i + 1, dim)) for i in range(rank)]
    if family == "B":
        return [minus(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)] \
            + [e(rank - 1, rank)]
    if family == "C":
        return [minus(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)] \
            + [tuple(2 * x for x in e(rank - 1, rank))]
    if family == "D":
        return [minus(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)] \
            + [plus(e(rank - 2, rank), e(rank - 1, rank))]
    if family == "G":
        return [(F(1), F(-1), F(0)), (F(-2), F(1), F(1))]
    if family == "F":
        return [minus(e(1, 4), e(2, 4)), minus(e(2, 4), e(3, 4)), e(3, 4),
                (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2))]
    if family == "E":
        first = (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2),
                 F(-1, 2), F(-1, 2), F(-1, 2), F(1, 2))
        second = plus(e(0, 8), e(1, 8))
        chain = [minus(e(i - 2, 8), e(i - 3, 8)) for i in range(3, 9)]
        return ([first, second] + chain)[:rank]
    raise KeyError(family)


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


class EuclideanModel:
    """Reflection action replayed on explicit root vectors.

    Weight coordinates are the pairings 2(v, a_j)/(a_j, a_j) against the
    simple roots a_j; generator i reflects the underlying vector in the
    hyperplane of a_i.  Only dot products of root vectors appear, so this
    is a model of the action that shares no arithmetic with the package.
    """

    def __init__(self, family: str, rank: int) -> None:
        self.roots = simple_roots(family, rank)
        self.rank = rank
        # pairing[j][k] = 2(a_k, a_j)/(a_j, a_j)
        self._pairing = [
            [2 * _dot(self.roots[k], aj) / _dot(aj, aj) for k in range(rank)]
            for aj in self.roots
        ]

    def coords(self, vec) -> tuple[Fraction, ...]:
        return tuple(2 * _dot(vec, a) / _dot(a, a) for a in self.roots)

    def vector_from_coords(self, m):
        """The vector in the root span whose coordinate tuple is m."""
        u = solve_linear(self._pairing, [Fraction(int(x)) for x in m])
        dim = len(self.roots[0])
        return tuple(sum(u[k] * self.roots[k][d] for k in range(self.rank))
                     for d in range(dim))

    def reflect(self, m, i: int) -> tuple[int, ...]:
        """Coordinates of the reflection of weight m by generator i (1-based)."""
        v = self.vector_from_coords(m)
        a = self.roots[i - 1]
        scale = 2 * _dot(v, a) / _dot(a, a)
        image = tuple(x - scale * y for x, y in zip(v, a))
        out = self.coords(image)
        if any(x.denominator != 1 for x in out):
            raise AssertionError(f"non-integral image coordinates {out}")
        return tuple(int(x) for x in out)


@dataclass(frozen=True)
class SignedPermutation:
    """images[i] = j means e_{i+1} -> e_j, with j < 0 for a sign flip."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise ValueError(f"not a signed permutation: {self.images}")

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


def d_generator(n: int, i: int) -> SignedPermutation:
    """Generator i of D_n on e_1..e_n: it swaps e_i and e_{i+1} for i < n, and
    sends e_{n-1} -> -e_n and e_n -> -e_{n-1} for i = n."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    images = {k: k for k in range(1, n + 1)}
    if i < n:
        images[i], images[i + 1] = i + 1, i
    else:
        images[n - 1], images[n] = -n, -(n - 1)
    return SignedPermutation(tuple(images[k] for k in range(1, n + 1)))


def word_to_signed_perm(word, n: int) -> SignedPermutation:
    """A D_n word as one signed permutation, composed one generator at a time
    with the rightmost generator applied first."""
    perm = SignedPermutation.identity(n)
    for g in word:
        perm = perm.compose(d_generator(n, int(g)))
    return perm


def signed_images(words: np.ndarray, n: int) -> np.ndarray:
    """Signed permutations of D_n words, one row per word of generators 1..n,
    replayed as arrays: row k holds the images of e_1..e_n under word k.

    A 0 pads a shorter word and acts as the identity.  Word positions are
    taken left to right, for all rows at once, each composed on the right of
    the product so far, so the rightmost letter acts first.
    """
    if words.size and (words.min() < 0 or words.max() > n):
        bad = words[(words < 0) | (words > n)][0]
        raise ValueError(f"generator index {bad} out of range 1..{n}")
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


def brute_force_orbit(cartan, start) -> set[tuple[int, ...]]:
    """Closure of a weight under all generators, plain-dict bookkeeping."""
    rank = len(cartan)
    first = tuple(int(x) for x in start)
    seen = {first}
    frontier = [first]
    while frontier:
        grown = []
        for w in frontier:
            for i in range(rank):
                img = tuple(w[k] - w[i] * int(cartan[i][k]) for k in range(rank))
                if img not in seen:
                    seen.add(img)
                    grown.append(img)
        frontier = grown
    return seen


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n))
                       for c in range(n)) for r in range(n))


def _identity(n: int):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _reflections(cartan):
    """Generator matrices acting on weight rows: row i of R_i is delta_ik - c[i][k]."""
    n = len(cartan)
    refls = []
    for i in range(n):
        rows = [list(row) for row in _identity(n)]
        for k in range(n):
            rows[i][k] -= int(cartan[i][k])
        refls.append(tuple(tuple(row) for row in rows))
    return refls


def matrix_closure_order(cartan) -> int:
    """Order of the group the reflections generate, by brute-force closure."""
    identity = _identity(len(cartan))
    refls = _reflections(cartan)
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for m in frontier:
            for refl in refls:
                product = _matmul(refl, m)
                if product not in seen:
                    seen.add(product)
                    grown.append(product)
        frontier = grown
    return len(seen)


def step_reference(weights, matrices, cartan):
    """The level step over the whole candidate tensor: (images, matrices, src, gen).

    Every generator's image of every weight row is formed as one (m, n, n)
    array, the acceptance rule masks all of it at once, and each kept
    element's matrix is multiplied by the whole reflection matrix of its
    generator.  ``gen`` is 0-based; the order is source, then generator.
    """
    weights, matrices, cartan = (np.asarray(a, dtype=np.int64)
                                 for a in (weights, matrices, cartan))
    n = weights.shape[1]
    images = weights[:, None, :] - weights[:, :, None] * cartan[None, :, :]
    dont_care = np.tril(np.ones((n, n), dtype=bool))
    tail_ok = ((images >= 0) | dont_care[None, :, :]).all(axis=2)
    src, gen = np.nonzero((weights > 0) & tail_ok)
    refls = np.array(_reflections(cartan.tolist()), dtype=np.int64).reshape(n, n, n)
    return images[src, gen], np.matmul(refls[gen], matrices[src]), src, gen


class PairingDictionary:
    """Map from matrix key to ordinal, for the level under construction.

    Holds, at any moment, the inverse-matrix keys of elements still waiting
    for their partner.  Entries are never removed; once every element is
    paired the dictionary retains exactly one entry per two-element pair,
    i.e. (size - self_inverse_count) / 2 entries.
    """

    def __init__(self) -> None:
        self._slots: dict = {}

    def __len__(self) -> int:
        return len(self._slots)

    def match(self, key):
        """Ordinal that registered this key, or None."""
        return self._slots.get(key)

    def insert(self, key, ordinal: int) -> None:
        prior = self._slots.get(key)
        if prior is not None:
            raise ValueError(
                f"matrix key registered twice (ordinals {prior} and {ordinal}); "
                "elements within a level must be distinct")
        self._slots[key] = ordinal


def pair_level_dict(matrices, words, cartan) -> tuple[list[int], PairingDictionary]:
    """The incremental pairing protocol over one level: (inverse ordinals, dictionary).

    Each element is checked for self-inverseness, then looked up among the
    keys of earlier elements' inverses; on a miss it deposits its own inverse
    key.  An element's inverse matrix is the product of its reversed word
    (every generator is an involution), so only the matrices and words of
    the level are read.
    """
    refls = _reflections(cartan)
    n = len(words)
    identity = _identity(len(cartan))
    inv = [-1] * n
    waiting = PairingDictionary()
    for t in range(n):
        m = tuple(tuple(int(x) for x in row) for row in matrices[t])
        if _matmul(m, m) == identity:
            inv[t] = t
            continue
        partner = waiting.match(m)
        if partner is not None:
            inv[t] = partner
            inv[partner] = t
            continue
        inverse = identity
        for g in reversed(words[t]):
            inverse = _matmul(inverse, refls[g - 1])
        waiting.insert(inverse, t)
    if -1 in inv:
        raise ValueError(f"{inv.count(-1)} elements left unpaired; "
                         "inverses must occur within the same level")
    self_count = sum(1 for t in range(n) if inv[t] == t)
    if 2 * len(waiting) != n - self_count:
        raise ValueError(f"dictionary holds {len(waiting)} entries, "
                         f"expected ({n} - {self_count})/2")
    return inv, waiting


def format_level_reference(level) -> bytes:
    """A level's file body, the record %-template filled once per element.

    The grammar is restated here: a header ``n=%u, name=%s, w=%d,...,%d,
    n_inv=%u`` and one ``[%d, ..., %d]`` line per matrix row.  A word is
    its generators as ``s%d`` joined by dots, and the identity's is a space.
    """
    rank = level.weights.shape[1]
    ints = ["%d"] * rank
    header = "n=%u, name=%s, w=" + ",".join(ints) + ", n_inv=%u"
    record = "\n".join([header] + ["[" + ", ".join(ints) + "]"] * rank) + "\n"
    k = rank * rank
    w, m = memoryview(level.weights.ravel()), memoryview(level.matrices.ravel())
    words = level.words.tolist()
    return "".join(
        record % (j, ".".join(f"s{g}" for g in words[j]) or " ",
                  *w[j * rank:(j + 1) * rank], inv, *m[j * k:(j + 1) * k])
        for j, inv in enumerate(level.inv_ordinal.tolist())).encode()


def read_level_reference(path):
    """Load a level file by matching each line against its slot's pattern.

    The grammar is restated here as in `format_level_reference`.  Record j
    fills the rank + 1 lines from line j*(rank+1) + 1: its header, then its
    matrix rows.  Integers are canonical (no leading zero, no "-0", at most
    18 digits); a word is one space for the identity or s-prefixed
    generators in 1..rank joined by dots, as many as the level index.  The
    first line that does not fit its slot is reported, then a short or long
    file, then inverse ordinals that are out of range or not reciprocal.
    """
    from weylenum import IntegrityError, Level, ParseError

    path = Path(path)
    m = re.fullmatch(r".+_WeightMatrByLevel_(\d+)_elems=(\d+)\.txt", path.name)
    if not m:
        raise ParseError(f"{path.name}: file name does not match the level pattern")
    index, size = int(m[1]), int(m[2])
    if size == 0:
        raise ParseError(f"{path}:1: no records; a level holds at least one element")
    try:
        lines = path.read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    rank = max(lines[0].count(",") - 2, 1)
    signed, unsigned = r"(0|-?[1-9][0-9]{0,17})", r"(0|[1-9][0-9]{0,17})"
    header_re = re.compile(rf"n={unsigned}, name=([^,]*), w="
                           + ",".join([signed] * rank) + rf", n_inv={unsigned}")
    row_re = re.compile(r"\[" + ", ".join([signed] * rank) + r"\]")
    word_re = re.compile(r" |s[1-9][0-9]*(?:\.s[1-9][0-9]*)*")
    step = rank + 1
    body = lines[:min(size * step, len(lines) - 1)]
    rows = body.copy()
    del rows[::step]
    fits = [bool(row_re.fullmatch(row)) for row in rows]
    bad_row = len(rows) if all(fits) else fits.index(False)
    bad_line = bad_row // rank * step + bad_row % rank + 2
    words, fields = [], []
    for j, line in enumerate(body[:bad_line - 1:step]):
        at = f"{path}:{j * step + 1}"
        m = header_re.fullmatch(line)
        if not m:
            raise ParseError(f"{at}: malformed header {line!r}")
        if int(m[1]) != j:
            raise IntegrityError(f"{at}: record ordinal {m[1]} out of sequence, expected {j}")
        if not word_re.fullmatch(m[2]):
            raise ParseError(f"{at}: malformed word {m[2]!r}")
        word = tuple(map(int, m[2][1:].split(".s"))) if m[2] != " " else ()
        if len(word) != index:
            raise ParseError(f"{at}: word of length {len(word)} in level {index}")
        if max(word, default=1) > rank:
            raise ParseError(f"{at}: word names a generator outside 1..{rank}")
        words.append(word)
        fields.append([int(x) for x in m.groups()[2:]])
    if bad_row < len(rows):
        raise ParseError(f"{path}:{bad_line}: malformed matrix row {rows[bad_row]!r}, "
                         f"expected a list of {rank} integers")
    if len(body) < size * step:
        raise ParseError(f"{path}:{len(lines)}: truncated file, expected {size} records")
    if lines[size * step:] != [""]:
        raise ParseError(f"{path}:{size * step + 1}: trailing content after {size} records")
    numbers = np.array(fields, dtype=np.int64)
    inv = numbers[:, -1]
    if (inv >= size).any():
        raise IntegrityError(f"{path}: inverse ordinal out of range")
    bad = np.flatnonzero(inv[inv] != np.arange(size))
    if bad.size:
        j = int(bad[0])
        raise IntegrityError(
            f"{path}: record {j} has n_inv={inv[j]}, but record {inv[j]} has "
            f"n_inv={inv[inv[j]]}; inverse ordinals must be reciprocal")
    matrix = [[int(x) for x in row_re.fullmatch(row).groups()] for row in rows]
    return Level(
        weights=numbers[:, :-1],
        matrices=np.array(matrix, dtype=np.int64).reshape(size, rank, rank),
        words=np.array(words, dtype=np.min_scalar_type(rank)).reshape(size, index),
        inv_ordinal=inv,
    )


def descent_words(weights, cartan) -> np.ndarray:
    """Each weight's word, read off by descent to the dominant start.

    An element's first letter is 1 + the index of its weight's last negative
    coordinate; applying that reflection gives the weight one letter
    shorter, and so on until no coordinate is negative.  All rows of a level
    have the same length, which is returned as the array's width.
    """
    weights = np.array(weights, dtype=np.int64)
    cartan = np.asarray(cartan, dtype=np.int64)
    n, rank = weights.shape
    rows = np.arange(n)
    letters = []
    while (weights < 0).any():
        negative = weights < 0
        if not negative.any(axis=1).all():
            raise ValueError("weights of one level reach the start at different lengths")
        i = rank - 1 - np.argmax(negative[:, ::-1], axis=1)
        letters.append(i + 1)
        weights = weights - weights[rows, i][:, None] * cartan[i]
    return np.array(letters, dtype=np.int64).reshape(-1, n).T


def matrix_orders(matrices, bound: int = 10_000) -> np.ndarray:
    """Each matrix's order by powering: the least p >= 1 with m^p the identity.

    The stack is powered a step at a time, the rows that reached the
    identity dropped, at rank^3 per element per step.  A matrix with no such
    p up to `bound` raises ValueError.
    """
    matrices = np.asarray(matrices, dtype=np.int64)
    eye = np.eye(matrices.shape[-1], dtype=np.int64)
    orders = np.zeros(len(matrices), dtype=np.int64)
    pending = np.arange(len(matrices))
    power = matrices
    for p in range(1, bound + 1):
        done = (power == eye).all(axis=(1, 2))
        orders[pending[done]] = p
        pending, power = pending[~done], power[~done]
        if not pending.size:
            return orders
        power = power @ matrices[pending]
    raise ValueError(f"no power up to {bound} reached the identity")


def matrix_conjugates(levels) -> list[np.ndarray]:
    """For each generator R, the id of R·x·R for every element x of a
    complete run's levels, numbered in (level, ordinal) order, from the
    elements' matrices.

    With a strictly dominant start, start @ M names the element of matrix M,
    so a dict of those rows gives the id of every element's conjugate by R
    from start @ R M R.
    """
    start = levels[0].weights[0].astype(np.int64)
    matrices = np.concatenate([level.matrices for level in levels]).astype(np.int64)
    ids = {row.tobytes(): x for x, row in enumerate(start @ matrices)}
    return [np.array([ids[q.tobytes()] for q in ((start @ refl) @ matrices) @ refl])
            for refl in levels[1].matrices]


def components(maps, total: int) -> set[frozenset[int]]:
    """The connected components of 0..total-1 under the given maps, by
    breadth-first search."""
    seen, parts = set(), set()
    for x in range(total):
        if x in seen:
            continue
        seen.add(x)
        queue, part = [x], []
        while queue:
            y = queue.pop()
            part.append(y)
            for m in maps:
                z = int(m[y])
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        parts.add(frozenset(part))
    return parts
