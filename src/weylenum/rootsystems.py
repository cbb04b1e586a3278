"""Root systems: a Cartan matrix and what follows from it.

Weights are integer row vectors of coordinates in the fundamental-weight
basis.  Generator i (1-based) sends coordinate k of w to
``w[k] - w[i] * c[i][k]`` where c is the Cartan matrix; :mod:`.kernels`
applies it, and no generator matrix is stored here.  A `RootSystem` is its
Cartan matrix and the one place a matrix is checked: the constructor runs
`validate_cartan`'s structural checks, freezes an int64 copy and computes
its positive coroots once, by closure, which is the finite-type test.  The
rank, the number of positive roots and the group order are read from those,
for built-in and custom systems alike; a walk takes the start's coroot bound
from them too, and casts its copy of the Cartan matrix to the run's dtype.

Families follow the Bourbaki numbering: A/B/C are chains 1..n with the short
root last for B and the long root last for C; in D the fork node n attaches
to node n-2; in E the chain is 1-3-4-5-6(-7(-8)) with node 2 attached to
node 4.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import UnsupportedRootSystem

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANK = {"F": 4, "G": 2}
_NAME_RE = re.compile(r"^([A-G])([0-9]+)$")


def parse_id(name: str) -> tuple[str, int]:
    """Split a name like "D4" into (family, rank), validating the combination."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise UnsupportedRootSystem(
            f"cannot parse root system {name!r}: expected a family letter A-G "
            "followed by the rank, e.g. 'D4'")
    family, rank = m.group(1), int(m.group(2))
    if family == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedRootSystem(f"E{rank} does not exist: E rank must be 6, 7 or 8")
    elif family in _FIXED_RANK:
        if rank != _FIXED_RANK[family]:
            raise UnsupportedRootSystem(
                f"{family}{rank} does not exist: family {family} has rank {_FIXED_RANK[family]} only")
    elif rank < _MIN_RANK[family]:
        raise UnsupportedRootSystem(
            f"{family}{rank} is below the minimal rank {_MIN_RANK[family]} of family {family}")
    return family, rank


def cartan_matrix(name: str) -> np.ndarray:
    """Cartan matrix c[i][j] = <alpha_i, alpha_j> in Bourbaki numbering."""
    family, n = parse_id(name)
    c = 2 * np.eye(n, dtype=np.int64)

    def join(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i - 1, j - 1] = cij
        c[j - 1, i - 1] = cji

    if family in "ABC":
        for i in range(1, n):
            join(i, i + 1)
        if family == "B":
            join(n - 1, n, -2, -1)
        elif family == "C":
            join(n - 1, n, -1, -2)
    elif family == "D":
        for i in range(1, n - 1):
            join(i, i + 1)
        join(n - 2, n)
    elif family == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)):
            join(i, j)
        for i in range(6, n):
            join(i, i + 1)
    elif family == "F":
        join(1, 2)
        join(2, 3, -2, -1)
        join(3, 4)
    elif family == "G":
        join(1, 2, -1, -3)
    return c


def positive_coroots(cartan: np.ndarray) -> np.ndarray:
    """The positive coroots of a Cartan matrix, one int64 row of coefficients on
    the simple coroots each.  Raises UnsupportedRootSystem past 2*rank*rank of
    them, more than any finite system has (B_n and C_n: n*n; E8: 120 < 128).

    Pairing with alpha_i, coroot b goes to ``(cartan @ b)[i]``, so generator i
    sends it to ``b - (cartan @ b)[i] * e_i``.  A positive coroot that is not
    simple is such a reflection of a positive coroot of lesser height, so the
    closure of the simple coroots under the steps that raise the height reaches
    them all.  These are the positive roots of the dual system.  A generalized
    Cartan matrix not of finite type has infinitely many (Kac,
    *Infinite-dimensional Lie algebras*, ch. 4-5), so the cap is passed
    exactly when the matrix is not of finite type.
    """
    rank = len(cartan)
    cap = 2 * rank * rank
    c = cartan.tolist()
    seen = {tuple(int(i == k) for k in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        raised = []
        for b in frontier:
            for i in range(rank):
                pairing = sum(x * y for x, y in zip(c[i], b))
                if pairing < 0:
                    up = b[:i] + (b[i] - pairing,) + b[i + 1:]
                    if up not in seen:
                        seen.add(up)
                        raised.append(up)
        if len(seen) > cap:
            raise UnsupportedRootSystem(
                f"more than {cap} positive coroots; the matrix is not of finite type")
        frontier = raised
    return np.array(sorted(seen), dtype=np.int64)


def validate_cartan(matrix) -> np.ndarray:
    """Check the structure of a generalized Cartan matrix; return an int64 copy.
    Finite type is left to the coroot closure."""
    try:
        arr = np.asarray(matrix)
        # complex, inf, nan and floats past int64, before the cast warns and wraps them
        if arr.dtype.kind == "c" or (arr.dtype.kind == "f" and not (abs(arr) < 2.0**63).all()):
            raise UnsupportedRootSystem("Cartan matrix entries must be integers")
        c = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):  # ragged rows, or an entry no int64 holds
        raise UnsupportedRootSystem("Cartan matrix must be an array of integers that fit "
                                    "int64") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise UnsupportedRootSystem(f"Cartan matrix must be square and nonempty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer) and not np.array_equal(arr, c):
        raise UnsupportedRootSystem("Cartan matrix entries must be integers")
    n = len(c)
    if (np.diag(c) != 2).any():
        raise UnsupportedRootSystem("every Cartan diagonal entry must equal 2")
    off = c[~np.eye(n, dtype=bool)]
    if ((off > 0) | (off < -3)).any():
        raise UnsupportedRootSystem("off-diagonal Cartan entries must lie in {0, -1, -2, -3}")
    if ((c == 0) != (c.T == 0)).any():
        raise UnsupportedRootSystem("c[i][j] = 0 must imply c[j][i] = 0")
    return c


def load_cartan_file(path) -> np.ndarray:
    """Read a Cartan matrix from a text file: the rank, then one row per line.

    Blank lines and lines starting with '#' are ignored.  The matrix is
    returned as parsed; `RootSystem` checks it.
    """
    path = Path(path)
    rows = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append((np.array([int(t) for t in line.split()], dtype=np.int64), lineno))
        except ValueError:
            raise UnsupportedRootSystem(f"{path}:{lineno}: expected integers, got {raw!r}") from None
        except OverflowError:
            raise UnsupportedRootSystem(f"{path}:{lineno}: an entry does not fit int64, "
                                        f"got {raw!r}") from None
    if not rows:
        raise UnsupportedRootSystem(f"{path}: no data lines")
    (first, first_line), rest = rows[0], rows[1:]
    if len(first) != 1:
        raise UnsupportedRootSystem(f"{path}:{first_line}: first data line must hold the rank alone")
    rank = first[0]
    if len(rest) != rank:
        raise UnsupportedRootSystem(f"{path}: expected {rank} matrix rows, found {len(rest)}")
    for row, lineno in rest:
        if len(row) != rank:
            raise UnsupportedRootSystem(f"{path}:{lineno}: expected {rank} entries per row")
    return np.array([row for row, _ in rest], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A finite root system, given by its Cartan matrix; everything else is derived.

    The constructor validates `cartan`, keeps a frozen int64 copy and computes
    its positive coroots once; a matrix not of finite type is refused with
    UnsupportedRootSystem.
    """

    name: str
    cartan: np.ndarray        # (rank, rank) int64, read-only
    coroots: np.ndarray = field(init=False)  # (n_positive_roots, rank) int64, read-only

    def __post_init__(self) -> None:
        cartan = validate_cartan(self.cartan)
        cartan.setflags(write=False)
        coroots = positive_coroots(cartan)
        coroots.setflags(write=False)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "coroots", coroots)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def n_positive_roots(self) -> int:
        """The number of positive roots; the full group has this many levels plus one."""
        return len(self.coroots)

    @property
    def order(self) -> int:
        """The group order, prod(m + 1) over the exponents m.

        The numbers of positive coroots of heights 1, 2, ... form the
        partition dual to the exponents (Kostant; Humphreys, *Reflection
        Groups and Coxeter Groups*, ch. 3), so height h less height h + 1
        counts the exponents equal to h.
        """
        counts = np.bincount(self.coroots.sum(axis=1)).tolist()[1:] + [0]
        return math.prod((h + 1) ** (counts[h - 1] - counts[h])
                         for h in range(1, len(counts)))

    def coroot_bound(self, weight) -> int:
        """B = max |<weight, beta^vee>| over the positive coroots, exactly.  The
        orbit of a dominant weight lies in [-B, B], as coordinate i of w(weight)
        is <weight, w^-1 alpha_i^vee>; a group matrix entry, a coroot
        coefficient, is at most B when the weight is strictly dominant."""
        pairings = self.coroots.astype(object) @ np.asarray(weight).astype(object)
        return max(abs(x) for x in pairings)

    def __repr__(self) -> str:
        return f"RootSystem({self.name!r}, rank={self.rank})"


def root_system(name: str) -> RootSystem:
    """Construct the named root system, e.g. root_system("D4")."""
    family, rank = parse_id(name)
    return RootSystem(f"{family}{rank}", cartan_matrix(name))
