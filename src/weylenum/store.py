"""Disk persistence for levels plus the whole-run element index.

One text file per level, named ``{prefix}_WeightMatrByLevel_{k}_elems={n}.txt``.
Each record is a header line

    n={ordinal}, name={word}, w={comma-joined weight}, n_inv={inverse ordinal}

followed by one bracketed integer list per matrix row.  The identity's word
is a single space on disk and the empty word in memory.  Files are UTF-8
with LF line endings, and a loaded level writes back byte-identically.
Each loaded word must have as many generators as the level index, each in
1..rank.  `build_index` keys the elements of a complete run by weight row.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import IntegrityError, ParseError, WeylError
from .orbit import Level, match_rows

_FILE_RE = re.compile(r"^(?P<prefix>.+)_WeightMatrByLevel_(?P<k>\d+)_elems=(?P<n>\d+)\.txt$")
_HEADER_RE = re.compile(r"^n=(\d+), name=([^,]*), w=([-\d,]*), n_inv=(\d+)$")


@dataclass(frozen=True)
class LevelFile:
    """A written level: its path plus the metadata encoded in the name."""

    path: Path
    index: int
    size: int


def level_file_name(prefix: str, index: int, size: int) -> str:
    return f"{prefix}_WeightMatrByLevel_{index}_elems={size}.txt"


def parse_level_file_name(path: Path | str) -> tuple[str, int, int]:
    """Split a level file name into (prefix, level index, element count)."""
    name = Path(path).name
    m = _FILE_RE.match(name)
    if not m:
        raise ParseError(f"{name}: file name does not match the level pattern")
    return m.group("prefix"), int(m.group("k")), int(m.group("n"))


def format_word(word: Sequence[int]) -> str:
    """Render a word for a file header: 's2.s1' for (2, 1), one space for the identity."""
    if not word:
        return " "
    return ".".join(f"s{g}" for g in word)


def parse_word(text: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        return ()
    parts = stripped.split(".")
    if not all(p.startswith("s") and p[1:].isdigit() for p in parts):
        raise ParseError(f"malformed word {text!r}")
    return tuple(int(p[1:]) for p in parts)


def format_level(level: Level) -> str:
    """The exact file body for a level."""
    chunks = []
    for j in range(level.size):
        header = (f"n={j}, name={format_word(level.words[j])}, "
                  f"w={','.join(str(int(x)) for x in level.weights[j])}, "
                  f"n_inv={int(level.inv_ordinal[j])}")
        chunks.append(header)
        for row in level.matrices[j]:
            chunks.append("\n" + str(row.tolist()))
        chunks.append("\n")
    return "".join(chunks)


def write_level(level: Level, prefix: str, dir: Path | str) -> LevelFile:
    """Persist a sealed level; empty levels are refused."""
    if level.size == 0:
        raise WeylError(f"refusing to write empty level {level.index}")
    if not level.sealed:
        raise IntegrityError(f"level {level.index} is not sealed")
    directory = Path(dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / level_file_name(prefix, level.index, level.size)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_level(level))
    return LevelFile(path=path, index=level.index, size=level.size)


def read_level(path: Path | str) -> Level:
    """Load a level file written by write_level.

    The inverse pointers must be reciprocal, since the level derives each
    inverse matrix from them.
    """
    path = Path(path)
    m = _FILE_RE.match(path.name)
    if not m:
        raise ParseError(f"{path.name}: file name does not match the level pattern")
    index, size = int(m.group("k")), int(m.group("n"))
    if size == 0:
        raise ParseError(f"{path}:1: no records; a level holds at least one element")
    lines = path.read_text(encoding="utf-8").splitlines()
    words: list[tuple[int, ...]] = []
    weights: list[list[int]] = []
    matrices: list[list[list[int]]] = []
    inv_ordinal: list[int] = []
    rank: int | None = None
    pos = 0
    for j in range(size):
        if pos >= len(lines):
            raise ParseError(f"{path}:{len(lines)}: truncated file, expected {size} records")
        header = _HEADER_RE.match(lines[pos])
        if not header:
            raise ParseError(f"{path}:{pos + 1}: malformed header {lines[pos]!r}")
        if int(header.group(1)) != j:
            raise IntegrityError(
                f"{path}:{pos + 1}: record ordinal {header.group(1)} out of sequence, expected {j}")
        try:
            word = parse_word(header.group(2))
        except ParseError as exc:
            raise ParseError(f"{path}:{pos + 1}: {exc}") from None
        coords = [int(t) for t in header.group(3).split(",") if t]
        if rank is None:
            rank = len(coords)
        if len(coords) != rank:
            raise ParseError(f"{path}:{pos + 1}: expected {rank} weight coordinates")
        if len(word) != index:
            raise ParseError(f"{path}:{pos + 1}: word of length {len(word)} in level {index}")
        if not all(1 <= g <= rank for g in word):
            raise ParseError(f"{path}:{pos + 1}: word names a generator outside 1..{rank}")
        words.append(word)
        weights.append(coords)
        inv_ordinal.append(int(header.group(4)))
        pos += 1
        rows = []
        for r in range(rank):
            if pos >= len(lines):
                raise ParseError(f"{path}:{len(lines)}: truncated matrix in record {j}")
            try:
                row = ast.literal_eval(lines[pos])
            except (ValueError, SyntaxError):
                raise ParseError(f"{path}:{pos + 1}: malformed matrix row {lines[pos]!r}") from None
            if not isinstance(row, list) or len(row) != rank \
                    or not all(isinstance(x, int) for x in row):
                raise ParseError(f"{path}:{pos + 1}: expected a list of {rank} integers")
            rows.append(row)
            pos += 1
        matrices.append(rows)
    if pos != len(lines):
        raise ParseError(f"{path}:{pos + 1}: trailing content after {size} records")
    inv = np.asarray(inv_ordinal, dtype=np.int64)
    if ((inv < 0) | (inv >= size)).any():
        raise IntegrityError(f"{path}: inverse ordinal out of range")
    bad = np.flatnonzero(inv[inv] != np.arange(size))
    if bad.size:
        j = int(bad[0])
        raise IntegrityError(
            f"{path}: record {j} has n_inv={inv[j]}, but record {inv[j]} has "
            f"n_inv={inv[inv[j]]}; inverse ordinals must be reciprocal")
    return Level(
        index=index,
        weights=np.asarray(weights, dtype=np.int64),
        matrices=np.asarray(matrices, dtype=np.int64),
        words=words,
        inv_ordinal=inv,
    )


def level_files(dir: Path | str, prefix: str) -> dict[int, Path]:
    """The level files present for a prefix, keyed by level index."""
    found = {}
    for path in Path(dir).glob(f"{prefix}_WeightMatrByLevel_*.txt"):
        m = _FILE_RE.match(path.name)
        if m and m.group("prefix") == prefix:
            found[int(m.group("k"))] = path
    return found


def find_level_files(dir: Path | str, prefix: str) -> list[Path]:
    """All level files for a prefix, sorted by level index; gaps are an error."""
    directory = Path(dir)
    found = level_files(directory, prefix)
    if not found:
        raise WeylError(f"no level files for prefix {prefix!r} in {directory}")
    top = max(found)
    missing = [k for k in range(top + 1) if k not in found]
    if missing:
        raise IntegrityError(f"missing level files for levels {missing} in {directory}")
    return [found[k] for k in range(top + 1)]


@dataclass(frozen=True, eq=False)
class ElementIndex:
    """A complete run with every element numbered in (level, ordinal) order.

    Element ``offsets[k] + j`` is ordinal j of level k.  Its weight row is
    ``weights[id]`` and names it uniquely, so weight rows serve as keys.
    """

    levels: tuple[Level, ...]
    start: np.ndarray        # (rank,) the identity's weight
    weights: np.ndarray      # (N, rank) every element's weight, stacked
    inv: np.ndarray          # (N,) id of each element's inverse
    offsets: np.ndarray      # (len(levels) + 1,) id of each level's first element

    @property
    def total(self) -> int:
        return len(self.weights)


def build_index(levels: Iterable[Level]) -> ElementIndex:
    """Number every element of a complete run and check its weight keys.

    Each weight must agree with its matrix, start @ M == weights[inv_ordinal],
    and no two elements may share a weight; that makes a weight row as sound
    a key as the matrix itself.  A truncated run is refused: only the
    longest element sends the strictly dominant start to a strictly negative
    weight, so the top level must be that element alone.
    """
    levels = tuple(levels)
    if not levels:
        raise WeylError("no levels given")
    start = levels[0].weights[0]
    top = levels[-1]
    if top.size != 1 or (top.weights[0] >= 0).any():
        raise IntegrityError(
            f"top level {top.index} holds {top.size} element(s) and is not the longest "
            "element alone; the run is incomplete")
    queries = []
    for level in levels:
        q = np.matmul(start, level.matrices)
        bad = np.flatnonzero((q != level.weights[level.inv_ordinal]).any(axis=1))
        if bad.size:
            raise IntegrityError(
                f"level {level.index}, record {bad[0]}: start @ M = {q[bad[0]].tolist()} "
                f"disagrees with the weight of its inverse, record {level.inv_ordinal[bad[0]]}")
        queries.append(q)
    offsets = np.cumsum([0] + [level.size for level in levels])
    weights = np.concatenate([level.weights for level in levels])
    inv = match_rows(weights, np.concatenate(queries))
    return ElementIndex(levels=levels, start=start, weights=weights, inv=inv,
                        offsets=offsets)


def summary_path(dir: Path | str, prefix: str) -> Path:
    return Path(dir) / f"{prefix}_summary.json"


def write_summary(dir: Path | str, prefix: str, root_system: str,
                  level_sizes: Sequence[int], elapsed_ms: float) -> Path:
    path = summary_path(dir, prefix)
    payload = {
        "root_system": root_system,
        "levels": [int(n) for n in level_sizes],
        "total": int(sum(level_sizes)),
        "elapsed_ms": float(elapsed_ms),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return path


def read_summary(dir: Path | str, prefix: str) -> dict:
    path = summary_path(dir, prefix)
    if not path.is_file():
        raise WeylError(f"summary file {path} not found")
    with open(path, encoding="utf-8") as f:
        return json.load(f)
