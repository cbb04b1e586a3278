"""Disk persistence for levels plus the whole-run element index.

One text file per level, named ``{prefix}_WeightMatrByLevel_{k}_elems={n}.txt``.
`_record_lines(rank)` states the record grammar once, as %-templates: a
header line

    n={ordinal}, name={word}, w={comma-joined weight}, n_inv={inverse ordinal}

followed by one bracketed list ``[a, b, ...]`` per matrix row.  The identity's
word is a single space on disk and the empty word in memory.  `format_level`
fills the template once per record, and `read_level` accepts exactly what it
writes: UTF-8 with LF line endings, canonical integers (no leading zeros, no
"-0", at most 18 digits so each fits int64) and canonical words.  A loaded
level therefore writes back byte-identically.  Each loaded word must have as
many generators as the level index, each in 1..rank.  `write_level` renames a
finished temporary file into place, so no partial level file is ever seen.
`build_index` keys the elements of a complete run by weight row.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import IntegrityError, ParseError, WeylError
from .orbit import Level, match_rows

_FILE_RE = re.compile(r"^(?P<prefix>.+)_WeightMatrByLevel_(?P<k>\d+)_elems=(?P<n>\d+)\.txt$")
# Canonical fields of the record grammar: %u never carries a sign, and a
# word is one space for the identity or s-prefixed generators joined by dots.
_FIELD_RE = {"%d": r"(0|-?[1-9][0-9]{0,17})", "%u": r"(0|[1-9][0-9]{0,17})", "%s": r"([^,]*)"}
_WORD_RE = re.compile(r" |s[1-9][0-9]*(?:\.s[1-9][0-9]*)*")


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
    if not _WORD_RE.fullmatch(stripped):
        raise ParseError(f"malformed word {text!r}")
    return tuple(map(int, stripped[1:].split(".s")))


def _record_lines(rank: int) -> tuple[str, str]:
    """The record grammar as %-templates: a header line, then `rank` row lines."""
    ints = ["%d"] * rank
    return "n=%u, name=%s, w=" + ",".join(ints) + ", n_inv=%u", "[" + ", ".join(ints) + "]"


def format_level(level: Level) -> str:
    """The exact file body for a level: the record template filled once per element."""
    rank = level.weights.shape[1]
    header, row = _record_lines(rank)
    record = "\n".join([header] + [row] * rank) + "\n"
    # Flat memoryviews hand the template Python ints without a whole-level list.
    w, m, k = memoryview(level.weights.ravel()), memoryview(level.matrices.ravel()), rank * rank
    return "".join(
        record % (j, format_word(word), *w[j * rank:(j + 1) * rank], inv, *m[j * k:(j + 1) * k])
        for j, (word, inv) in enumerate(zip(level.words, level.inv_ordinal.tolist())))


def write_level(level: Level, prefix: str, dir: Path | str) -> LevelFile:
    """Persist a sealed level atomically; empty levels are refused."""
    if level.size == 0:
        raise WeylError(f"refusing to write empty level {level.index}")
    if not level.sealed:
        raise IntegrityError(f"level {level.index} is not sealed")
    directory = Path(dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / level_file_name(prefix, level.index, level.size)
    body = format_level(level)
    # Write under a name no level-file pattern matches, then rename it into
    # place, so that a failed write never leaves a partial level file.
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return LevelFile(path=path, index=level.index, size=level.size)


def read_level(path: Path | str) -> Level:
    """Load a level file, accepting exactly the bytes write_level writes.

    Record j fills the rank + 1 lines from line j*(rank+1) + 1: its header,
    then its matrix rows.  The first line that does not fit its slot is
    reported.  The inverse pointers must be reciprocal, since the level
    derives each inverse matrix from them.
    """
    path = Path(path)
    _, index, size = parse_level_file_name(path)
    if size == 0:
        raise ParseError(f"{path}:1: no records; a level holds at least one element")
    try:  # bytes, so that no CR LF is translated
        lines = path.read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    rank = max(lines[0].count(",") - 2, 1)  # a header holds rank + 2 commas
    header_re, row_re = (re.compile(re.sub("%[dus]", lambda m: _FIELD_RE[m[0]], re.escape(t)))
                         for t in _record_lines(rank))
    step = rank + 1
    body = lines[:min(size * step, len(lines) - 1)]  # the text after the last LF is no line
    rows = body.copy()
    del rows[::step]
    fits = list(map(bool, map(row_re.fullmatch, rows)))
    bad_row = len(rows) if all(fits) else fits.index(False)
    bad_line = bad_row // rank * step + bad_row % rank + 2
    words, fields = [], []
    for j, line in enumerate(body[:bad_line - 1:step]):  # the headers before that row
        at = f"{path}:{j * step + 1}"
        m = header_re.fullmatch(line)
        if not m:
            raise ParseError(f"{at}: malformed header {line!r}")
        if int(m[1]) != j:
            raise IntegrityError(f"{at}: record ordinal {m[1]} out of sequence, expected {j}")
        if not _WORD_RE.fullmatch(m[2]):
            raise ParseError(f"{at}: malformed word {m[2]!r}")
        word = parse_word(m[2])
        if len(word) != index:
            raise ParseError(f"{at}: word of length {len(word)} in level {index}")
        if max(word, default=1) > rank:  # _WORD_RE admits no generator 0
            raise ParseError(f"{at}: word names a generator outside 1..{rank}")
        words.append(word)
        fields.append(m.groups()[2:])
    if bad_row < len(rows):
        raise ParseError(f"{path}:{bad_line}: malformed matrix row {rows[bad_row]!r}, "
                         f"expected a list of {rank} integers")
    if len(body) < size * step:
        raise ParseError(f"{path}:{len(lines)}: truncated file, expected {size} records")
    if lines[size * step:] != [""]:
        raise ParseError(f"{path}:{size * step + 1}: trailing content after {size} records")
    numbers = np.array(fields).astype(np.int64)
    inv = numbers[:, -1]
    if (inv >= size).any():
        raise IntegrityError(f"{path}: inverse ordinal out of range")
    bad = np.flatnonzero(inv[inv] != np.arange(size))
    if bad.size:
        j = int(bad[0])
        raise IntegrityError(
            f"{path}: record {j} has n_inv={inv[j]}, but record {inv[j]} has "
            f"n_inv={inv[inv[j]]}; inverse ordinals must be reciprocal")
    entries = ", ".join(rows).replace("[", "").replace("]", "")
    return Level(
        index=index,
        weights=numbers[:, :-1],
        matrices=np.fromstring(entries, dtype=np.int64, sep=",").reshape(size, rank, rank),
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
                  level_sizes: Sequence[int], elapsed_ms: float,
                  rank: int, start_weight: Sequence[int]) -> Path:
    """Record a run's level sizes and inputs; readers must not require the
    `rank` and `start_weight` keys, which older summaries lack."""
    path = summary_path(dir, prefix)
    payload = {
        "root_system": root_system,
        "levels": [int(n) for n in level_sizes],
        "total": int(sum(level_sizes)),
        "elapsed_ms": float(elapsed_ms),
        "rank": int(rank),
        "start_weight": [int(x) for x in start_weight],
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
