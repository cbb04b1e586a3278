"""Disk persistence for levels plus the whole-run element index.

One text file per level, named ``{prefix}_WeightMatrByLevel_{k}_elems={n}.txt``.
`_record_lines(rank)` states the record grammar once, as %-templates: a
header line

    n={ordinal}, name={word}, w={comma-joined weight}, n_inv={inverse ordinal}

followed by one bracketed list ``[a, b, ...]`` per matrix row.  The identity's
word is a single space on disk and the empty word in memory.  `format_level`
formats a level with array operations, taking its literal pieces from the
template split at the slots, and is the one statement of what is canonical:
UTF-8 with LF line endings, canonical integers (no leading zeros, no "-0", at
most 18 digits so each fits int64) and canonical words.  It gives a level's
bytes as its compacted blocks, never joined: `write_level` writes them in
turn, and every check compares them in turn (`_holds`), so no level holds a
level-wide byte string beside them.  `read_level` parses every integer of a
file in one numpy pass and accepts the file only when the level they make
writes back byte for byte, so a loaded level is exactly what its file says.  A
level or file of more than `_BLOCK` records is formatted or parsed in two
halves, the first on the calling thread and the second on the package's one
worker thread (`kernels._in_two`), which the level step shares; a level of
one block stays on the calling thread.  Each loaded word has as many
generators as the level index, each in 1..rank.  A rejected file is classified
line by line, and the error names its first line out of slot.
`write_level`, `write_summary` and the class report of ``weylenum classes``
rename a finished temporary file into place (`_write_atomically`), so no
partial file is ever seen.
A run is the walk: `CheckedRun` passes on the levels `generate_group` makes,
one at a time, so a consumer can use and drop a level at a time, and it
keeps only each level's weights and inverse ids.  `build_index` assembles
them into the run's `ElementIndex`, keyed by weight row as `keys`.
`read_run` gives the run of a run's files for ``weylenum orders`` and
``classes``: it parses levels 0 and 1 only, for the start and the Cartan
matrix, and accepts each level's file when it holds exactly the bytes
`format_level` writes for the walk's level, read a block at a time, so every
record on disk is the walk's element.  `read_level` still parses any single
file, into int64 arrays.
"""

from __future__ import annotations

import glob
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import kernels
from .errors import IntegrityError, ParseError, WeylError
from .orbit import Level, RowKeys, check_inverse_ordinals, generate_group
from .rootsystems import RootSystem

_FILE_RE = re.compile(r"^(?P<prefix>.+)_WeightMatrByLevel_(?P<k>\d+)_elems=(?P<n>\d+)\.txt$")
# Canonical fields of the record grammar: %u never carries a sign, and a
# word is one space for the identity or s-prefixed generators joined by dots.
_FIELD_RE = {"%d": r"(0|-?[1-9][0-9]{0,17})", "%u": r"(0|[1-9][0-9]{0,17})", "%s": r"([^,]*)"}
_WORD_RE = re.compile(r" |s[1-9][0-9]*(?:\.s[1-9][0-9]*)*")
# Every byte but a digit or "-" becomes a space, which leaves a record's
# integers in template order, separated by spaces.
_NUMBER_BYTES = bytes(b if chr(b) in "0123456789-" else ord(" ") for b in range(256))
# The least magnitude of 19 digits: %d and %u slots hold at most 18.
_CAP = 10**18
# 10^1..10^19, the least magnitudes of 2..20 digits; no int64 has 20.
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# format_level works this many records at a time, which bounds its scratch
# arrays whatever the level size.  The codec works a level or a file of
# more records in two halves, one of them on the package's worker thread.
_BLOCK = 2048


@dataclass(frozen=True)
class LevelFile:
    """A written level: its path plus the metadata encoded in the name."""

    path: Path
    index: int
    size: int


def _file_prefix(prefix: str) -> str:
    """The prefix, once it is known to start a file name in its directory and
    not a path out of it: every name a run writes or reads is built on this."""
    if prefix in ("", ".", "..") or any(c and c in prefix for c in (os.sep, os.altsep, "\0")):
        raise WeylError(f"{prefix!r} cannot prefix a file name: a system name must not be "
                        "empty, '.' or '..', nor hold a path separator or NUL")
    return prefix


def level_file_name(prefix: str, index: int, size: int) -> str:
    return f"{_file_prefix(prefix)}_WeightMatrByLevel_{index}_elems={size}.txt"


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


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """|values| as uint64, exact for every int64: abs keeps -2^63, read back as 2^63."""
    return np.abs(values).view(np.uint64)


def _word_tokens(rank: int) -> np.ndarray:
    """Row g: generator g's word token, padded with 0, then a dot in the last byte."""
    tokens = [format_word((g,)).encode() for g in range(1, rank + 1)]
    table = np.zeros((rank + 1, max(map(len, tokens)) + 1), dtype=np.uint8)
    table[1:, -1] = ord(".")
    for g, token in enumerate(tokens, start=1):
        table[g, :len(token)] = np.frombuffer(token, dtype=np.uint8)
    return table


def format_level(level: Level) -> list[np.ndarray]:
    """The exact file body for a level, formatted with array operations, as
    its compacted blocks: 1-D uint8 arrays whose bytes, in turn, are the file.

    The record template, split at its slots, gives one byte layout per
    level: each literal piece, then each slot at its widest.  A number slot
    holds a sign byte and as many digits as its column's largest magnitude;
    the word slot holds one token per letter, less the last dot.  Records
    are laid out a block at a time in rows of that layout, with 0 in every
    byte a record leaves unused, and one boolean compaction per block drops
    those bytes; no literal, digit or token byte is 0.  The blocks are given
    as they are, in file order, and never joined, so that the file's bytes
    are held once.  A level of more than one block is cut at its middle
    record: the calling thread formats the first half and the package's
    worker thread the second (`kernels._in_two`).
    """
    n, rank = level.weights.shape
    header, row = _record_lines(rank)
    template = "\n".join([header] + [row] * rank) + "\n"
    slots = re.findall("%[dus]", template)
    pieces = [p.encode() for p in re.split("%[dus]", template)]
    word_slot = slots.index("%s")
    # The template's number slots in order: ordinal, weight, n_inv, matrix.
    columns = [np.arange(n)[:, None], level.weights, level.inv_ordinal[:, None],
               level.matrices.reshape(n, -1)]
    top = np.maximum(_magnitudes(np.concatenate([c.min(axis=0, initial=0) for c in columns])),
                     _magnitudes(np.concatenate([c.max(axis=0, initial=0) for c in columns])))
    digits = 1 + (top[:, None] >= _POW10).sum(axis=1)
    tokens = _word_tokens(rank)
    length = level.words.shape[1]
    identity = np.frombuffer(format_word(()).encode(), dtype=np.uint8)
    word_width = length * tokens.shape[1] - 1 if length else identity.size
    widths = np.empty(2 * len(slots) + 1, dtype=np.int64)
    widths[0::2] = [len(p) for p in pieces]
    widths[1::2] = np.insert(digits + 1, word_slot, word_width)
    starts = np.cumsum(widths) - widths
    signs = np.delete(starts[1::2], word_slot)
    word = slice(starts[2 * word_slot + 1], starts[2 * word_slot + 1] + word_width)
    literals = np.frombuffer(b"".join(pieces), np.uint8)
    pieces_at = np.repeat(np.arange(widths.size) % 2 == 0, widths)  # even segments
    # Digits come from repeated division by 10, the longest columns first, so
    # that the columns still holding digits at each place are a prefix.
    order = np.argsort(-digits, kind="stable")
    units = signs[order] + digits[order]  # where each column's last digit goes
    places = [units[:np.count_nonzero(digits > k)] - k for k in range(digits.max())]

    def blocks(lo: int, hi: int) -> list[np.ndarray]:
        """Records lo..hi-1, compacted a block at a time in one scratch of rows."""
        rows = np.empty((min(hi - lo, _BLOCK), widths.sum()), dtype=np.uint8)
        rows[:, pieces_at] = literals
        if not length:
            rows[:, word] = identity
        compacted = []
        for start in range(lo, hi, _BLOCK):
            block = rows[:min(hi - start, _BLOCK)]
            values = np.concatenate([c[start:start + len(block)] for c in columns], axis=1)
            block[:, signs] = (values < 0) * np.uint8(ord("-"))
            quotient = _magnitudes(values)[:, order]
            for k, place in enumerate(places):
                quotient = quotient[:, :len(place)]
                shifted = quotient // 10
                digit = (quotient - shifted * 10).astype(np.uint8) + np.uint8(ord("0"))
                block[:, place] = digit * (quotient > 0) if k else digit  # no leading zeros
                quotient = shifted
            if length:
                letters = np.take(tokens, level.words[start:start + len(block)], axis=0)
                block[:, word] = letters.reshape(len(block), -1)[:, :word_width]
            compacted.append(block[block != 0])
        return compacted

    if n <= _BLOCK:  # one block stays on the calling thread
        return blocks(0, n)
    head, tail = kernels._in_two(blocks, (0, n // 2), (n // 2, n))
    return head + tail


def _holds(parts: Sequence[np.ndarray], file: BinaryIO) -> bool:
    """Whether the binary `file` holds exactly the bytes of `parts` in turn, read
    one part at a time, and nothing after them; it is closed after."""
    with file:
        return all(file.read(part.size) == part.tobytes() for part in parts) and not file.read(1)


def _write_atomically(path: Path, parts: Iterable[bytes | np.ndarray]) -> None:
    """Write `parts` (bytes-like) in turn under a name no level-file or summary
    pattern matches, then rename it into place, so that a failed write never
    leaves a partial file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as file:
            for part in parts:
                file.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_level(level: Level, prefix: str, dir: Path | str) -> LevelFile:
    """Persist a level atomically; empty or unpaired levels are refused."""
    if level.size == 0:
        raise WeylError(f"refusing to write empty level {level.index}")
    check_inverse_ordinals(level.inv_ordinal, f"level {level.index}")
    directory = Path(dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / level_file_name(prefix, level.index, level.size)
    _write_atomically(path, format_level(level))
    return LevelFile(path=path, index=level.index, size=level.size)


def read_level(path: Path | str) -> Level:
    """Load a level file, accepting exactly the bytes write_level writes: the
    file's integers (per record its ordinal, word letters, weight, n_inv and
    matrix) must make a level that `format_level` writes back byte for byte.
    Any other file is classified by `_first_fault`, which names the first
    line out of its slot.  The inverse ordinals must obey the inverse rule,
    since the level derives each inverse matrix from them.
    """
    path = Path(path)
    _, index, size = parse_level_file_name(path)
    if size == 0:
        raise ParseError(f"{path}:1: no records; a level holds at least one element")
    data = path.read_bytes()
    level = _parse_level(data, index, size)
    if level is None or not _holds(format_level(level), io.BytesIO(data)):
        _first_fault(path, data, index, size)
    check_inverse_ordinals(level.inv_ordinal, str(path))
    return level


def _parse_level(data: bytes, index: int, size: int) -> Level | None:
    """The level whose integers `data` holds in template order, or None.

    None when the integers do not parse, do not fill `size` records, or hold
    a value no canonical file has: a word letter outside 1..rank (0 is
    format_level's padding byte), a negative n_inv, or 19 or more digits.
    No warnings filter is set.  On a bad token numpy < 2 warns through the
    caller's filters and returns the integers before it, too few or not
    writing back; under a caller's "error" filter the warning gives None.
    """
    rank = max(data.count(b",", 0, data.find(b"\n")) - 2, 1)  # a header holds rank + 2 commas
    # A file of more than a block is cut after the LF that ends the first record
    # past its middle; the cut falls between two integers, so the halves hold
    # the file's integers between them, in order.
    cut = data.find(b"\nn=", len(data) // 2) + 1 if size > _BLOCK else 0
    try:
        if cut:
            numbers = np.concatenate(kernels._in_two(_integers, (data[:cut],), (data[cut:],)))
        else:
            numbers = _integers(data)
    except (ValueError, DeprecationWarning):
        return None
    if numbers.size != size * (2 + index + rank + rank * rank):
        return None
    records = numbers.reshape(size, -1)
    words = records[:, 1:1 + index]
    inv = records[:, 1 + index + rank]
    if (numbers.min() <= -_CAP or numbers.max() >= _CAP
            or (words < 1).any() or (words > rank).any() or (inv < 0).any()):
        return None
    # Copies, so that the level does not keep the whole parse buffer alive.
    return Level(
        weights=records[:, 1 + index:1 + index + rank].copy(),
        matrices=records[:, 2 + index + rank:].reshape(size, rank, rank).copy(),
        words=words.astype(np.min_scalar_type(rank)),
        inv_ordinal=inv.copy(),
    )


def _integers(data: bytes) -> np.ndarray:
    """Every integer of `data` in order.  A bad token raises ValueError; numpy
    < 2 warns instead and returns the integers before it."""
    return np.fromstring(data.translate(_NUMBER_BYTES), dtype=np.int64, sep=" ")


def _first_fault(path: Path, data: bytes, index: int, size: int) -> NoReturn:
    """Raise the error for the first line of `data` that does not fit its slot.

    Record j fills the rank + 1 lines from line j*(rank+1) + 1: its header,
    then its matrix rows.  Lines are checked in file order, then the line
    count; `read_level` calls this only for a file it did not accept.
    """
    try:  # bytes, so that no CR LF is translated
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    rank = max(lines[0].count(",") - 2, 1)
    header_re, row_re = (re.compile(re.sub("%[dus]", lambda m: _FIELD_RE[m[0]], re.escape(t)))
                         for t in _record_lines(rank))
    step = rank + 1
    body = lines[:min(size * step, len(lines) - 1)]  # the text after the last LF is no line
    for i, line in enumerate(body):
        j, slot = divmod(i, step)
        at = f"{path}:{i + 1}"
        if slot:
            if not row_re.fullmatch(line):
                raise ParseError(f"{at}: malformed matrix row {line!r}, "
                                 f"expected a list of {rank} integers")
            continue
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
    if len(body) < size * step:
        raise ParseError(f"{path}:{len(lines)}: truncated file, expected {size} records")
    if lines[size * step:] != [""]:
        raise ParseError(f"{path}:{size * step + 1}: trailing content after {size} records")
    # Not reached while format_level writes exactly this grammar: a file whose
    # every line fits its slot writes back identically and was accepted.
    raise ParseError(f"{path}: does not write back identically")


def read_run(paths: Sequence[Path | str]) -> CheckedRun:
    """The `CheckedRun` of a run's level files, given in level order, with no
    integer parsed past level 1.

    Levels 0 and 1 are parsed by `read_level`, only for the start and the
    Cartan matrix that level 1's simple reflections give.  The run's levels
    are then those `generate_group` walks from them, each passed on once its
    file is found to hold exactly that level: its name gives the level's
    index and size, and it holds exactly the bytes `format_level` writes for
    it.  So every record on disk is the walk's element.  A file that is not
    the walk's level is an error: `read_level` names a line out of the
    grammar at its path:line, and `_walk_fault` names any other fault by its
    level, ordinal and field.  Files that end before the walk does are an
    incomplete run, and a file past its longest element holds no element of it.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise WeylError("no levels given")
    for k, path in enumerate(paths):
        if (index := parse_level_file_name(path)[1]) != k:
            raise IntegrityError(f"{path}: its name gives level {index}, but the walk is at "
                                 f"level {k}")
    zero = read_level(paths[0])
    if len(paths) == 1:  # every system has a level 1
        raise _incomplete(zero)
    run = CheckedRun(RootSystem("run", level_one_cartan(read_level(paths[1]))),
                     zero.weights[0].tolist())
    run._levels = _matched(paths, run._levels)
    return run


def _incomplete(top: Level) -> IntegrityError:
    return IntegrityError(f"top level {top.index} holds {top.size} element(s) and is not the "
                          "longest element alone; the run is incomplete")


def _matched(paths: list[Path], levels: Iterator[Level]) -> Iterator[Level]:
    """Each level of the walk `levels`, once the next of `paths` is found to
    hold exactly that level.  Only the level last passed on is held while the
    walk makes the next."""
    for k, path in enumerate(paths):
        level = next(levels, None)  # None past the walk's last level
        size = level.size if level else 0
        elems = parse_level_file_name(path)[2]
        if elems != size:  # the first record one of the two lacks
            raise IntegrityError(f"level {k}, record {min(elems, size)}: {path} "
                                 f"gives elems={elems}, but the walk's level holds {size}")
        if not size or not _holds(format_level(level), path.open("rb")):
            _walk_fault(path, read_level(path), level)  # read_level names a line out of slot
        yield level
    if next(levels, None) is not None:
        raise _incomplete(level)


def _walk_fault(path: Path, disk: Level, walked: Level) -> None:
    """Raise the error for the first record of `disk`, read from `path`, that is
    not the walk's record of its place, naming the first field, in file order,
    that differs; return when the two levels are equal."""
    if disk.weights.shape != walked.weights.shape:  # the sizes agree with the name
        raise IntegrityError(f"{path}: level {walked.index} holds records of rank "
                             f"{disk.weights.shape[1]}, not the run's {walked.weights.shape[1]}")
    n = walked.size

    def rows(level: Level) -> tuple[np.ndarray, ...]:  # per field, in file order, a row per record
        return (level.words, level.weights, level.inv_ordinal[:, None],
                level.matrices.reshape(n, -1))

    differ = np.stack([(a != b).any(axis=1) for a, b in zip(rows(disk), rows(walked))])
    if differ.any():
        j = int(np.argmax(differ.any(axis=0)))
        field = int(np.argmax(differ[:, j]))

        def shown(level: Level):
            return (format_word(level.word(j)), level.weights[j].tolist(),
                    int(level.inv_ordinal[j]), level.matrices[j].tolist())[field]

        name = ("word", "weight", "n_inv", "matrix")[field]
        raise IntegrityError(f"level {walked.index}, record {j}: its {name} in {path} "
                             f"is {shown(disk)}, not the walk's {shown(walked)}")


def level_files(dir: Path | str, prefix: str) -> dict[int, Path]:
    """The level files present for a prefix, keyed by level index."""
    found = {}
    for path in Path(dir).glob(f"{glob.escape(_file_prefix(prefix))}_WeightMatrByLevel_*.txt"):
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


def level_one_cartan(level: Level) -> np.ndarray:
    """A run's int64 Cartan matrix from its level 1, which holds the simple
    reflections in ascending order: row i of R_i is ``e_i - cartan[i]``."""
    i = np.arange(level.weights.shape[1])
    if level.size != i.size:
        raise IntegrityError(f"level 1 holds {level.size} element(s), not {i.size}")
    return np.eye(i.size, dtype=np.int64) - level.matrices[i, i]


@dataclass(frozen=True, eq=False)
class ElementIndex:
    """A complete run with every element numbered in (level, ordinal) order.

    Element ``offsets[k] + j`` is ordinal j of level k, and ``keys.find(rows)``
    gives the id of the element of each weight row.  No matrix or word is held.
    """

    weights: np.ndarray      # (N, rank) every element's weight, in the run dtype
    inv: np.ndarray          # (N,) id of each element's inverse
    offsets: np.ndarray      # (levels + 1,) id of each level's first element
    keys: RowKeys            # every element's weight, packed and sorted
    cartan: np.ndarray       # the run's int64 Cartan matrix

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    @property
    def start(self) -> np.ndarray:  # (rank,) the identity's weight
        return self.weights[0]


class CheckedRun:
    """The levels of a complete run, as `generate_group(system, start)` walks
    them, passed on one at a time.

    The walk makes each level from the one below, paired with its inverses,
    and checks the run as a whole after the last: as many levels as
    `system` has positive roots, as many elements as its group, and the
    longest element alone on top.  The run keeps only each level's weights,
    in the run dtype, and its inverse ids, from which `build_index` makes its
    `ElementIndex`.  A run is iterated once: iterating again resumes it.
    """

    def __init__(self, system: RootSystem, start: Sequence[int] | None = None):
        self.system = system
        self._parts: tuple[list, list, list] | None = None  # set once the walk is complete
        self._levels = self._kept(generate_group(system, start))

    def __iter__(self) -> Iterator[Level]:
        return self._levels

    def _kept(self, levels: Iterable[Level]) -> Iterator[Level]:
        weights, inv, offsets = [], [], [0]
        for level in levels:
            weights.append(level.weights)
            inv.append(offsets[-1] + level.inv_ordinal)
            offsets.append(offsets[-1] + level.size)
            yield level
        self._parts = weights, inv, offsets


def build_index(run: CheckedRun) -> ElementIndex:
    """The run's `ElementIndex`, once the levels no consumer has taken are
    walked.  The run gives up its weights and inverse ids to it, so a run gives
    one index; a run refused before its end gives none."""
    for _ in run:
        pass
    if run._parts is None:
        raise WeylError("the run has no index: it was refused, or its index was built")
    (weights, inv, offsets), run._parts = run._parts, None
    weights = np.concatenate(weights)
    return ElementIndex(weights=weights, inv=np.concatenate(inv), offsets=np.array(offsets),
                        keys=RowKeys(weights), cartan=run.system.cartan)


def summary_path(dir: Path | str, prefix: str) -> Path:
    return Path(dir) / f"{_file_prefix(prefix)}_summary.json"


def write_summary(dir: Path | str, prefix: str, level_sizes: Sequence[int],
                  elapsed_ms: float, rank: int, start_weight: Sequence[int]) -> Path:
    """Record a run's level sizes and inputs, atomically; readers must not
    require the `rank` and `start_weight` keys, which older summaries lack."""
    path = summary_path(dir, prefix)
    payload = {
        "root_system": prefix,
        "levels": [int(n) for n in level_sizes],
        "total": int(sum(level_sizes)),
        "elapsed_ms": float(elapsed_ms),
        "rank": int(rank),
        "start_weight": [int(x) for x in start_weight],
    }
    _write_atomically(path, [(json.dumps(payload, indent=2) + "\n").encode()])
    return path


def read_summary(dir: Path | str, prefix: str) -> dict:
    """A run's summary; a missing, malformed or non-object summary is a WeylError,
    and so are `levels` and `start_weight` values that are not lists of integers."""
    path = summary_path(dir, prefix)
    if not path.is_file():
        raise WeylError(f"summary file {path} not found")
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are both
        raise WeylError(f"summary file {path} is not valid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise WeylError(f"summary file {path} holds a JSON {type(summary).__name__}, not an object")
    for key in ("levels", "start_weight"):
        value = summary.get(key, [])
        if not isinstance(value, list) or any(type(x) is not int for x in value):
            raise WeylError(f"summary file {path} has {key} {value!r}, not a list of integers")
    return summary
