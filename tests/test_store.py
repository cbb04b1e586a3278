from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from concurrent import futures
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import weylenum as we
from weylenum import IntegrityError, ParseError, WeylError
from weylenum import kernels, store


def _body(level):
    """A level's file bytes: `format_level`'s compacted blocks, joined."""
    return b"".join(store.format_level(level))


def test_level_file_name_round_trip():
    name = store.level_file_name("D4", 2, 9)
    assert name == "D4_WeightMatrByLevel_2_elems=9.txt"
    assert store.parse_level_file_name(name) == ("D4", 2, 9)


def test_parse_level_file_name_rejects_others():
    with pytest.raises(ParseError):
        store.parse_level_file_name("D4_summary.json")
    with pytest.raises(ParseError):
        store.parse_level_file_name("D4_WeightMatrByLevel_x_elems=9.txt")


def test_format_word():
    assert store.format_word(()) == " "
    assert store.format_word((2, 1)) == "s2.s1"
    assert store.format_word((10, 3)) == "s10.s3"


@pytest.mark.parametrize("text, expected", [
    (" ", ()), ("", ()), ("s1", (1,)), ("s2.s1", (2, 1)),
    ("s4.s3.s2.s10", (4, 3, 2, 10)),
])
def test_parse_word_round_trip(text, expected):
    assert store.parse_word(text) == expected
    assert store.parse_word(store.format_word(expected)) == expected


@pytest.mark.parametrize("bad", ["x2.s1", "s2,s1", "s", "2", "s2..s1", "s-1"])
def test_parse_word_rejects(bad):
    with pytest.raises(ParseError):
        store.parse_word(bad)


def test_write_and_read_levels_round_trip(tmp_path, d4_levels):
    for level in d4_levels:
        written = store.write_level(level, "D4", tmp_path)
        assert written.index == level.index
        assert written.size == level.size
        loaded = store.read_level(written.path)
        assert loaded == level
        # re-emission is byte-identical
        assert _body(loaded) == written.path.read_bytes()


@st.composite
def _random_levels(draw):
    """A level of random records: its size, rank, word length and entry bound vary."""
    rank = draw(st.sampled_from([1, 2, 4, 7, 10, 12]))
    block = store._BLOCK
    size = draw(st.one_of(st.integers(1, 30),
                          st.sampled_from([block - 1, block, block + 1, 2 * block + 7])))
    length = draw(st.sampled_from([0, 1, 2, 5]))
    bound = draw(st.sampled_from([1, 9, 10, 99, 12345, 2**40 - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        x = rng.integers(-bound, bound, size=shape, endpoint=True)
        x[rng.random(shape) < 0.3] = 0
        x.flat[rng.integers(x.size)] = rng.choice([-bound, bound])
        return x

    return we.Level(
        weights=entries(size, rank), matrices=entries(size, rank, rank),
        words=rng.integers(1, rank, size=(size, length), endpoint=True).astype(
            np.min_scalar_type(rank)),
        inv_ordinal=rng.integers(0, draw(st.sampled_from([1, 10, 10**6])), size=size))


@settings(max_examples=60)
@given(_random_levels())
def test_format_level_matches_template_reference(level):
    assert _body(level) == oracles.format_level_reference(level)


def _involution(size, rng):
    """Reciprocal inverse ordinals: random pairs of records, and one left alone
    when the size is odd."""
    inv = np.arange(size)
    perm = rng.permutation(size)
    a, b = perm[0:size - 1:2], perm[1::2]
    inv[a], inv[b] = b, a
    return inv


def _cpus(count):
    """The package as on a host of `count` CPUs: one thread for both halves, or two."""
    return mock.patch.object(kernels, "_cpus", lambda: count)


@settings(max_examples=40)
@given(_random_levels())
def test_one_cpu_and_two_give_the_same_bytes_and_levels(level):
    level = dataclasses.replace(
        level, inv_ordinal=_involution(level.size, np.random.default_rng(level.size)))
    with _cpus(1):
        one = _body(level)
    with _cpus(2):
        two = _body(level)
    assert one == two == oracles.format_level_reference(level)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / store.level_file_name("X", level.index, level.size)
        path.write_bytes(two)
        for count in (1, 2):
            with _cpus(count):
                assert store.read_level(path) == level


def multi_block_level(size=2 * store._BLOCK + 7):
    """A level of rank 4 and word length 3, that read_level accepts."""
    rank = 4
    rng = np.random.default_rng(7)
    return we.Level(weights=rng.integers(-12, 12, size=(size, rank), endpoint=True),
                    matrices=rng.integers(-12, 12, size=(size, rank, rank), endpoint=True),
                    words=rng.integers(1, rank, size=(size, 3), endpoint=True).astype(np.uint8),
                    inv_ordinal=_involution(size, rng))


@pytest.mark.parametrize("size, cuts", [(store._BLOCK, 0), (store._BLOCK + 1, 3)])
def test_only_a_level_of_more_than_one_block_is_cut_in_two(tmp_path, size, cuts):
    level = multi_block_level(size)
    with _cpus(2), mock.patch.object(kernels, "_in_two", wraps=kernels._in_two) as in_two:
        path = store.write_level(level, "X", tmp_path).path
        assert store.read_level(path) == level
    assert in_two.call_count == cuts  # the write's format, then the read's parse and format


def test_callers_on_many_threads_share_the_one_worker(tmp_path, monkeypatch):
    # more callers than CPUs, switching often, from before the worker is made
    level = multi_block_level(store._BLOCK + 1)
    path = store.write_level(level, "X", tmp_path).path
    body = path.read_bytes()
    made = []

    class Counted(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.002)  # widens the window between the check and the store
            super().__init__(*args, **kwargs)

    callers = futures.ThreadPoolExecutor(4)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(kernels, "_worker", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cpus(2), callers:
            for _ in range(10):
                kernels._worker = None
                start = threading.Barrier(4, timeout=60)

                def together(call, *args):
                    start.wait()
                    return call(*args)

                calls = [callers.submit(together, _body, level) for _ in range(2)]
                calls += [callers.submit(together, store.read_level, path) for _ in range(2)]
                assert [call.result(timeout=60) for call in calls] == [body] * 2 + [level] * 2
    finally:
        sys.setswitchinterval(interval)
        for worker in made:
            worker.shutdown()
    assert len(made) == 10


def test_importing_the_package_makes_no_worker():
    # concurrent.futures costs milliseconds to import; only a split level needs it
    code = "import sys, weylenum; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


def test_a_forked_child_makes_its_own_worker():
    level = multi_block_level()
    with _cpus(2):
        body = _body(level)  # the parent's worker is made
        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(_body(level) != body))
        child.start()
        child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


# Faults past the cut, where read_level parses the second half of the file on
# the worker thread: (the line of record j edited, the edit).
_SECOND_HALF_FAULTS = {
    "ordinal-out-of-sequence": (0, lambda line, j: line.replace(f"n={j}, ", f"n={j + 1}, ")),
    "letter-token": (1, lambda line, j: "[x" + line[line.index(","):]),
    "bare-minus": (1, lambda line, j: "[-" + line[line.index(","):]),
    "minus-zero": (1, lambda line, j: "[-0" + line[line.index(","):]),
    "crlf": (0, lambda line, j: line + "\r"),
}


@pytest.mark.parametrize("fault", list(_SECOND_HALF_FAULTS))
@pytest.mark.parametrize("cpus", [1, 2])
def test_read_level_reports_a_fault_in_the_second_half(tmp_path, fault, cpus):
    level = multi_block_level()
    path = store.write_level(level, "X", tmp_path).path
    lines = path.read_text(encoding="utf-8").split("\n")
    slot, edit = _SECOND_HALF_FAULTS[fault]
    j = level.size - 3
    i = j * 5 + slot
    lines[i] = edit(lines[i], j)
    data = "\n".join(lines).encode()
    assert 0 < data.find(b"\nn=", len(data) // 2) + 1 < len("\n".join(lines[:i]))
    path.write_bytes(data)
    with pytest.raises(WeylError) as expected:
        oracles.read_level_reference(path)
    assert f"elems={level.size}.txt:{i + 1}: " in str(expected.value)
    with _cpus(cpus), pytest.raises(type(expected.value)) as got:
        store.read_level(path)
    assert str(got.value) == str(expected.value)


def _numpy_before_2(monkeypatch):
    """np.fromstring in store as numpy < 2 parses a bad token: it warns, then
    returns the integers before that token.  Gives the threads that warned."""
    warned = []

    def fromstring(text, dtype, sep):
        tokens = text.split()
        good = list(itertools.takewhile(re.compile(rb"-?[0-9]+").fullmatch, tokens))
        if len(good) < len(tokens):
            warned.append(threading.current_thread())
            warnings.warn("string or file could not be read to its end due to unmatched "
                          "data; this will raise a ValueError in the future.",
                          DeprecationWarning)
        return np.array([int(t) for t in good], dtype=dtype)

    monkeypatch.setattr(store.np, "fromstring", fromstring)
    return warned


def _read_with_bad_token(tmp_path, monkeypatch, j, action):
    """Read a split file with a bad token in record j, as numpy < 2 parses it and
    under the caller's filter `action`; the refusal is the one the reference
    gives.  Gives the threads that warned and the categories the caller saw."""
    level = multi_block_level()
    path = store.write_level(level, "X", tmp_path).path
    lines = path.read_text(encoding="utf-8").split("\n")
    slot, edit = _SECOND_HALF_FAULTS["bare-minus"]
    j %= level.size
    i = j * 5 + slot
    lines[i] = edit(lines[i], j)
    path.write_text("\n".join(lines), encoding="utf-8", newline="\n")
    with pytest.raises(ParseError) as expected:
        oracles.read_level_reference(path)
    assert f"elems={level.size}.txt:{i + 1}: malformed matrix row " in str(expected.value)
    warned = _numpy_before_2(monkeypatch)
    with _cpus(2), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(ParseError) as got:
            store.read_level(path)
    assert str(got.value) == str(expected.value)
    return warned, [w.category for w in seen]


def test_read_level_older_numpy_warning_in_the_first_half(tmp_path, monkeypatch):
    warned, seen = _read_with_bad_token(tmp_path, monkeypatch, 3, "always")
    assert warned == [threading.current_thread()]
    assert seen == [DeprecationWarning]


def test_read_level_older_numpy_warning_in_the_second_half(tmp_path, monkeypatch):
    # the worker's warning goes through the caller's filters too
    warned, seen = _read_with_bad_token(tmp_path, monkeypatch, -3, "always")
    assert len(warned) == 1 and warned[0] is not threading.current_thread()
    assert seen == [DeprecationWarning]


def test_read_level_older_numpy_warning_as_an_error(tmp_path, monkeypatch):
    # under the caller's "error" filter the worker raises the warning instead
    warned, seen = _read_with_bad_token(tmp_path, monkeypatch, -3, "error")
    assert len(warned) == 1 and warned[0] is not threading.current_thread()
    assert seen == []


def test_format_level_any_int64():
    least, most = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    level = we.Level(weights=np.array([[least, most], [0, -1]]),
                     matrices=np.array([[[most, 0], [-most, least]], [[1, -10], [10, -9]]]),
                     words=np.array([[2], [1]], dtype=np.uint8), inv_ordinal=np.array([1, 0]))
    body = _body(level)
    assert body == oracles.format_level_reference(level)
    assert body.startswith(
        b"n=0, name=s2, w=-9223372036854775808,9223372036854775807, n_inv=1\n")


def test_read_level_recovers_inverse_matrices(tmp_path, d4_levels):
    written = store.write_level(d4_levels[3], "D4", tmp_path)
    loaded = store.read_level(written.path)
    eye = np.eye(4, dtype=np.int64)
    for j in range(loaded.size):
        assert np.array_equal(loaded.matrices[j] @ loaded.matrices[loaded.inv_ordinal[j]], eye)


def test_identity_word_on_disk(tmp_path, d4_levels):
    written = store.write_level(d4_levels[0], "D4", tmp_path)
    first = written.path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "n=0, name= , w=1,1,1,1, n_inv=0"


def test_level_one_s3_record(tmp_path, d4_levels):
    written = store.write_level(d4_levels[1], "D4", tmp_path)
    text = written.path.read_text(encoding="utf-8")
    assert "n=2, name=s3, w=1,2,-1,1, n_inv=2" in text.splitlines()


def test_write_level_refusals(tmp_path, d4, d4_levels):
    empty = we.Level(weights=np.empty((0, 4), dtype=np.int64),
                     matrices=np.empty((0, 4, 4), dtype=np.int64),
                     words=np.empty((0, 1), dtype=np.uint8),
                     inv_ordinal=np.empty(0, dtype=np.int64))
    with pytest.raises(WeylError, match="empty"):
        store.write_level(empty, "D4", tmp_path)
    unpaired = dataclasses.replace(d4_levels[1], inv_ordinal=np.full(4, -1, dtype=np.int64))
    with pytest.raises(IntegrityError, match="^level 1: inverse ordinal out of range$"):
        store.write_level(unpaired, "D4", tmp_path)
    cycled = dataclasses.replace(d4_levels[1], inv_ordinal=np.array([1, 2, 3, 0]))
    with pytest.raises(IntegrityError, match="^level 1: record 0 has n_inv=1, but record 1 "
                                             "has n_inv=2; inverse ordinals must be reciprocal$"):
        store.write_level(cycled, "D4", tmp_path)
    assert list(tmp_path.iterdir()) == []


def _write_then_mutate(tmp_path, level, transform):
    written = we.write_level(level, "D4", tmp_path)
    text = written.path.read_text(encoding="utf-8")
    written.path.write_text(transform(text), encoding="utf-8", newline="\n")
    return written.path


def test_read_level_malformed_header(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("n=0, ", "n=0; ", 1))
    with pytest.raises(ParseError, match=r":1: malformed header"):
        store.read_level(path)


def test_read_level_out_of_sequence(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("n=1, ", "n=7, ", 1))
    with pytest.raises(IntegrityError, match="out of sequence"):
        store.read_level(path)


def test_read_level_truncated(tmp_path, d4_levels):
    path = _write_then_mutate(
        tmp_path, d4_levels[2],
        lambda t: "".join(t.splitlines(keepends=True)[:-3]))
    with pytest.raises(ParseError, match="truncated"):
        store.read_level(path)


def test_read_level_trailing_garbage(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2], lambda t: t + "leftover\n")
    with pytest.raises(ParseError, match="trailing content"):
        store.read_level(path)


def test_read_level_bad_matrix_row(tmp_path, d4_levels):
    path = _write_then_mutate(
        tmp_path, d4_levels[2],
        lambda t: t.replace("[-1, 1, 0, 0]", "[-1, 1, 0]", 1))
    with pytest.raises(ParseError, match=r"expected a list of 4 integers"):
        store.read_level(path)


def test_read_level_bad_word(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("name=s2.s1", "name=q2.s1", 1))
    with pytest.raises(ParseError, match="malformed word"):
        store.read_level(path)


def test_read_level_word_length_disagrees_with_level(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("name=s2.s1", "name=s2", 1))
    with pytest.raises(ParseError, match=r":1: word of length 1 in level 2"):
        store.read_level(path)


def test_read_level_generator_out_of_range(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("name=s2.s1", "name=s9.s1", 1))
    with pytest.raises(ParseError, match=r":1: word names a generator outside 1\.\.4"):
        store.read_level(path)


def test_read_level_no_records(tmp_path):
    path = tmp_path / store.level_file_name("X", 0, 0)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match=r"elems=0\.txt:1: no records"):
        store.read_level(path)


def test_read_level_inverse_out_of_range(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("n_inv=3", "n_inv=9", 1))
    with pytest.raises(IntegrityError, match="out of range"):
        store.read_level(path)


def test_read_level_inverse_not_reciprocal(tmp_path, d4_levels):
    # record 0 pairs with record 3; pointing it at 5 leaves 3 -> 0 unanswered
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("n_inv=3", "n_inv=5", 1))
    with pytest.raises(IntegrityError,
                       match=r"D4_WeightMatrByLevel_2_elems=9\.txt: record 0 has n_inv=5"):
        store.read_level(path)


# Bytes write_level never writes: each is refused, naming its line.
@pytest.mark.parametrize("old, new, line", [
    ("[-1, 1, 0, 0]", "[True, 1, 0, 0]", 2),
    ("[-1, 1, 0, 0]", "[-1, 1, 0, 0,]", 2),
    ("[-1, 1, 0, 0]", "[-1, 1, 0, 00]", 2),
    ("[-1, 1, 0, 0]", "[-1, 1, 0, -0]", 2),
    ("[-1, 1, 0, 0]", "[-1,1,0,0]", 2),
    ("n=0, ", "n=00, ", 1),
    ("w=1,-2,3,3", "w=1,,-2,3,3", 1),
    ("w=1,-2,3,3", "w=1,-,3,3", 1),
    ("w=-1,3,-1,1", "w=-1,3,,-1,1", 6),
    ("name=s2.s1", "name=s2.s01", 1),
    ("\n", "\r\n", 1),
    ("[-1, 1, 0, 0]", "[-1, 1, 0, 1000000000000000000]", 2),
    ("[-1, 1, 0, 0]", "[-1000000000000000000, 1, 0, 0]", 2),
    ("name=s2.s1", "name=s0.s1", 1),
    ("name=s2.s1", "name=s5.s1", 1),
    ("n_inv=3", "n_inv=-3", 1),
], ids=["bool-entry", "trailing-comma", "leading-zero", "minus-zero", "no-spaces",
        "ordinal-leading-zero", "empty-coordinate", "bare-minus", "empty-coordinate-record-1",
        "word-leading-zero", "crlf", "nineteen-digits", "nineteen-digits-negative",
        "generator-zero", "generator-past-rank", "negative-inverse"])
def test_read_level_rejects_non_canonical_bytes(tmp_path, d4_levels, old, new, line):
    path = _write_then_mutate(tmp_path, d4_levels[2], lambda t: t.replace(old, new))
    with pytest.raises(ParseError, match=rf"elems=9\.txt:{line}: "):
        store.read_level(path)


def test_read_level_older_numpy_parse_warning(tmp_path, d4_levels, monkeypatch):
    # numpy before 2.x warns, rather than raises, on a bad token, and returns
    # the integers read before it
    path = _write_then_mutate(tmp_path, d4_levels[2],
                              lambda t: t.replace("w=1,-2,3,3", "w=1,-,3,3"))
    warned = _numpy_before_2(monkeypatch)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match=r"elems=9\.txt:1: malformed header"):
            store.read_level(path)
    assert [w.category for w in seen] == [DeprecationWarning]
    assert len(warned) == 1


class _HeldRead(threading.Thread):
    """read_level(path) on a thread of its own, held inside store._integers
    (with the `held_reads` fixture) until `finish` releases it."""

    def __init__(self, path):
        super().__init__()
        self.path, self.inside, self.release = path, threading.Event(), threading.Event()
        self.result = None
        self.start()
        assert self.inside.wait(timeout=60)

    def run(self):
        try:
            self.result = store.read_level(self.path)
        except Exception as exc:
            self.result = exc

    def finish(self):
        self.release.set()
        self.join(timeout=60)
        assert not self.is_alive()
        return self.result


@pytest.fixture
def held_reads(monkeypatch):
    integers = store._integers

    def held(data):
        reader = threading.current_thread()
        reader.inside.set()
        reader.release.wait(timeout=60)
        return integers(data)

    monkeypatch.setattr(store, "_integers", held)


def test_a_read_leaves_other_threads_warnings_to_their_filters(tmp_path, d4_levels, held_reads):
    path = store.write_level(d4_levels[2], "D4", tmp_path).path
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        reader = _HeldRead(path)
        try:
            warnings.warn("not the reader's", UserWarning)
        finally:
            level = reader.finish()
    assert [str(w.message) for w in seen] == ["not the reader's"]
    assert level == d4_levels[2]


def test_overlapping_reads_leave_the_warnings_filters_as_they_were(tmp_path, d4_levels,
                                                                  held_reads):
    path = store.write_level(d4_levels[2], "D4", tmp_path).path
    with warnings.catch_warnings():
        before = list(warnings.filters)
        # the later read finishing first (nested), then the earlier one first
        for order in ((1, 0), (0, 1)):
            readers = [_HeldRead(path), _HeldRead(path)]
            assert [readers[i].finish() for i in order] == [d4_levels[2]] * 2
            assert warnings.filters == before, order


def test_read_level_requires_final_line_ending(tmp_path, d4_levels):
    path = _write_then_mutate(tmp_path, d4_levels[2], lambda t: t[:-1])
    with pytest.raises(ParseError, match=r":45: truncated"):
        store.read_level(path)


def test_read_level_rejects_non_utf8(tmp_path, d4_levels):
    written = store.write_level(d4_levels[2], "D4", tmp_path)
    written.path.write_bytes(written.path.read_bytes().replace(b"s2.s1", b"s2.s\xff"))
    with pytest.raises(ParseError, match="not UTF-8"):
        store.read_level(written.path)


def _edit_lines(text, edit):
    lines = text.split("\n")
    edit(lines)
    return "\n".join(lines)


# Faults that shift the lines after them: the first line out of its slot is named.
@pytest.mark.parametrize("edit, line", [
    (lambda ls: ls.insert(3, "[0, 0, 0, 1]"), 6),
    (lambda ls: ls.pop(2), 5),
    (lambda ls: ls.pop(5), 6),
    (lambda ls: ls.insert(5, ""), 6),
], ids=["insert-row-after-3", "delete-line-3", "delete-header-6", "blank-after-record-0"])
def test_read_level_reports_first_line_out_of_slot(tmp_path, d4_levels, edit, line):
    path = _write_then_mutate(tmp_path, d4_levels[2], lambda t: _edit_lines(t, edit))
    with pytest.raises(ParseError, match=rf"elems=9\.txt:{line}: "):
        store.read_level(path)


def _assert_round_trip(tmp_path, name, levels):
    rank = levels[0].weights.shape[1]
    for level in levels:
        written = store.write_level(level, name, tmp_path)
        loaded = store.read_level(written.path)
        assert loaded == level
        assert loaded.words.dtype == np.min_scalar_type(rank)
        assert loaded.words.shape == (level.size, level.index)
        assert _body(loaded) == written.path.read_bytes()


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                                  "C3", "D4", "D5", "D6", "F4", "G2"])
def test_round_trip_every_level(tmp_path, name):
    _assert_round_trip(tmp_path, name, list(we.generate_group(we.root_system(name))))


@pytest.mark.parametrize("name, start", [
    ("G2", (3, 2)), ("B3", (3, 1, 2)), ("F4", (3, 1, 2, 1)),
])
def test_round_trip_custom_start(tmp_path, name, start):
    levels = list(we.generate_group(we.root_system(name), start=start))
    assert max(int(abs(level.weights).max()) for level in levels) >= 10
    _assert_round_trip(tmp_path, name, levels)


@functools.cache
def _level_files():
    """(file name, bytes) of every level of D4, B3 and G2, the identity's included."""
    return [(store.level_file_name(name, level.index, level.size), _body(level))
            for name in ("D4", "B3", "G2")
            for level in we.generate_group(we.root_system(name))]


_GRAMMAR_BYTES = b"0123456789-s.,\n"


@st.composite
def _edited_level_files(draw):
    """A written level file with one to three random one-byte or token edits."""
    name, data = draw(st.sampled_from(_level_files()))
    byte = st.one_of(st.sampled_from(_GRAMMAR_BYTES + b" []=nw"), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "splice"]))
        if kind == "replace":
            data = data[:at] + bytes([draw(byte)]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + bytes([draw(byte)]) + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        else:  # one grammar byte swapped for another: digit, sign, s, dot, comma or LF
            spots = [i for i, b in enumerate(data) if b in _GRAMMAR_BYTES]
            at = spots[draw(st.integers(0, len(spots) - 1))]
            data = data[:at] + bytes([draw(st.sampled_from(_GRAMMAR_BYTES))]) + data[at + 1:]
    return name, data


@settings(max_examples=400)
@given(_edited_level_files())
def test_read_level_agrees_with_reference_on_edited_bytes(named):
    name, data = named
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            expected = oracles.read_level_reference(path)
        except WeylError as exc:
            with pytest.raises(type(exc)) as got:
                store.read_level(path)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        loaded = store.read_level(path)
    assert loaded == expected
    assert _body(loaded) == data


def test_read_level_checks_file_name(tmp_path, d4_levels):
    written = store.write_level(d4_levels[1], "D4", tmp_path)
    odd = tmp_path / "notes.txt"
    odd.write_text(written.path.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(ParseError, match="file name"):
        store.read_level(odd)


def test_find_level_files(tmp_path, d4_levels, a3_levels):
    for level in d4_levels:
        store.write_level(level, "D4", tmp_path)
    for level in a3_levels:
        store.write_level(level, "A3", tmp_path)
    paths = store.find_level_files(tmp_path, "D4")
    assert len(paths) == 13
    assert [store.parse_level_file_name(p)[1] for p in paths] == list(range(13))
    assert all(store.parse_level_file_name(p)[0] == "D4" for p in paths)


def test_find_level_files_gap(tmp_path, d4_levels):
    for level in d4_levels:
        store.write_level(level, "D4", tmp_path)
    (tmp_path / store.level_file_name("D4", 5, 28)).unlink()
    with pytest.raises(IntegrityError, match=r"missing level files for levels \[5\]"):
        store.find_level_files(tmp_path, "D4")


def test_find_level_files_none(tmp_path):
    with pytest.raises(WeylError, match="no level files"):
        store.find_level_files(tmp_path, "D4")


def test_build_index(d4_levels, d4_index):
    assert d4_index.total == 192
    assert d4_index.offsets.tolist()[:4] == [0, 1, 5, 14]
    assert d4_index.offsets[-1] == 192
    assert d4_index.start.tolist() == [1, 1, 1, 1]
    # ordinal 7 of level 5 is element 1 + 4 + 9 + 16 + 23 + 7
    assert d4_index.keys.find(d4_levels[5].weights[7:8]).tolist() == [60]
    assert d4_index.inv[60] == 53 + d4_levels[5].inv_ordinal[7]
    assert np.array_equal(d4_index.inv[d4_index.inv], np.arange(192))


def _replace_level(levels, k, **fields):
    return levels[:k] + [dataclasses.replace(levels[k], **fields)] + levels[k + 1:]


@pytest.mark.parametrize("name", ["D4", "B3", "G2"])
def test_build_index_inverse_ids_agree_with_weight_matching(name):
    # each inverse id is the position of start @ M among all the run's weights
    levels = list(we.generate_group(we.root_system(name)))
    index = we.build_index(we.CheckedRun(we.root_system(name)))
    queries = np.concatenate([index.start @ level.matrices for level in levels])
    weights = np.concatenate([level.weights for level in levels])
    assert np.array_equal(index.inv, we.match_rows(weights, queries))
    assert np.array_equal(index.inv, index.keys.find(queries))


def inverse_ordinal_out_of_range(levels):
    # -1 would pass the weight check by wrapping to the level's last record
    four = levels[4]
    inv = four.inv_ordinal.copy()
    inv[inv == four.size - 1] = -1
    return _replace_level(levels, 4, inv_ordinal=inv)


def _append_self_inverse(levels, k, source, j):
    """`levels` with record j of level `source`, its own inverse, appended to level k."""
    level, copy = levels[k], levels[source]
    assert copy.inv_ordinal[j] == j
    word = np.ones((1, level.index), dtype=level.words.dtype)
    return _replace_level(
        levels, k,
        weights=np.concatenate([level.weights, copy.weights[j:j + 1]]),
        matrices=np.concatenate([level.matrices, copy.matrices[j:j + 1]]),
        words=np.concatenate([level.words, word]),
        inv_ordinal=np.append(level.inv_ordinal, level.size))


def duplicate_weight(levels):
    # a copy of the self-inverse s1 appended to level 2 agrees with its own
    # matrix, so only the uniqueness of weight keys can catch it
    return _append_self_inverse(levels, 2, 1, 0)


def weight_shared_across_levels(levels):
    # the copy comes first: a self-inverse element of level 5 appended to level 3
    j = int(np.flatnonzero(levels[5].inv_ordinal == np.arange(levels[5].size))[0])
    return _append_self_inverse(levels, 3, 5, j)


def weight_disagreeing_with_matrix(levels):
    weights = levels[5].weights.copy()
    weights[7] = -weights[7]
    return _replace_level(levels, 5, weights=weights)


def truncated(levels):
    return levels[:7]


def start_alone(levels):
    # a singleton top level that is not the longest element
    return levels[:1]


def not_the_identity(levels):
    # I + N with start @ N == 0 agrees with the weight check, but is no identity
    matrices = levels[0].matrices.copy()
    matrices[0, 0, 1], matrices[0, 1, 1] = 1, 0
    return _replace_level(levels, 0, matrices=matrices)


def _drop(levels, k, records):
    """`levels` with the given records of level k deleted, the rest renumbered."""
    level = levels[k]
    keep = np.ones(level.size, dtype=bool)
    keep[records] = False
    renumbered = np.cumsum(keep) - 1
    return _replace_level(levels, k, weights=level.weights[keep], matrices=level.matrices[keep],
                          words=level.words[keep],
                          inv_ordinal=renumbered[level.inv_ordinal[keep]])


def missing_pair(levels):
    # every level stays consistent and the top is still the longest element
    # alone, but the run holds 190 of D4's 192 elements
    four = levels[4]
    j = int(np.flatnonzero(four.inv_ordinal != np.arange(four.size))[0])
    return _drop(levels, 4, [j, four.inv_ordinal[j]])


def missing_reflection(levels):
    # s4 deleted from level 1, which no longer gives a Cartan matrix
    return _drop(levels, 1, [3])


# Each tampered D4 run, and the error reading its files raises: the walk
# names the tampered level, and its record where it names one.
TAMPERED_RUNS = {
    "inverse-ordinal-out-of-range": (  # write_level refuses it; read_level names its line
        inverse_ordinal_out_of_range, ParseError,
        r"_4_elems=23\.txt:\d+: malformed header '.*, n_inv=-1'$"),
    "duplicate-weight": (duplicate_weight, IntegrityError,
                         r"^level 2, record 9: .*_2_elems=10\.txt gives elems=10, but the "
                         r"walk's level holds 9$"),
    "weight-shared-across-levels": (weight_shared_across_levels, IntegrityError,
                                    r"^level 3, record 16: .*_3_elems=17\.txt gives elems=17, "
                                    r"but the walk's level holds 16$"),
    "weight-disagreeing-with-matrix": (weight_disagreeing_with_matrix, IntegrityError,
                                       r"^level 5, record 7: its weight in .* is \[.*\], "
                                       r"not the walk's \[.*\]$"),
    "truncated": (truncated, IntegrityError, r"^top level 6 holds 30 element\(s\) and is not "
                                             r"the longest element alone; the run is incomplete$"),
    "start-alone": (start_alone, IntegrityError, r"^top level 0 holds 1 element\(s\)"),
    "not-the-identity": (not_the_identity, IntegrityError,
                         r"^level 0, record 0: its matrix in .* is \[\[1, 1, 0, 0\], "
                         r"\[0, 0, 0, 0\], .*, not the walk's \[\[1, 0, 0, 0\], \[0, 1, 0, 0\], "),
    "missing-pair": (missing_pair, IntegrityError,
                     r"^level 4, record 21: .*_4_elems=21\.txt gives elems=21, but the walk's "
                     r"level holds 23$"),
    "missing-reflection": (missing_reflection, IntegrityError,
                           r"^level 1 holds 3 element\(s\), not 4$"),
}


def _refused(directory, levels, *cases):
    for case in cases:
        tamper, error, message = TAMPERED_RUNS[case]
        out = Path(directory) / case
        with pytest.raises(error, match=message):
            we.build_index(store.read_run(_written_run(out, tamper(levels))))


def test_build_index_rejects_inverse_ordinal_out_of_range(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "inverse-ordinal-out-of-range")


def test_build_index_rejects_duplicate_weight(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "duplicate-weight")


def test_build_index_rejects_weight_shared_across_levels(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "weight-shared-across-levels")


def test_build_index_rejects_weight_disagreeing_with_matrix(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "weight-disagreeing-with-matrix")


def test_build_index_rejects_truncated_run(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "truncated", "start-alone")


def test_build_index_rejects_a_run_not_starting_at_the_identity(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "not-the-identity")


def test_build_index_rejects_a_run_missing_elements(tmp_path, d4_levels):
    _refused(tmp_path, d4_levels, "missing-pair", "missing-reflection")


def test_build_index_sizes():
    assert we.build_index(we.CheckedRun(we.root_system("B3"))).total == 48
    assert we.build_index(we.CheckedRun(we.root_system("A1"))).total == 2
    with pytest.raises(WeylError, match="no levels"):
        we.build_index(store.read_run([]))


def test_summary_round_trip(tmp_path):
    store.write_summary(tmp_path, "D4", [1, 4, 9], 12.5, 4, (1, 2, 1, 1))
    data = store.read_summary(tmp_path, "D4")
    assert set(data) == {"root_system", "levels", "total", "elapsed_ms", "rank",
                         "start_weight"}
    assert data["root_system"] == "D4"
    assert data["levels"] == [1, 4, 9]
    assert data["total"] == 14
    assert data["elapsed_ms"] == 12.5
    assert data["rank"] == 4
    assert data["start_weight"] == [1, 2, 1, 1]


def test_read_summary_missing(tmp_path):
    with pytest.raises(WeylError, match="not found"):
        store.read_summary(tmp_path, "D4")


@pytest.mark.parametrize("body, problem", [
    (b'{\n  "root_system": "D4",\n  "levels": [1', "is not valid JSON"),
    (b"\xff\xfe{}", "is not valid JSON"),
    (b"[1, 4, 9]\n", "holds a JSON list, not an object"),
    (b'{"levels": 5}', "has levels 5, not a list of integers"),
    (b'{"levels": [1, "4"]}', r"has levels \[1, '4'\], not a list of integers"),
    (b'{"levels": [1, true]}', r"has levels \[1, True\], not a list of integers"),
    (b'{"start_weight": "1,1,1,1"}', "has start_weight '1,1,1,1', not a list of integers"),
], ids=["truncated", "not-utf8", "not-an-object", "levels-number", "levels-string-entry",
        "levels-bool-entry", "start-weight-string"])
def test_read_summary_malformed(tmp_path, body, problem):
    store.summary_path(tmp_path, "D4").write_bytes(body)
    with pytest.raises(WeylError, match=f"summary file .*D4_summary.json {problem}"):
        store.read_summary(tmp_path, "D4")


# The run reader: levels 0 and 1 parsed for the start and the Cartan matrix,
# every level walked and its file accepted only when it holds exactly the
# walk's bytes.

def _written_run(directory, levels, prefix="D4"):
    """The files of `levels`, each `format_level`'s bytes under its name, as
    `write_level` writes them but unchecked, so that a level it refuses is
    written too."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for level in levels:
        path = directory / store.level_file_name(prefix, level.index, level.size)
        path.write_bytes(_body(level))
    return store.find_level_files(directory, prefix)


@pytest.mark.parametrize("name, start", [
    ("A1", None), ("G2", None), ("B3", None), ("B3", (3, 1, 2)), ("D4", None), ("F4", None),
])
def test_read_run_gives_the_walks_levels(tmp_path, name, start):
    rs = we.root_system(name)
    levels = list(we.generate_group(rs, start=start))
    run = store.read_run(_written_run(tmp_path, levels, name))
    read = list(run)
    assert read == levels
    # every level is the walk's, in the run dtype
    assert [level.weights.dtype for level in read] == [levels[0].weights.dtype] * len(levels)
    index, want = we.build_index(run), we.build_index(we.CheckedRun(rs, start))
    assert np.array_equal(index.weights, want.weights)
    assert np.array_equal(index.inv, want.inv)
    assert np.array_equal(index.offsets, want.offsets)
    # the run dtype is the narrowest that holds the weights: the start's coroot
    # bound is attained, as coordinate i of w(start) is <start, w^-1 alpha_i^v>
    low, high = int(want.weights.min()), int(want.weights.max())
    narrowest = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                     if np.iinfo(t).min <= low and high <= np.iinfo(t).max)
    assert index.weights.dtype == want.weights.dtype == narrowest


def _swap(level, a, b):
    """`level` with records a and b exchanged, their n= and n_inv renumbered."""
    perm = np.arange(level.size)
    perm[[a, b]] = b, a  # record p is record perm[p] of `level`, and perm is its own inverse
    return dataclasses.replace(level, weights=level.weights[perm],
                               matrices=level.matrices[perm], words=level.words[perm],
                               inv_ordinal=perm[level.inv_ordinal[perm]])


@functools.cache
def _d4_files():
    """(file name, bytes) of every level of D4, and the levels."""
    levels = list(we.generate_group(we.root_system("D4")))
    return [(store.level_file_name("D4", level.index, level.size), _body(level))
            for level in levels], levels


@st.composite
def _canonical_faults(draw):
    """A D4 level past 1 changed so that its file stays canonical, as (level
    index, the changed file's name, its bytes), and the message the walk's
    refusal must match, which names the level, the ordinal and the field."""
    _, levels = _d4_files()
    kind = draw(st.sampled_from(["matrix", "swap", "letter", "elems"]))
    k = draw(st.integers(2, len(levels) - (2 if kind == "swap" else 1)))
    level, rank = levels[k], levels[0].weights.shape[1]
    j = draw(st.integers(0, level.size - 1))
    name = store.level_file_name("D4", k, level.size)
    if kind == "matrix":  # M + N, where N's rows a and b are d e_c and -d e_c: start @ N = 0
        a, b = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
        c, d = draw(st.integers(0, rank - 1)), draw(st.sampled_from([-2, -1, 1, 2]))
        matrices = level.matrices.astype(np.int64)
        matrices[j, a, c] += d
        matrices[j, b, c] -= d
        level, field = dataclasses.replace(level, matrices=matrices), "matrix"
    elif kind == "swap":
        b = draw(st.integers(0, level.size - 1).filter(lambda b: b != j))
        # the first record changed is one of the two, or one whose n_inv names one
        first = min(j, b, *level.inv_ordinal[[j, b]].tolist())
        field = "word" if first in (j, b) else "n_inv"
        level, j = _swap(level, j, b), first
    elif kind == "letter":  # one letter becomes another generator in 1..rank
        at = draw(st.integers(0, k - 1))
        words = level.words.copy()
        words[j, at] = draw(st.integers(1, rank).filter(lambda g: g != words[j, at]))
        level, field = dataclasses.replace(level, words=words), "word"
    else:  # the file renamed to a wrong elems=
        size = draw(st.integers(1, level.size + 3).filter(lambda n: n != level.size))
        name = store.level_file_name("D4", k, size)
        return k, name, _body(level), (
            rf"^level {k}, record {min(size, level.size)}: .*{re.escape(name)} "
            rf"gives elems={size}, but the walk's level holds {level.size}$")
    return k, name, _body(level), (
        rf"^level {k}, record {j}: its {field} in .*{re.escape(name)} is .*, not the walk's ")


@settings(max_examples=200)
@given(_canonical_faults())
def test_read_run_names_a_canonical_record_that_is_not_the_walks(fault):
    k, name, data, message = fault
    files, _ = _d4_files()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (clean_name, clean) in enumerate(files):
            path = Path(tmp) / (name if i == k else clean_name)
            path.write_bytes(data if i == k else clean)
        run = store.read_run(store.find_level_files(tmp, "D4"))
        with pytest.raises(IntegrityError, match=message):
            for level in run:
                assert level.index < k  # every level below is passed on
        with pytest.raises(WeylError, match="^the run has no index: it was refused"):
            we.build_index(run)


def test_a_swapped_pair_passes_the_parsing_reader_but_not_the_walk(tmp_path, d4_levels):
    # two records exchanged, with n= and n_inv renumbered: each file is canonical
    # and obeys the inverse rule, so read_level accepts it as it stands
    four = d4_levels[4]
    j = int(np.flatnonzero(four.inv_ordinal != np.arange(four.size))[0])
    assert j != 5
    levels = d4_levels[:4] + [_swap(four, j, 5)] + d4_levels[5:]
    paths = _written_run(tmp_path, levels)
    assert [store.read_level(p) for p in paths] == levels
    first = min(j, 5, *four.inv_ordinal[[j, 5]].tolist())
    field = "word" if first in (j, 5) else "n_inv"
    with pytest.raises(IntegrityError, match=rf"^level 4, record {first}: its {field} in "):
        we.build_index(store.read_run(paths))


def test_read_run_names_a_level_one_record_that_is_not_the_walks(tmp_path, d4_levels):
    # s1's matrix plus N, whose rows 2 and 3 are e_0 and -e_0: start @ N = 0 and
    # row 0, which gives the Cartan matrix, is kept, so the walk is D4's
    matrices = d4_levels[1].matrices.astype(np.int64)
    matrices[0, 2, 0] += 1
    matrices[0, 3, 0] -= 1
    paths = _written_run(tmp_path, _replace_level(d4_levels, 1, matrices=matrices))
    with pytest.raises(IntegrityError, match=r"^level 1, record 0: its matrix in .*"
                                             r"is \[\[-1, 1, 0, 0\], \[0, 1, 0, 0\], "
                                             r"\[1, 0, 1, 0\], \[-1, 0, 0, 1\]\], not the walk's "
                                             r"\[\[-1, 1, 0, 0\], \[0, 1, 0, 0\], "
                                             r"\[0, 0, 1, 0\], \[0, 0, 0, 1\]\]$"):
        we.build_index(store.read_run(paths))


def test_read_run_refuses_files_out_of_level_order(tmp_path, d4_levels):
    paths = _written_run(tmp_path, d4_levels)
    paths[2], paths[3] = paths[3], paths[2]
    with pytest.raises(IntegrityError, match=r"_3_elems=16\.txt: its name gives level 3, but "
                                             r"the walk is at level 2$"):
        we.build_index(store.read_run(paths))
    # named before levels 0 and 1 are parsed for the start and the Cartan matrix
    with pytest.raises(IntegrityError, match=r"_1_elems=4\.txt: its name gives level 1, but "
                                             r"the walk is at level 0$"):
        store.read_run(paths[1:])


@pytest.mark.parametrize("size, error, message", [
    (1, IntegrityError, r"^level 13, record 0: .*_13_elems=1\.txt gives elems=1, but the "
                        r"walk's level holds 0$"),
    (0, ParseError, r"_13_elems=0\.txt:1: no records"),
])
def test_read_run_refuses_a_file_past_the_longest_element(tmp_path, d4_levels, size, error,
                                                           message):
    paths = _written_run(tmp_path, d4_levels)
    extra = tmp_path / store.level_file_name("D4", 13, size)
    extra.write_bytes(paths[12].read_bytes() if size else b"")
    with pytest.raises(error, match=message):
        we.build_index(store.read_run(store.find_level_files(tmp_path, "D4")))


def test_read_run_names_a_line_out_of_the_grammar_past_level_1(tmp_path, d4_levels):
    # the walk's refusal falls back on read_level, which names the line
    paths = _written_run(tmp_path, d4_levels)
    paths[6].write_bytes(paths[6].read_bytes().replace(b"n=3, ", b"n=03, "))
    with pytest.raises(ParseError, match=r"_6_elems=30\.txt:16: malformed header"):
        we.build_index(store.read_run(paths))


def test_read_run_names_a_level_file_of_another_rank(tmp_path, d4_levels):
    # level 2's name and record count, but rank-3 records: canonical, and not D4's
    two = d4_levels[2]
    paths = _written_run(tmp_path, d4_levels)
    paths[2].write_bytes(_body(we.Level(
        weights=two.weights[:, :3], matrices=two.matrices[:, :3, :3],
        words=np.minimum(two.words, 3), inv_ordinal=two.inv_ordinal)))
    with pytest.raises(IntegrityError, match=r"_2_elems=9\.txt: level 2 holds records of "
                                             r"rank 3, not the run's 4$"):
        we.build_index(store.read_run(paths))


# The level codec's bytes are its compacted blocks, written and compared in
# turn: no write or check holds a level-wide byte string beside them.

@pytest.fixture(scope="module")
def b7_level_25():
    """B7's level 25: 36,336 records, a 10.1 MiB file of 18 blocks."""
    *_, level = we.generate_group(we.root_system("B7"), levels_up_to=25)
    return level


def _traced_on_one_cpu(call, *args):
    """call(*args) and its traced peak, on one CPU: the codec's scratch is then
    one thread's at a time, so the peak does not hang on how two threads meet."""
    with _cpus(1):
        tracemalloc.start()
        try:
            out = call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return out, peak


def _block_of_numbers(level):
    """The bytes of one block of a level's numbers as int64: per record its
    ordinal, weight, n_inv and matrix."""
    rank = level.weights.shape[1]
    return store._BLOCK * (2 + rank + rank * rank) * 8


def test_write_level_holds_no_level_wide_bytes(tmp_path, b7_level_25):
    # Beyond the file's blocks, 5.04 blocks of numbers were measured against
    # this bound of 6; joining the blocks into one bytes made 11.5.
    level = b7_level_25
    assert len(store.format_level(level)) == 18
    written, peak = _traced_on_one_cpu(store.write_level, level, "B7", tmp_path)
    assert written.path.read_bytes() == _body(level)
    assert peak < written.path.stat().st_size + 6 * _block_of_numbers(level)


def test_read_runs_check_of_a_level_holds_no_level_wide_bytes(tmp_path, b7_level_25):
    # read_run's check of one level against its file, with the same bound:
    # 5.04 blocks of numbers were measured beyond the file; holding the file's
    # bytes and the level's joined made 11.5.
    level = b7_level_25
    path = store.write_level(level, "B7", tmp_path).path
    checked, peak = _traced_on_one_cpu(lambda: list(store._matched([path], iter([level]))))
    assert checked == [level]
    assert peak < path.stat().st_size + 6 * _block_of_numbers(level)


@functools.cache
def _b6_levels():
    """B6's levels up to its largest, level 18 of 3,210 records: two blocks."""
    return list(we.generate_group(we.root_system("B6"), levels_up_to=18))


def _leading_zero_in_the_last_row(text):
    """The file's last matrix row with a leading zero on its first integer."""
    *lines, row, end = text.split("\n")
    i = next(i for i, c in enumerate(row) if c.isdigit())
    return "\n".join([*lines, row[:i] + "0" + row[i:], end])


# Files of B6's level 18 that differ from the walk's past its first block, as
# edits of the file's text and the refusal each gets: each still parses to the
# walk's level, so only the byte comparison refuses it.
_TAIL_FAULTS = {
    "one-byte-appended": (lambda text: text + "\n", "trailing content after 3210 records"),
    "cut-in-the-last-block": (lambda text: text[:-2],  # the last row's "]\n"
                              "truncated file, expected 3210 records"),
    "leading-zero-in-the-last-record": (_leading_zero_in_the_last_row, "malformed matrix row"),
}


@pytest.mark.parametrize("fault", list(_TAIL_FAULTS))
@pytest.mark.parametrize("reader", ["read_level", "read_run"])
def test_a_file_differing_past_its_first_block_is_refused(tmp_path, fault, reader):
    levels = _b6_levels()
    paths = _written_run(tmp_path, levels, "B6")
    path = paths[-1]
    edit, message = _TAIL_FAULTS[fault]
    path.write_bytes(edit(path.read_text(encoding="utf-8")).encode())
    assert store._parse_level(path.read_bytes(), 18, 3210) == levels[-1]
    with pytest.raises(ParseError) as expected:
        oracles.read_level_reference(path)
    assert str(expected.value).startswith(f"{path}:") and message in str(expected.value)
    with pytest.raises(ParseError) as got:
        if reader == "read_level":
            store.read_level(path)
        else:
            list(store.read_run(paths))
    assert str(got.value) == str(expected.value)


def test_read_run_names_a_canonical_change_in_a_files_last_record(tmp_path):
    levels = _b6_levels()
    matrices = levels[-1].matrices.copy()
    matrices[-1, 0, 0] += 1
    paths = _written_run(tmp_path, [*levels[:-1], dataclasses.replace(levels[-1],
                                                                       matrices=matrices)], "B6")
    with pytest.raises(IntegrityError, match=rf"^level 18, record 3209: its matrix in "
                                             rf"{re.escape(str(paths[-1]))} is "
                                             rf"\[\[{matrices[-1, 0, 0]}, "):
        list(store.read_run(paths))
