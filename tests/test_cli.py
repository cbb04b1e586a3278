from __future__ import annotations

import json
import re
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from test_classify import _non_group_record, _tamper
from test_store import TAMPERED_RUNS, _written_run, weight_shared_across_levels
from weylenum import classify, cycletype, orbit, rootsystems, store
from weylenum.cli import EXIT_FAILURE, EXIT_MISMATCH, EXIT_OK, main


@pytest.fixture()
def d4_run(tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "D4", "--out", str(out)]) == EXIT_OK
    return out


def test_generate_writes_files(d4_run, capsys):
    paths = store.find_level_files(d4_run, "D4")
    assert len(paths) == 13
    summary = store.read_summary(d4_run, "D4")
    assert summary["total"] == 192
    assert summary["levels"] == [1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1]
    assert summary["elapsed_ms"] > 0


def test_verify_ok(d4_run, capsys):
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "D4: OK" in out
    assert "golden level-2 file matches" in out


def test_verify_detects_tampered_summary(d4_run, capsys):
    summary = store.read_summary(d4_run, "D4")
    summary["levels"][3] += 1
    path = store.summary_path(d4_run, "D4")
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "level 3: expected 16, got 17" in out


def test_verify_detects_tampered_golden(d4_run, capsys):
    path = d4_run / store.level_file_name("D4", 2, 9)
    body = path.read_text(encoding="utf-8")
    path.write_text(body.replace("w=1,-2,3,3", "w=1,-2,3,4"), encoding="utf-8")
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "golden level-2 file differs at line 1" in out


def test_verify_golden_with_non_utf8_byte_is_a_mismatch(d4_run, capsys):
    path = d4_run / store.level_file_name("D4", 2, 9)
    path.write_bytes(path.read_bytes().replace(b"name=s3.s1", b"name=s3.s\xff"))
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "golden level-2 file differs at line 6: expected "
        "'n=1, name=s3.s1, w=-1,3,-1,1, n_inv=1', got "
        "'n=1, name=s3.s\ufffd, w=-1,3,-1,1, n_inv=1'",
        "D4: FAIL (1 mismatches)",
    ]
    assert captured.err == ""


def test_verify_without_reference_table(tmp_path, capsys):
    out = tmp_path / "a3"
    assert main(["generate", "A3", "--out", str(out)]) == EXIT_OK
    assert main(["verify", "A3", "--out", str(out)]) == EXIT_FAILURE
    assert "no reference table for A3" in capsys.readouterr().err


def test_verify_truncated_run(tmp_path, capsys):
    out = tmp_path / "part"
    assert main(["generate", "D4", "--out", str(out), "--levels-up-to", "2"]) == EXIT_OK
    assert len(store.find_level_files(out, "D4")) == 3
    assert main(["verify", "D4", "--out", str(out)]) == EXIT_MISMATCH


def test_verify_run_cut_before_golden_level(tmp_path, capsys):
    out = tmp_path / "part"
    assert main(["generate", "D4", "--out", str(out), "--levels-up-to", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "D4", "--out", str(out)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "level count: expected 13, got 2",
        "total: expected 192, got 5",
        "level file count: expected 13, got 2",
        "golden level-2 file D4_WeightMatrByLevel_2_elems=9.txt is missing",
        "D4: FAIL (4 mismatches)",
    ]
    assert captured.err == ""


@pytest.mark.parametrize("damage", [
    lambda body: body[:40],
    lambda body: b"[1, 4, 9]\n",
    lambda body: json.dumps({**json.loads(body), "levels": 5}).encode(),
], ids=["truncated", "not-an-object", "levels-number"])
def test_verify_malformed_summary_is_a_failure(d4_run, capsys, damage):
    path = store.summary_path(d4_run, "D4")
    path.write_bytes(damage(path.read_bytes()))
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: summary file {path} ")
    assert captured.out == ""


def test_classes_d4(d4_run, capsys):
    assert main(["classes", "D4", "--out", str(d4_run)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "D4: 13 classes" in out
    assert "order partition 1:1, 2:43, 3:32, 4:84, 6:32" in out
    assert "D4: classes match the published tables" in out
    report = (d4_run / "D4_classes.txt").read_text(encoding="utf-8")
    assert report.count("class ") == 13
    assert "label=D_4(a_1)" in report


def test_classes_d4_replays_each_cycle_type_once(d4_run, monkeypatch, capsys):
    # the report and the published-rows check share one replay per class
    real, calls = cycletype.class_cycle_type, []

    def counted(cls, index):
        calls.append(cls)
        return real(cls, index)

    monkeypatch.setattr(cycletype, "class_cycle_type", counted)
    assert main(["classes", "D4", "--out", str(d4_run)]) == EXIT_OK
    assert "D4: classes match the published tables" in capsys.readouterr().out
    assert len(calls) == 13


def test_classes_json(d4_run, capsys):
    assert main(["classes", "D4", "--out", str(d4_run), "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[:out.rindex("}") + 1])
    assert len(payload["classes"]) == 13
    assert payload["order_partition"] == {"1": 1, "2": 43, "3": 32, "4": 84, "6": 32}


def test_classes_ceiling(d4_run, capsys):
    assert main(["classes", "D4", "--out", str(d4_run), "--ceiling", "100"]) \
        == EXIT_FAILURE
    assert "above the ceiling" in capsys.readouterr().err


def test_orders_and_classes_refuse_truncated_run(tmp_path, capsys):
    out = tmp_path / "part"
    assert main(["generate", "B3", "--out", str(out), "--levels-up-to", "4"]) == EXIT_OK
    capsys.readouterr()
    for command in ("orders", "classes"):
        assert main([command, "B3", "--out", str(out)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "top level 4 holds 8 element(s)" in captured.err
        assert "incomplete" in captured.err
        assert captured.out == ""


def test_orders_rejects_malformed_level_file(d4_run, capsys):
    path = d4_run / store.level_file_name("D4", 2, 9)
    body = path.read_text(encoding="utf-8")
    path.write_text(body.replace("w=1,-2,3,3", "w=1,-,3,3"), encoding="utf-8", newline="\n")
    assert main(["orders", "D4", "--out", str(d4_run)]) == EXIT_FAILURE
    assert "elems=9.txt:1: malformed header" in capsys.readouterr().err


@pytest.mark.parametrize("case", TAMPERED_RUNS)
def test_orders_refuses_what_build_index_refuses(d4_levels, tmp_path, capsys, case):
    # the streamed orders reads the tampered files as build_index does, with
    # the same message
    tamper, _, message = TAMPERED_RUNS[case]
    _written_run(tmp_path, tamper(d4_levels))
    assert main(["orders", "D4", "--out", str(tmp_path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(message, captured.err.removeprefix("error: ").rstrip("\n"))


@pytest.mark.parametrize("case", TAMPERED_RUNS)
def test_classes_refuses_what_build_index_refuses(d4_levels, tmp_path, capsys, case):
    # the streamed classes reads them the same way, and writes no report
    tamper, _, message = TAMPERED_RUNS[case]
    _written_run(tmp_path, tamper(d4_levels))
    assert main(["classes", "D4", "--out", str(tmp_path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(message, captured.err.removeprefix("error: ").rstrip("\n"))
    assert not list(tmp_path.glob("*_classes.txt"))


def _write_run(out, levels):
    for level in levels:
        store.write_level(level, "D4", out)


def test_orders_refuses_two_levels_sharing_a_weight(tmp_path, d4_levels, capsys):
    # the walk refuses row 30, level 3's record 16, which its level 3 lacks; the
    # copy's other place, row 62, is never reached
    _write_run(tmp_path, weight_shared_across_levels(d4_levels))
    assert main(["orders", "D4", "--out", str(tmp_path)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: level 3, record 16: ")
    assert err.endswith("elems=17, but the walk's level holds 16\n")


def test_orders_refuses_a_record_that_is_no_group_element(tmp_path, d4_levels, capsys):
    k, j, m = _non_group_record(d4_levels)
    _write_run(tmp_path, _tamper(d4_levels, k, j, m))
    assert main(["orders", "D4", "--out", str(tmp_path)]) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith(f"error: level {k}, record {j}: its matrix in ")


def test_classes_refuses_a_record_that_is_no_group_element(tmp_path, d4_levels, capsys):
    # the walk names the record as its level is read, and no report is written
    k, j, m = _non_group_record(d4_levels)
    assert (k, j) == (2, 0)
    _write_run(tmp_path, _tamper(d4_levels, k, j, m))
    assert main(["classes", "D4", "--out", str(tmp_path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level 2, record 0: its matrix in ")
    assert f"is {m.tolist()}, not the walk's {d4_levels[2].matrices[0].tolist()}" \
        in captured.err
    assert not (tmp_path / "D4_classes.txt").exists()


def _count_held(monkeypatch) -> tuple[list, list[int]]:
    """Make each level the run reader makes, parsed from its file or walked
    from the level below, record in `alive` how many levels below the one
    just scanned are still held; the walk's empty step past the top makes
    no level.  Gives weak references to the levels made, and `alive`."""
    read, walk, refs, alive = store.read_level, orbit.build_next_level, [], []

    def made(make, just_scanned, *args):
        level = make(*args)
        if level.size:
            alive.append(sum(ref() is not None and ref().index < just_scanned for ref in refs))
            refs.append(weakref.ref(level))
        return level

    monkeypatch.setattr(store, "read_level", lambda path: made(
        read, store.parse_level_file_name(path)[1] - 1, path))
    # levels 0 and 1 are parsed for the start and the Cartan matrix, and the
    # walk makes level 1 from level 0 once the parsed level 1 is dropped
    monkeypatch.setattr(orbit, "build_next_level", lambda level, rs: made(
        walk, max(level.index, 1), level, rs))
    return refs, alive


def test_orders_holds_one_level_at_a_time(d4_run, monkeypatch, capsys):
    # when a level is made, no level before the one just scanned is still held:
    # levels 0 and 1 are parsed, then the walk makes levels 1 to 12
    _, alive = _count_held(monkeypatch)
    assert main(["orders", "D4", "--out", str(d4_run)]) == EXIT_OK
    assert "1:1, 2:43, 3:32, 4:84, 6:32" in capsys.readouterr().out
    assert alive == [0] * 14


def test_classes_holds_one_level_at_a_time(d4_run, monkeypatch, capsys):
    # as orders does, and the classes are formed with no level held at all
    refs, alive = _count_held(monkeypatch)
    real = classify.conjugacy_classes

    def conjugacy_classes(index, ceiling):
        alive.append(sum(ref() is not None for ref in refs))
        return real(index, ceiling=ceiling)

    monkeypatch.setattr(classify, "conjugacy_classes", conjugacy_classes)
    assert main(["classes", "D4", "--out", str(d4_run)]) == EXIT_OK
    assert "D4: 13 classes" in capsys.readouterr().out
    assert alive == [0] * 15


@pytest.mark.parametrize("command", ["orders", "classes"])
def test_a_run_derives_its_system_once(d4_run, monkeypatch, capsys, command):
    # one coroot closure and one read of the Cartan matrix off level 1, counted
    # under every name the package's modules import them by
    calls = Counter()
    for real in (rootsystems.positive_coroots, store.level_one_cartan):
        for module in [m for key, m in sys.modules.items() if key.startswith("weylenum")]:
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, lambda *args, real=real:
                                    calls.update([real.__name__]) or real(*args))
    assert main([command, "D4", "--out", str(d4_run)]) == EXIT_OK
    assert calls == {"positive_coroots": 1, "level_one_cartan": 1}


def test_orders(d4_run, capsys):
    assert main(["orders", "D4", "--out", str(d4_run)]) == EXIT_OK
    assert "1:1, 2:43, 3:32, 4:84, 6:32" in capsys.readouterr().out
    assert main(["orders", "D4", "--out", str(d4_run), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["order_partition"]["2"] == 43


def test_bench(capsys):
    assert main(["bench", "A2"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["system"] == "A2"
    assert rows[0]["total"] == 6
    assert rows[0]["levels"] == 4


def test_generate_custom_start(tmp_path):
    out = tmp_path / "shifted"
    assert main(["generate", "D4", "--out", str(out),
                 "--start-weight", "1,2,1,1"]) == EXIT_OK
    summary = store.read_summary(out, "D4")
    # level sizes do not depend on which strictly dominant start is used
    assert summary["levels"] == [1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1]


def test_generate_bad_start(tmp_path, capsys):
    out = tmp_path / "bad"
    assert main(["generate", "D4", "--out", str(out),
                 "--start-weight", "1,0,1,1"]) == EXIT_FAILURE
    assert "strictly dominant" in capsys.readouterr().err
    assert main(["generate", "D4", "--out", str(out),
                 "--start-weight", "1,x,1,1"]) == EXIT_FAILURE
    capsys.readouterr()
    # an empty start is a bad weight, not the default all-ones start
    assert main(["generate", "D4", "--out", str(out), "--start-weight", ""]) == EXIT_FAILURE
    assert capsys.readouterr().err == "error: bad weight '': expected comma-separated integers\n"
    # beyond int64, and at the entry limit: refused before any file is written
    for start in ("99999999999999999999,1", "1099511627776,1"):
        assert main(["generate", "A2", "--out", str(out), "--start-weight", start]) \
            == EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"error: start weight [{start.replace(',', ', ')}] has an entry of magnitude "
            "at least the checked arithmetic bound 1099511627776\n")
    assert not out.exists()


def test_generate_negative_levels_up_to(tmp_path, capsys):
    out = tmp_path / "neg"
    assert main(["generate", "D4", "--out", str(out), "--levels-up-to", "-3"]) \
        == EXIT_FAILURE
    assert capsys.readouterr() == ("", "error: levels_up_to must be at least 0, got -3\n")
    assert not out.exists()


def test_generate_cartan_file(tmp_path, capsys):
    matrix = tmp_path / "g2.txt"
    matrix.write_text("2\n2 -1\n-3 2\n", encoding="utf-8")
    out = tmp_path / "custom"
    assert main(["generate", "twisted", "--out", str(out),
                 "--cartan-file", str(matrix)]) == EXIT_OK
    summary = store.read_summary(out, "twisted")
    assert summary["total"] == 12
    assert summary["levels"] == [1, 2, 2, 2, 2, 2, 1]
    assert len(store.find_level_files(out, "twisted")) == 7


A3 = "3\n2 -1 0\n-1 2 -1\n0 -1 2\n"
A4 = "4\n2 -1 0 0\n-1 2 -1 0\n0 -1 2 -1\n0 0 -1 2\n"
D4 = "4\n2 -1 0 0\n-1 2 -1 -1\n0 -1 2 0\n0 -1 0 2\n"


def _custom_run(tmp_path, name, matrix):
    path = tmp_path / "cartan.txt"
    path.write_text(matrix, encoding="utf-8")
    out = tmp_path / "custom"
    assert main(["generate", name, "--out", str(out), "--cartan-file", str(path)]) == EXIT_OK
    return out


def test_classes_of_a3_named_d3_has_no_cycle_types(tmp_path, capsys):
    # cycle types follow the run's level-1 matrices, not its name: A3's chain
    # is not D3's numbering, so no D_3 model applies
    out = _custom_run(tmp_path, "D3", A3)
    capsys.readouterr()
    assert main(["classes", "D3", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "D3: 5 classes" in captured.out
    assert "cycle_type=" not in (out / "D3_classes.txt").read_text(encoding="utf-8")


def test_classes_of_d4_named_mine_matches_built_in_d4(tmp_path, d4_run, capsys):
    out = _custom_run(tmp_path, "mine", D4)
    assert main(["classes", "mine", "--out", str(out)]) == EXIT_OK
    assert main(["classes", "D4", "--out", str(d4_run)]) == EXIT_OK
    report = (out / "mine_classes.txt").read_text(encoding="utf-8")
    assert report == (d4_run / "D4_classes.txt").read_text(encoding="utf-8")
    assert report.count("cycle_type=") == 13
    assert "label=D_4(a_1)" in report


def test_classes_of_a4_named_d4_fails_the_published_tables(tmp_path, capsys):
    # the published-table checks still check what the name claims
    out = _custom_run(tmp_path, "D4", A4)
    capsys.readouterr()
    assert main(["classes", "D4", "--out", str(out)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "cycle_type=" not in captured.out
    assert captured.out.endswith("D4: FAIL\n")


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.ma with numpy itself")
def test_classes_leaves_numpy_ma_unimported(d4_run):
    code = ("import contextlib, io, sys\n"
            "from weylenum.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['classes', 'D4', '--out', sys.argv[1]]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(d4_run)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cartan_entry_beyond_int64_is_refused(tmp_path, capsys):
    matrix = tmp_path / "big.txt"
    matrix.write_text("2\n2 -99999999999999999999\n-1 2\n", encoding="utf-8")
    out = tmp_path / "big"
    assert main(["generate", "X", "--out", str(out), "--cartan-file", str(matrix)]) \
        == EXIT_FAILURE
    assert capsys.readouterr() == (
        "", f"error: {matrix}:2: an entry does not fit int64, got '2 -99999999999999999999'\n")
    assert not out.exists()


def test_bracketed_name_is_not_a_glob(tmp_path, capsys):
    # "X[1]" as a glob pattern matches "X1", not itself: the stale-run check
    # and the readers must still find the files of a run named "X[1]"
    matrix = tmp_path / "g2.txt"
    matrix.write_text("2\n2 -1\n-3 2\n", encoding="utf-8")
    out = tmp_path / "custom"
    assert main(["generate", "X[1]", "--out", str(out), "--cartan-file", str(matrix)]) == EXIT_OK
    assert len(store.find_level_files(out, "X[1]")) == 7
    capsys.readouterr()
    assert main(["generate", "X[1]", "--out", str(out), "--cartan-file", str(matrix)]) \
        == EXIT_FAILURE
    assert "X[1]_WeightMatrByLevel_0_elems=1.txt is left from an earlier run" \
        in capsys.readouterr().err
    assert main(["orders", "X[1]", "--out", str(out), "--json"]) == EXIT_OK
    partition = json.loads(capsys.readouterr().out)["order_partition"]
    assert partition == {"1": 1, "2": 7, "3": 2, "6": 2}
    assert main(["classes", "X[1]", "--out", str(out)]) == EXIT_OK
    assert "X[1]: 6 classes" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["../x", "a/b", "..", ".", ""])
def test_name_that_is_not_a_file_prefix_is_refused(tmp_path, capsys, name):
    # a name joined to --out as a path could write outside it, or fail late
    # on a missing directory; it is refused before anything is made
    matrix = tmp_path / "g2.txt"
    matrix.write_text("2\n2 -1\n-3 2\n", encoding="utf-8")
    out = tmp_path / "d" / "e"
    assert main(["generate", name, "--out", str(out), "--cartan-file", str(matrix)]) \
        == EXIT_FAILURE
    assert f"error: {name!r} cannot prefix a file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["g2.txt"]
    for command in ("orders", "classes"):
        assert main([command, name, "--out", str(tmp_path)]) == EXIT_FAILURE
        assert "cannot prefix a file name" in capsys.readouterr().err


def test_unknown_system(tmp_path, capsys):
    assert main(["generate", "Z9", "--out", str(tmp_path)]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_classes_without_files(tmp_path, capsys):
    assert main(["classes", "D4", "--out", str(tmp_path)]) == EXIT_FAILURE
    assert "no level files" in capsys.readouterr().err


def test_generate_refuses_stale_level_files(d4_run, capsys):
    before = sorted(p.name for p in d4_run.iterdir())
    assert main(["generate", "D4", "--out", str(d4_run), "--levels-up-to", "3",
                 "--start-weight", "1,2,1,1"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "D4_WeightMatrByLevel_0_elems=1.txt is left from an earlier run" in err
    assert sorted(p.name for p in d4_run.iterdir()) == before
    # other prefixes in the same directory are not in the way
    assert main(["generate", "A1", "--out", str(d4_run)]) == EXIT_OK


def test_generate_records_inputs_in_summary(tmp_path, d4_run):
    summary = store.read_summary(d4_run, "D4")
    assert summary["rank"] == 4
    assert summary["start_weight"] == [1, 1, 1, 1]
    out = tmp_path / "custom"
    assert main(["generate", "B3", "--out", str(out), "--start-weight", "3,1,2"]) == EXIT_OK
    summary = store.read_summary(out, "B3")
    assert summary["rank"] == 3
    assert summary["start_weight"] == [3, 1, 2]


def test_verify_accepts_summary_without_inputs(d4_run, capsys):
    # summaries written before rank and start_weight were recorded
    path = store.summary_path(d4_run, "D4")
    summary = json.loads(path.read_text(encoding="utf-8"))
    del summary["rank"], summary["start_weight"]
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert store.read_summary(d4_run, "D4") == summary
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_OK
    assert "D4: OK" in capsys.readouterr().out


def test_verify_custom_start_skips_only_the_golden_file(tmp_path, capsys):
    out = tmp_path / "custom"
    assert main(["generate", "D4", "--start-weight", "1,2,1,1", "--out", str(out)]) == EXIT_OK
    assert main(["verify", "D4", "--out", str(out)]) == EXIT_OK
    assert ("D4: OK (192 elements over 13 levels, golden level-2 file does not apply "
            "to start 1,2,1,1)") in capsys.readouterr().out
    # the size checks still run
    (out / store.level_file_name("D4", 5, 28)).rename(out / store.level_file_name("D4", 5, 27))
    assert main(["verify", "D4", "--out", str(out)]) == EXIT_MISMATCH
    assert "level file 5: expected elems=28, got elems=27" in capsys.readouterr().out


def test_verify_golden_checks_summary_without_start(d4_run, capsys):
    path = store.summary_path(d4_run, "D4")
    summary = json.loads(path.read_text(encoding="utf-8"))
    del summary["start_weight"]
    path.write_text(json.dumps(summary), encoding="utf-8")
    golden = d4_run / store.level_file_name("D4", 2, 9)
    golden.write_bytes(golden.read_bytes().replace(b"w=1,-2,3,3", b"w=1,-2,3,4"))
    assert main(["verify", "D4", "--out", str(d4_run)]) == EXIT_MISMATCH
    assert "golden level-2 file differs at line 1" in capsys.readouterr().out


def _fail_at_level(monkeypatch, index, where):
    """Make writing level `index` fail: while formatting it, or on the rename."""
    def disk_full(*args):
        raise OSError(28, "No space left on device")

    if where == "format_level":
        real = store.format_level
        monkeypatch.setattr(store, "format_level",
                            lambda level: disk_full() if level.index == index else real(level))
    else:
        real = store.os.replace
        monkeypatch.setattr(store.os, "replace", lambda a, b: disk_full()
                            if f"_WeightMatrByLevel_{index}_" in str(b) else real(a, b))


@pytest.mark.parametrize("where", ["format_level", "replace"])
def test_failed_write_leaves_no_partial_level_file(tmp_path, d4_levels, monkeypatch,
                                                   capsys, where):
    out = tmp_path / "run"
    _fail_at_level(monkeypatch, 2, where)
    assert main(["generate", "D4", "--out", str(out)]) == EXIT_FAILURE
    assert "No space left on device" in capsys.readouterr().err
    # only the complete files of the levels before the failure remain
    assert sorted(p.name for p in out.iterdir()) == [
        store.level_file_name("D4", k, d4_levels[k].size) for k in (0, 1)]
    for k in (0, 1):
        assert store.read_level(out / store.level_file_name("D4", k, d4_levels[k].size)) \
            == d4_levels[k]


def test_failed_summary_write_leaves_no_summary(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    real = store.os.replace

    def replace(src, dst):
        if str(dst).endswith("_summary.json"):
            raise OSError(28, "No space left on device")
        real(src, dst)

    monkeypatch.setattr(store.os, "replace", replace)
    assert main(["generate", "D4", "--out", str(out)]) == EXIT_FAILURE
    assert "No space left on device" in capsys.readouterr().err
    # the 13 level files are all that is left: no summary and no temporary file
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 13 and all("_WeightMatrByLevel_" in n for n in names)


def test_failed_class_report_write_leaves_no_report(d4_run, monkeypatch, capsys):
    real = store.os.replace

    def replace(src, dst):
        if str(dst).endswith("_classes.txt"):
            raise OSError(28, "No space left on device")
        real(src, dst)

    monkeypatch.setattr(store.os, "replace", replace)
    before = sorted(p.name for p in d4_run.iterdir())
    assert main(["classes", "D4", "--out", str(d4_run)]) == EXIT_FAILURE
    assert "No space left on device" in capsys.readouterr().err
    # neither the report nor its temporary file is left
    assert sorted(p.name for p in d4_run.iterdir()) == before


@pytest.mark.parametrize("where", ["format_level", "replace"])
def test_generate_after_failed_first_write_is_not_refused(tmp_path, monkeypatch, capsys,
                                                          where):
    out = tmp_path / "run"
    _fail_at_level(monkeypatch, 0, where)
    assert main(["generate", "D4", "--out", str(out)]) == EXIT_FAILURE
    assert list(out.iterdir()) == []
    monkeypatch.undo()
    assert main(["generate", "D4", "--out", str(out)]) == EXIT_OK
    assert main(["verify", "D4", "--out", str(out)]) == EXIT_OK


def test_generate_deterministic(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    for out in (first, second):
        assert main(["generate", "B3", "--out", str(out)]) == EXIT_OK
    for a, b in zip(store.find_level_files(first, "B3"),
                    store.find_level_files(second, "B3")):
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "weylenum", "generate", "A1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "A1: 2 elements in 2 levels" in proc.stdout
    missing = subprocess.run([sys.executable, "-m", "weylenum", "generate"],
                             capture_output=True, text=True)
    assert missing.returncode == 2
