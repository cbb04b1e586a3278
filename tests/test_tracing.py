"""The benchmark's traced entry points must name functions the package has.

`perfbench/tracing.py` wraps each `(module, attr)` of its ENTRY_POINTS at run
time; a deleted or renamed entry point would otherwise fail only traced runs.
Its `Tracer` keeps one call stack, so no traced entry point may run on the
package's worker thread, which the level codec and the level step share.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import weylenum as we
from test_store import _cpus, multi_block_level
from weylenum import kernels, store

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_entry_points_resolve():
    tracing = _tracing()
    assert tracing.ENTRY_POINTS
    missing = [f"weylenum.{module}.{attr}" for module, attr, _ in tracing.ENTRY_POINTS
               if not callable(getattr(importlib.import_module(f"weylenum.{module}"),
                                       attr, None))]
    assert missing == []


def thread_tracer(monkeypatch):
    """The benchmark's tracer, installed over every entry point until the test
    ends, and recording the threads that open its spans in `threads`."""
    tracing = _tracing()
    originals = {getattr(importlib.import_module(f"weylenum.{module}"), attr)
                 for module, attr, _ in tracing.ENTRY_POINTS}
    for name, module in list(sys.modules.items()):
        if name == "weylenum" or name.startswith("weylenum."):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, key, value)  # undone after the test

    class ThreadTracer(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.threads = set()

        def open(self, name):
            self.threads.add(threading.get_ident())
            return super().open(name)

    tracer = ThreadTracer()
    tracing.install(tracer)
    return tracer


def test_codec_spans_come_from_the_calling_thread(tmp_path, monkeypatch):
    # The tracer keeps one call stack, so the package's worker thread must run
    # no traced entry point: one format span per call site, all on this thread.
    tracer = thread_tracer(monkeypatch)
    level = multi_block_level()
    with _cpus(2):
        path = store.write_level(level, "X", tmp_path).path
        assert store.read_level(path) == level
    assert kernels._worker is not None
    assert tracer.threads == {threading.get_ident()}
    spans = [(name, tracer.names[parent]) for name, parent in zip(tracer.names, tracer.parents)
             if parent >= 0]
    assert sorted(spans) == [("store.format_level", "store.read_level"),
                             ("store.format_level", "store.write_level")]
    assert [tracer.names[i] for i, parent in enumerate(tracer.parents) if parent < 0] \
        == ["store.write_level", "store.read_level"]


def test_run_reader_spans_come_from_the_calling_thread(tmp_path, monkeypatch):
    # B6's largest level holds 3,210 records, so walking it formats it in two
    # halves.  Levels 0 and 1 are parsed, and written back; the walk makes
    # levels 1 to 36, formats levels 0 to 36 to match their files, and takes
    # one empty step past the top.
    levels = list(we.generate_group(we.root_system("B6")))
    for level in levels:
        store.write_level(level, "B6", tmp_path)
    tracer = thread_tracer(monkeypatch)
    with _cpus(2):
        index = store.build_index(store.read_run(store.find_level_files(tmp_path, "B6")))
    assert index.total == 46080
    assert max(level.size for level in levels) > store._BLOCK
    assert kernels._worker is not None
    assert tracer.threads == {threading.get_ident()}
    assert (tracer.calls["store.read_level"], tracer.calls["orbit.build_next_level"],
            tracer.calls["store.format_level"]) == (2, 37, 39)
