"""The benchmark's traced entry points must name functions the package has.

`perfbench/tracing.py` wraps each `(module, attr)` of its ENTRY_POINTS at run
time; a deleted or renamed entry point would otherwise fail only traced runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    missing = [f"weylenum.{module}.{attr}" for module, attr, _ in tracing.ENTRY_POINTS
               if not callable(getattr(importlib.import_module(f"weylenum.{module}"),
                                       attr, None))]
    assert missing == []
