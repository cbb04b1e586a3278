from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> list[str]:
    """The lines of the first python code block under README's "## Library"."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_readme_library_block_runs_as_shown():
    # A statement followed by a "# value" line must evaluate to that value,
    # up to the first two spaces, after which the comment explains it.
    lines = _library_block()
    namespace: dict = {}
    shown = 0
    for line, after in zip(lines, lines[1:] + [""]):
        if not line or line.startswith("#"):
            continue
        if after.startswith("# "):
            expected = after[2:].split("  ", 1)[0]
            assert repr(eval(line, namespace)) == expected, line
            shown += 1
        else:
            exec(line, namespace)
    assert shown == 6
