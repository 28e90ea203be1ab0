"""Print, per ``src/layeredsfm`` module, the statement lines the test suite never runs.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
and records every line executed in the package.  A statement line is the
first line of an ``ast`` statement other than a docstring or a ``global``
or ``nonlocal`` declaration (neither compiles to code that runs); each one
that never ran is listed.  Print only: nothing is gated on the listing,
and the exit code is pytest's.  Tracing makes the suite several times
slower than Tier-1.  Needs pytest and the suite's own test dependencies;
extra arguments go to pytest.

    python tools/untested_lines.py [pytest args]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "layeredsfm"


def statement_lines(source: str) -> set[int]:
    """First lines of the statements of ``source`` that compile to code, docstrings left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(node.body[0])
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)
            and not isinstance(node, (ast.Global, ast.Nonlocal)) and node not in docstrings}


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events outside the package
        ran.setdefault(filename, set())
        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path.read_text(encoding="utf-8")) - ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.name}: {', '.join(map(str, missed)) if missed else '-'}")
    print(f"untested statement lines: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
