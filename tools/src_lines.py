"""Print the physical and code-only line counts of each ``src/layeredsfm`` module.

A code-only line holds a token other than a comment, and lies outside every
docstring (the leading string statement of a module, class or function body).
So blank lines, comment lines and docstring lines do not count.  Stdlib only.

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "layeredsfm"

# Tokens that never make a line code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(physical, code_only)`` line counts of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> int:
    total_physical = total_code = 0
    print(f"{'module':<16}{'physical':>10}{'code-only':>11}")
    for path in sorted(PACKAGE.glob("*.py")):
        physical, code = count_lines(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<16}{physical:>10}{code:>11}")
    print(f"{'total':<16}{total_physical:>10}{total_code:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
