"""Line counts of the qine package, the measure of the ROADMAP's design aim.

Run as ``python tests/linecount.py [package directory]``; the directory
defaults to this checkout's ``src/qine``.  For each module it prints the
lines, and the code lines: those neither blank, nor comment-only, nor part
of a module, class or function docstring.  The totals come last.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one module."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )
    return len(lines), code


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "qine"
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
