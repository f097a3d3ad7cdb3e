"""Count the lines of a package's Python source: ``wc -l`` and code lines.

A code line is a physical line that holds a token other than a comment,
outside the docstrings of modules, classes and functions; a line inside any
other multi-line string counts.  Standard library only.  Usage::

    python tools/code_lines.py [DIR]    # DIR defaults to src/nkerr

prints one row per ``*.py`` file in DIR and a total row: lines, code lines, name.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The physical lines of the module's, each class's and each function's docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/nkerr")
    total = [0, 0]
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        row = text.count("\n"), code_lines(text)
        total = [t + r for t, r in zip(total, row)]
        print(f"{row[0]:6d} {row[1]:6d} {path}")
    print(f"{total[0]:6d} {total[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
