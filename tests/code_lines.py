"""Print the code lines of each module of a package, and their total.

A code line is a non-blank line holding a non-comment token; docstrings
(the first statement of a module, class or function, when it is a string)
are excluded. A string or expression spanning several lines counts each
line it covers.

Run ``python tests/code_lines.py [DIR]``; DIR defaults to ``src/qsc``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring of the tree covers."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qsc"
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<16} {count:>6,}")
    print(f"{'total':<16} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
