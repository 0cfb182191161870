#!/usr/bin/env python3
"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment-only lines and docstring lines do not count.

Prints one line per module and a total::

    python scripts/code_lines.py src/lexglean

Each argument is a ``.py`` file or a directory searched for them; the
default is ``src/lexglean``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one module."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _modules(arguments: list[str]) -> list[Path]:
    modules: list[Path] = []
    for argument in arguments:
        path = Path(argument)
        modules.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return modules


def main(argv: list[str]) -> int:
    modules = _modules(argv or ["src/lexglean"])
    counts = [(str(path), code_lines(path)) for path in modules]
    width = max((len(name) for name, _ in counts), default=5)
    for name, count in counts:
        print(f"{name:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(count for _, count in counts):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
