"""Count the code lines of src/bpmatch, per module and in total.

A code line is a line that holds a token of code: comments, blank lines
and docstrings (a string statement first in a module, class or function,
found by ``ast``) are left out; a token spanning several lines, such as a
multi-line string that is not a docstring, counts each line it spans.

    python3 tools/codelines.py            # one module a line, then the total
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bpmatch"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_tree(root: Path) -> dict:
    """{module path relative to `root`: code lines} for every .py file under it."""
    return {path.relative_to(root).as_posix(): count_source(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


if __name__ == "__main__":
    modules = count_tree(PACKAGE)
    for name, n in modules.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(modules.values()):6d}  total")
