"""List the statements of src/bpmatch that the tier-1 suite never runs.

Runs the suite under tests/ in this process, under a line tracer that
records the lines run in src/bpmatch and is installed before the package
is imported, then prints, module by module, each statement no test
reached, as ``module:line: source``.  Only the outermost such statements
are listed: a function that never ran shows its body's top-level
statements, not every line under them.  Code that tests run in a
subprocess (the perfbench smoke tests, for one) is not traced.  The suite
runs several times slower than untraced.

    python3 tools/unreached.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bpmatch"


def _runs_no_code(node) -> bool:
    # a docstring, or a global or nonlocal declaration
    return isinstance(node, (ast.Global, ast.Nonlocal)) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str))


def _children(node) -> list:
    """The statements and except clauses directly inside `node`, in order."""
    out = []
    for name in ("body", "handlers", "orelse", "finalbody"):
        out.extend(getattr(node, name, ()))
    return [c for c in out if not _runs_no_code(c)]


def unreached(source: str, hits: set) -> list:
    """The line numbers of the outermost statements of `source` that never
    ran, in order, given `hits`, the lines that did.  A statement ran when
    one of its own lines was hit (a simple statement's lines, a compound
    one's header, decorators included) or a statement inside it ran; an
    except clause counts as a statement.  Docstrings and global or nonlocal
    declarations run no code and are left out."""
    out = []

    def ran(node) -> bool:
        kids = _children(node)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = max(node.lineno, kids[0].lineno - 1) if kids else node.end_lineno
        here = not hits.isdisjoint(range(first, last + 1))
        flags = [ran(k) for k in kids]
        if not (here or any(flags)):
            return False
        out.extend(k.lineno for k, f in zip(kids, flags) if not f)
        return True

    out.extend([k.lineno for k in _children(ast.parse(source)) if not ran(k)])
    return sorted(out)


def _tracer(hits: dict):
    """A sys.settrace function recording, per file, the lines run in PACKAGE."""
    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        add = hits[filename].add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    return trace


def main() -> int:
    import pytest

    hits = defaultdict(set)
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = _tracer(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # the suite's five-minute stuck-test limit is scaled for the tracer
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "-o", "faulthandler_timeout=3000", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno in unreached(source, hits.get(str(path), set())):
            print(f"{path.relative_to(PACKAGE).as_posix()}:{lineno}: {lines[lineno - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
