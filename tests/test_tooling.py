"""Checks on the repository rather than on the algorithms: the benchmark in
perfbench/ runs against the package, so a package change that breaks the
benchmark's answer checkers must fail the tests, and the runtime package
imports nothing outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_runtime_imports_only_the_standard_library():
    # absolute imports only: relative ones stay inside the package
    for path in sorted((ROOT / "src" / "bpmatch").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "bpmatch", \
                    f"{path.name}:{node.lineno} imports {name}"
