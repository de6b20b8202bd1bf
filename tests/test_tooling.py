"""Checks on the repository rather than on the algorithms: the benchmark in
perfbench/ runs against the package, so a package change that breaks the
benchmark's answer checkers or its tracer, or gives an answer its
independent checkers reject, must fail the tests, the runtime
package imports nothing outside the standard library, the README's module table
names each module once, the README's library example runs against the
current API, the code-line counter in tools/ counts code lines only, and
the unreached-statement lister there names the outermost statements that
never ran."""

import ast
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["async-certify", "certify-sweep", "solve-large", "tree-verify"])
def test_perfbench_answers_pass_its_checkers(workload):
    # --seconds 0 runs the fewest rounds the benchmark takes; every answer is
    # checked against the benchmark's own references: coverage counted along
    # the schedule, u(t) past the threshold, the exhaustive optimum, and on
    # solve-large the min-cost-flow optimum
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report


# the package's layers as the benchmark loads them, then its tracer: every
# name the tracer wraps exists, install() wraps each, and uninstall() puts
# every attribute of every bpmatch module back
SPANS_CHECK = """
import sys
sys.path[:0] = ["src", "perfbench"]
import bpmatch, bpmatch.harness, bpmatch.cli
import spans

for _, module, attr in spans.FUNCTIONS:
    assert hasattr(sys.modules[module], attr), (module, attr)
for _, module, cls, meth in spans.METHODS:
    assert meth in vars(getattr(sys.modules[module], cls)), (module, cls, meth)
mods = {k: m for k, m in sys.modules.items() if k == "bpmatch" or k.startswith("bpmatch.")}
before = {k: dict(vars(m)) for k, m in mods.items()}
tracer = spans.Tracer()
tracer.install()
for _, module, attr in spans.FUNCTIONS:
    assert hasattr(getattr(sys.modules[module], attr), "__wrapped__"), (module, attr)
tracer.uninstall()
for k, m in mods.items():
    after = vars(m)
    assert after.keys() == before[k].keys(), k
    changed = [a for a, v in before[k].items() if after[a] is not v]
    assert not changed, (k, changed)
"""


def test_perfbench_tracer_wraps_and_restores_the_package():
    proc = subprocess.run([sys.executable, "-c", SPANS_CHECK], cwd=ROOT,
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


def test_readme_module_table_has_one_row_per_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What's in the box", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `bpmatch\.(\w+)` \|", section, re.M)
    modules = [p.stem for p in (ROOT / "src" / "bpmatch").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["bound"] == 9


def test_codelines_counts_code_lines_only():
    proc = subprocess.run([sys.executable, "tools/codelines.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = {name: int(n) for n, name in rows[:-1]}
    assert rows[-1][1] == "total" and sum(modules.values()) == int(rows[-1][0])
    assert set(modules) == {p.name for p in (ROOT / "src" / "bpmatch").glob("*.py")}
    assert all(n > 0 for n in modules.values())
    codelines = runpy.run_path(str(ROOT / "tools" / "codelines.py"))
    assert codelines["count_tree"](codelines["PACKAGE"]) == modules
    # comments, blank lines and the docstrings of a module, a class and a
    # function count 0; the statements around them count one a line, and a
    # string that is not first in its body is code
    count = codelines["count_source"]
    assert count('"""Module\ndocstring."""\n# a comment\n\n') == 0
    assert count('"""Doc."""\n\n\nclass A:\n    """Doc\n    string."""\n\n'
                 '    def f(self):  # comment\n        """Doc."""\n        x = 1\n'
                 '        """not a docstring"""\n        return (x +\n                1)\n') == 6


def test_unreached_lists_the_outermost_statements_never_run():
    unreached = runpy.run_path(str(ROOT / "tools" / "unreached.py"))["unreached"]
    source = ('"""Doc."""\n'              # 1
              'import os\n'               # 2
              '\n'
              '\n'
              'def f(x):\n'               # 5
              '    """Doc."""\n'
              '    if x:\n'               # 7
              '        return 1\n'        # 8
              '    try:\n'                # 9
              '        y = (x +\n'        # 10
              '             1)\n'         # 11
              '    except ValueError:\n'  # 12
              '        y = 0\n'           # 13
              '    return y\n'            # 14
              '\n'
              '\n'
              '@staticmethod\n'           # 17
              'def g():\n'                # 18
              '    global G\n'            # 19
              '    G = 1\n'               # 20
              '    return G\n')           # 21
    # a statement runs when a line of its own runs, or one inside it does:
    # the try by line 11, g by its decorator; the except clause and g's
    # body are listed, not the statements inside them, and a docstring or
    # a global declaration never is
    assert unreached(source, {2, 5, 7, 11, 14, 17}) == [8, 12, 20, 21]
    assert unreached(source, {17}) == [2, 5, 20, 21]
    assert unreached(source, set()) == [2, 5, 18]
