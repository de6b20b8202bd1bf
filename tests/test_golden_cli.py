"""Golden command-line outputs: stdout, stderr and the exit code of
`certify --json` (with the file `--emit-cert` writes) and of
`solve --json --certify --stop certified` under the sync, round-robin and
random:3 schedules, on every shipped fixture in both modes, and of
`sweep --json` at seeds 1 and 7 in both modes (200 random instances each:
the tight counts, the agreement with the enumeration cross-check and the
largest bound), and of `solve --json --stop budget=24` with the file
`--trace` writes, under the sync and round-robin schedules on c4 and
k4-appendix, and of `tree-verify --json --t-max 4` with the file
`--dump-tree` writes, under the default, sync, round-robin and random:3
schedules on c4 and k4-appendix, and of `schedule-validate --json` on c4
under the round-robin and random:3 schedules and two schedule files under
tests/data/ (one redundancy-free, one with a redundancy), compared byte for
byte with the files under tests/data/golden/.

The commands run from the repository root on relative fixture paths, so
the outputs name the same paths wherever the repository lives.  To record
the files again, run `PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from bpmatch.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
FIXTURES = ("c4", "k4-appendix", "p4", "tri-half", "tri-neg")
MODES = ("perfect", "nonperfect")
SCHEDULES = ("sync", "roundrobin", "random:3")
SWEEP_SEEDS = (1, 7)
# the flag naming the file a command writes, and the suffix of its golden copy
WRITES = {"--emit-cert": ".cert", "--trace": ".trace", "--dump-tree": ".tree"}
# the schedules of the tree-verify cases: no flag, then each flag value
TREE_SCHEDULES = ((), ("--schedule", "sync"), ("--schedule", "roundrobin"),
                  ("--schedule", "random:3"))
SCHEDULE_FILES = ("c4-cycles", "c4-redundant")


def cases():
    """(name, argv, the flag of the file the command writes or None)."""
    out = []
    for fixture in FIXTURES:
        graph = f"src/bpmatch/fixtures/{fixture}.graph"
        for mode in MODES:
            out.append((f"certify-{fixture}-{mode}",
                        ["certify", graph, "--mode", mode, "--json"], "--emit-cert"))
            for schedule in SCHEDULES:
                out.append((f"solve-{schedule.replace(':', '')}-{fixture}-{mode}",
                             ["solve", graph, "--mode", mode, "--json", "--certify",
                              "--stop", "certified", "--schedule", schedule], None))
    for fixture in FIXTURES[:2]:
        for schedule in SCHEDULES[:2]:
            out.append((f"trace-{schedule}-{fixture}",
                        ["solve", f"src/bpmatch/fixtures/{fixture}.graph", "--json",
                         "--stop", "budget=24", "--schedule", schedule], "--trace"))
    for fixture in FIXTURES[:2]:
        for schedule in TREE_SCHEDULES:
            name = schedule[1].replace(":", "") if schedule else "default"
            out.append((f"tree-verify-{name}-{fixture}",
                        ["tree-verify", f"src/bpmatch/fixtures/{fixture}.graph", "--json",
                         "--t-max", "4", *schedule], "--dump-tree"))
    for name, schedule in ([(s.replace(":", ""), s) for s in SCHEDULES[1:]]
                           + [(f, f"file=tests/data/{f}.sched") for f in SCHEDULE_FILES]):
        out.append((f"schedule-validate-{name}-c4",
                    ["schedule-validate", "src/bpmatch/fixtures/c4.graph", "--json",
                     "--schedule", schedule], None))
    for seed in SWEEP_SEEDS:
        for mode in MODES:
            out.append((f"sweep-seed{seed}-{mode}",
                        ["sweep", "--mode", mode, "--seed", str(seed), "--json"], None))
    return out


def run(argv, flag):
    """(exit code, stdout, stderr, text of the file written by `flag` or
    None) of one command, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "written.txt"
        try:
            os.chdir(ROOT)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ([flag, str(path)] if flag else []))
        finally:
            os.chdir(cwd)
        text = path.read_text(encoding="utf-8") if path.exists() else None
    return code, out.getvalue(), err.getvalue(), text


def record():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, argv, flag in cases():
        code, stdout, stderr, text = run(argv, flag)
        (GOLDEN / f"{name}.out").write_text(stdout, encoding="utf-8")
        if text is not None:
            (GOLDEN / f"{name}{WRITES[flag]}").write_text(text, encoding="utf-8")
        index[name] = {"argv": argv, "exit": code, "stderr": stderr}
    (GOLDEN / "cases.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name, argv, flag", cases(), ids=[c[0] for c in cases()])
def test_cli_output_is_the_golden_file(name, argv, flag):
    want = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))[name]
    code, stdout, stderr, text = run(argv, flag)
    assert want["argv"] == argv
    assert (code, stderr) == (want["exit"], want["stderr"])
    assert stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    written = GOLDEN / f"{name}{WRITES[flag]}" if flag else None
    assert text == (written.read_text(encoding="utf-8") if written and written.exists() else None)


if __name__ == "__main__":
    record()
