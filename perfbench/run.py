"""Benchmark for bpmatch: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload solve-large --seed N --make-inputs

Run from the root of a checkout; the package is imported from ./src.  One
client runs one operation at a time (a closed loop).  A run repeats whole
rounds of the workload's operations until the operations have taken
--seconds, checks every answer against the independent checkers outside
the timed region, and prints one JSON object as its last line.  --trace 0
reports the end-to-end metrics; --trace 1 records spans around the calls
into each layer and reports the per-layer metrics.  --workload all runs
every workload in its own process and prints a table.  --make-inputs only
writes the solve-large graph files for the seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402


def import_package():
    """Import bpmatch afresh from ./src; returns the package."""
    for name in [k for k in sys.modules if k == "bpmatch" or k.startswith("bpmatch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bp = importlib.import_module("bpmatch")
    importlib.import_module("bpmatch.harness")
    importlib.import_module("bpmatch.cli")
    if not os.path.abspath(bp.__file__).startswith(os.path.join(SRC, "bpmatch")):
        raise ImportError(f"bpmatch was imported from {bp.__file__}, not {SRC}")
    return bp


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def make_workload(name, seed):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.SolveLarge:
        return cls(seed, os.path.join(OUT, f"{name}-{seed}"))
    return cls(seed)


def pin_to_one_cpu():
    """Keep this process on one CPU, so the reference samples (speed.py) run
    where the ops run: on a shared host the CPUs need not run at the same
    speed at the same time."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[:1])


def timed_setup(wl):
    """Set up ``setup_reps`` times (fresh import each time); returns the
    package of the last set-up and the median set-up time at reference
    speed."""
    speed = Speed()
    times = []
    bp = None
    for _ in range(wl.setup_reps):
        speed.sample()
        gc.collect()
        at, t0 = speed.mark(), time.process_time()
        bp = import_package()
        wl.setup(bp)
        times.append((time.process_time() - t0, at))
    speed.sample()
    return bp, statistics.median(speed.scale(dt, at) for dt, at in times)


# Every op runs in at least this many rounds and is timed by the median of
# its runs at reference speed; the median also drops the short bursts in
# which CPU speed moves further than the reference samples around them.
MIN_ROUNDS = 3


class Tally:
    def __init__(self):
        self.attempted = 0
        self.wall = 0.0         # wall seconds spent in ops; ends the run
        self.times = {}         # op -> (CPU seconds, speed mark) of each of its runs
        self.failed_ops = set()
        self.failures = []
        self.round_cpu = []

    def typical(self, speed):
        """(median time per op at reference speed, ops that passed every check)"""
        med = {op: statistics.median(speed.scale(dt, at) for dt, at in ts)
               for op, ts in self.times.items()}
        return med, [op for op in med if op not in self.failed_ops]


# Ops are timed in CPU time (user + system) of this process: the program is
# single-threaded and CPU-bound, and on a shared machine CPU time varies far
# less between identical runs than wall time does.
def run_round(wl, bp, tracer, tally, speed):
    wall, cpu = 0.0, 0.0
    for op in wl.ops():
        tally.attempted += 1
        at = speed.mark()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run(bp, op, tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            tally.failures.append((workloads.EXC, wl.label(op), repr(exc)[:300]))
            out = None
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        speed.sample()
        wall += dt
        cpu += dc
        tally.times.setdefault(op, []).append((dc, at))
        try:
            problem = (workloads.EXC, "") if out is None else wl.check(op, out)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problem = (workloads.WRONG, f"malformed answer: {exc!r}"[:300])
        if problem is not None:
            tally.failed_ops.add(op)
            if out is not None:
                tally.failures.append((problem[0], wl.label(op), problem[1]))
        if tracer is not None and out is not None:
            wl.probe(bp, op, out, tracer)
    tally.wall += wall
    tally.round_cpu.append(cpu)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, rounds):
    """Per-layer metrics, per round of the workload (rates and ratios are
    not divided)."""
    s = tracer.summary()
    z = {"calls": 0, "total": 0.0, "self": 0.0, "value": 0.0, "value2": 0.0}

    def get(name):
        return s.get(name, z)

    def ratio(a, b):
        return a / b if b else 0.0

    sync, extract = get("engine.run_sync"), get("engine.extract")
    steps = get("schedule.run_async")
    lp, tight = get("simplex.solve_lp"), get("oracle.is_tight")
    per = {
        "simplex.solve_lp_s": (lp["total"] / rounds, "s"),
        "simplex.lp_calls": (lp["calls"] / rounds, "count"),
        "simplex.lp_cells": (lp["value"] / rounds, "count"),
        "oracle.is_tight_self_s": (tight["self"] / rounds, "s"),
        "oracle.is_tight_lps": (ratio(tracer.count_under("simplex.solve_lp", "oracle.is_tight"),
                                      tight["calls"]), "count"),
        "oracle.relaxation_self_s": (get("oracle.relaxation")["self"] / rounds, "s"),
        "oracle.brute_force_s": (get("oracle.brute_force")["total"] / rounds, "s"),
        "oracle.check_cs_s": (get("oracle.check_cs")["total"] / rounds, "s"),
        "engine.rounds": (sync["value"] / rounds, "count"),
        "engine.round_self_ms": (1e3 * ratio(sync["self"], sync["value"]), "ms"),
        "engine.msg_updates_per_s": (ratio(sync["value2"], sync["self"]), "1/s"),
        "engine.extract_calls": (extract["calls"] / rounds, "count"),
        "engine.extract_s": (extract["total"] / rounds, "s"),
        "schedule.steps": (steps["value"] / rounds, "count"),
        "schedule.step_self_us": (1e6 * ratio(steps["self"], steps["value"]), "us"),
        "schedule.generate_s": (get("schedule.generate")["total"] / rounds, "s"),
        "schedule.validate_s": (get("schedule.validate")["total"] / rounds, "s"),
        "schedule.coverage_s": (get("schedule.coverage")["total"] / rounds, "s"),
        "ctree.build_s": ((get("ctree.build_tree")["total"] + get("ctree.gct")["total"])
                          / rounds, "s"),
        "ctree.nodes": ((get("ctree.build_tree")["value"] + get("ctree.gct")["value"])
                        / rounds, "count"),
        "ctree.dp_s": (get("ctree.dp")["total"] / rounds, "s"),
        "ctree.dp_calls": (get("ctree.dp")["calls"] / rounds, "count"),
        "graph.parse_s": (get("graph.parse")["total"] / rounds, "s"),
        "graph.validate_s": (get("graph.validate")["total"] / rounds, "s"),
        "graph.reduce_s": (get("graph.reduce")["total"] / rounds, "s"),
        "graph.forced_edges": (get("graph.reduce")["value"] / rounds, "count"),
        "harness.pipeline_self_s": (get("harness.pipeline")["self"] / rounds, "s"),
        "harness.tree_verify_self_s": (get("harness.tree_verify")["self"] / rounds, "s"),
        "cli.main_self_s": (get("cli.main")["self"] / rounds, "s"),
    }
    return per


def run_all(args):
    """Each workload in a child process (peak RSS is per process)."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            code = 1
            continue
        res = results[name] = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-inputs", action="store_true",
                    help="write the solve-large graph files for the seed and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bpmatch", "__init__.py")):
        print(f"error: no package at {os.path.join(SRC, 'bpmatch')}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = make_workload(args.workload, args.seed)
    if args.make_inputs:
        if not isinstance(wl, workloads.SolveLarge):
            print("error: --make-inputs applies to solve-large only", file=sys.stderr)
            return 2
        wl.setup(None)
        print("\n".join(wl.paths))
        return 0

    pin_to_one_cpu()
    bp, setup_s = timed_setup(wl)
    speed = Speed()
    wl.references(bp)
    gc.collect()

    tally = Tally()
    tracer = None
    meta = {"workload": wl.name, "seed": args.seed, "python": platform.python_version(),
            "cpus": os.cpu_count(), "commit": git_commit()}
    t_start = time.perf_counter()
    if args.trace:
        # one untraced round as the reference for the tracing overhead
        run_round(wl, bp, None, tally, speed)
        tracer = Tracer()
        tracer.install()
    while True:
        run_round(wl, bp, tracer, tally, speed)
        if tally.wall >= args.seconds and (args.trace or len(tally.round_cpu) >= MIN_ROUNDS):
            break
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()

    rounds = len(tally.round_cpu)
    wrong = [f for f in tally.failures if f[0] == workloads.WRONG]
    correct = not wl.problems and not wrong
    print(f"# {wl.name} seed={args.seed} python={meta['python']} cpus={meta['cpus']} "
          f"commit={meta['commit']} rounds={rounds} ops={tally.attempted} wall={wall:.2f}s")
    for p in wl.problems[:10]:
        print(f"# reference check failed: {p}")
    for kind, label, detail in tally.failures[:20]:
        print(f"# failed op {label}: {kind}: {detail}")
    if not args.trace:
        typical, done = tally.typical(speed)
        times = [typical[op] for op in done]
        metrics = {
            "ops_per_s": (len(done) / sum(typical.values()), "ops/s"),
            "op_p50_ms": (1e3 * statistics.median(times) if times else 0.0, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        print(f"# {speed.summary()}")
        if len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[8]
            print(f"# op_p90_ms {1e3 * p90:.3f} ms over {len(times)} ops")
    else:
        plain, traced = tally.round_cpu[0], tally.round_cpu[1:]
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (statistics.fmean(traced) - plain, "s")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{wl.name}-{args.seed}.json.gz")
        tracer.write(path, dict(meta, rounds=rounds, untraced_round_cpu_s=plain,
                                traced_round_cpu_s=traced))
        print(f"# {len(tracer)} spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
