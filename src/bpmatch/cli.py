"""Command-line interface.

Commands: solve, certify, tree-verify, sweep, schedule-validate.  Exit codes
distinguish outcomes: 0 success, 1 unexpected error, 2 parse/validation
problems, 3 infeasible instances, 4 non-convergence, 5 mismatch against the
oracle (a hard failure on certified-tight instances) or a tie at the
selection boundary at a certified stop.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .graph import (PERFECT, NONPERFECT, GraphError, GraphParseError,
                    ValidationError, parse_graph, parse_rational, text_rows)
from .engine import MessageInit
from .schedule import (Schedule, ScheduleError, make_schedule, parse_schedule,
                       validate_schedule, coverage)
from .ctree import GCTBuilder, dump_tree
from .harness import (prepare_instance, solve_pipeline, certify_instance, sweep,
                      _tree_verify, WeightRangeError, _fmt_edges)
from .oracle import InfeasibleError, CertificateError, serialize_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGENCE = 4
EXIT_MISMATCH = 5


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class UsageError(Exception):
    """A malformed command-line flag value."""


def _parse_init(spec, g) -> MessageInit:
    """--init value; an init file gives a value for every directed edge of
    `g`, one "i j value" line each, read by graph.text_rows."""
    if spec is None or spec == "weights":
        return MessageInit.weights()
    if spec == "zero":
        return MessageInit.constant(0)
    if not spec.startswith("file="):
        raise UsageError(f"unknown --init {spec!r} (use weights, zero or file=PATH)")
    known = set(g.directed_edges())
    mapping = {}
    for lineno, body in text_rows(_read(spec[5:])):
        if len(body) != 3:
            raise GraphParseError(f"init file line {lineno}: expected 'i j value'")
        try:
            edge = (int(body[0]), int(body[1]))
        except ValueError:
            raise GraphParseError(f"init file line {lineno}: bad vertex id in "
                                  f"{' '.join(body[:2])!r}") from None
        if edge not in known:
            raise GraphParseError(f"init file line {lineno}: {edge} is not a directed edge "
                                  "of the graph")
        if edge in mapping:
            raise GraphParseError(f"init file line {lineno}: duplicate directed edge {edge}")
        try:
            mapping[edge] = parse_rational(body[2])
        except (ValueError, ZeroDivisionError):
            raise GraphParseError(f"init file line {lineno}: bad value {body[2]!r}") from None
    missing = [d for d in g.directed_edges() if d not in mapping]
    if missing:
        raise GraphParseError(f"init file: no value for directed edge {missing[0]}")
    return MessageInit.explicit(mapping)


def _parse_stop(spec):
    if spec is None:
        return None
    if spec == "certified":
        return ("certified", None)
    kind, _, arg = spec.partition("=")
    if kind == "budget":
        return ("budget", _at_least(arg, 0, "--stop budget="))
    if kind == "window":
        return ("window", _at_least(arg, 1, "--stop window="))
    raise UsageError(f"unknown --stop {spec!r} (use budget=T, window=K, or certified)")


def _parse_schedule_flag(spec, g) -> Schedule:
    """--schedule value as a Schedule on `g`: sync (also when `spec` is
    None), roundrobin and random:SEED from make_schedule, file=PATH from
    parse_schedule."""
    if spec is None or spec in ("sync", "roundrobin"):
        return make_schedule(g, spec or "sync")
    if spec.startswith("random:"):
        try:
            seed = int(spec[7:])
        except ValueError:
            raise UsageError(f"--schedule random:SEED needs an integer seed, "
                             f"got {spec[7:]!r}") from None
        return make_schedule(g, "random", seed=seed)
    if spec.startswith("file="):
        return parse_schedule(_read(spec[5:]), g)
    raise UsageError(f"unknown --schedule {spec!r}")


def _at_least(text, low, flag):
    """`text` (a flag's text or int) as an int; UsageError unless it is >= low."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise UsageError(f"{flag} must be an integer >= {low}, got {text!r}")
    return value


def _emit(args, payload, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for line in human_lines:
            print(line)


def _write_trace(path, trace):
    # one pass over the states, each in directed_edges() order, which is sorted
    lines = [f"{state.t}\t{i}\t{j}\t{v}" for state in trace for (i, j), v in state.m.items()]
    _write(path, "\n".join(lines) + ("\n" if lines else ""))


def cmd_solve(args) -> int:
    g = parse_graph(_read(args.graph))
    init = _parse_init(args.init, g)
    stop_spec = _parse_stop(args.stop)
    schedule = _parse_schedule_flag(args.schedule, g)
    dual_text = _read(args.dual_file) if args.dual_file else None

    report = solve_pipeline(g, args.mode, instance_name=args.graph, init=init,
                            stop_spec=stop_spec, schedule=schedule,
                            certify=args.certify, dual_text=dual_text,
                            force_schedule=args.force, keep_trace=bool(args.trace))
    if args.trace and report.run is not None:
        _write_trace(args.trace, report.run.trace)
    if args.emit_cert and report.certification is not None:
        _write(args.emit_cert, serialize_certificate(report.certification.cert))

    lines = [f"instance: {args.graph} (n={report.n}, m={report.m}, mode={report.mode})"]
    if report.infeasible:
        lines.append("infeasible: no perfect matching exists")
    else:
        if report.schedule:
            lines.append(f"schedule: {report.schedule}")
        c = report.certification
        if c is not None:
            lines.append(f"tight: {c.tight} ({c.tight_reason})")
            eps = c.cert.epsilon if c.cert.epsilon is not None else "undefined"
            lines.append(f"certificate: epsilon={eps} L={c.cert.L} bound={c.bound}")
        r = report.run
        lines.append(f"iterations: {r.iterations}, stabilized at {r.stabilized_at} "
                     f"(stable for {r.stable_for}), converged: {r.converged}")
        if r.period == 1:
            lines.append("estimate unchanged, but the stability window was not reached")
        elif r.period is not None:
            lines.append(f"estimate oscillates with period {r.period}")
        if r.estimate.ties:
            lines.append(f"selection ties at vertices {sorted(r.estimate.ties)}")
        lines.append(f"estimate: {_fmt_edges(report.final_edges)} weight {report.final_weight}")
        lines.append(f"valid matching: {report.matching_ok}")
        if report.match is not None:
            lines.append(f"match vs oracle: {report.match}")
        for note in report.notes:
            lines.append(f"note: {note}")
        lines.append(f"wall time: {report.wall_time:.3f}s")
    _emit(args, report.to_dict(), lines)
    return report.exit_code()


def cmd_certify(args) -> int:
    g = parse_graph(_read(args.graph))
    dual_text = _read(args.dual_file) if args.dual_file else None
    work, reduction, cert_override = prepare_instance(g, args.mode, dual_text)
    if work is None:
        _emit(args, {"instance": args.graph, "infeasible": True},
              [f"instance: {args.graph}", "infeasible: trivial-vertex cascade failed"])
        return EXIT_INFEASIBLE
    forced = reduction.forced
    t0 = time.monotonic()
    try:
        c = certify_instance(work, args.mode, cert_override=cert_override)
    except InfeasibleError:
        _emit(args, {"instance": args.graph, "infeasible": True},
              [f"instance: {args.graph}", "infeasible: no feasible matching"])
        return EXIT_INFEASIBLE
    if args.emit_cert:
        _write(args.emit_cert, serialize_certificate(c.cert))
    payload = {"instance": args.graph, "mode": args.mode,
               "reduced_n": work.n, "reduced_m": work.m,
               "forced": _fmt_edges(forced),
               "certification": c.summary()}
    eps = c.cert.epsilon
    lines = [f"instance: {args.graph} (mode={args.mode})"]
    if forced:
        lines.append(f"forced edges: {_fmt_edges(forced)}")
    lines.append(f"reduced instance: n={work.n} m={work.m}")
    lines.append(f"brute force: optimum {c.bf_weight}, {len(c.bf_optima)} optimal matching(s)")
    lines.append(f"lp: objective {c.lp.objective} ({'integral' if c.lp.integral else 'fractional'} vertex)")
    lines.append(f"tight: {c.tight} ({c.tight_reason})")
    if c.witness is not None:
        lines.append("fractional witness: "
                     + ", ".join(f"x[{i}-{j}]={v}" for (i, j), v in sorted(c.witness.items()) if v != 0))
    lines.append("dual y: " + ", ".join(f"y[{i}]={v}" for i, v in sorted(c.cert.y.items())))
    nz = {e: v for e, v in c.cert.lam.items() if v != 0}
    lines.append("dual lambda: " + (", ".join(f"l[{i}-{j}]={v}" for (i, j), v in sorted(nz.items()))
                                    if nz else "all zero"))
    lines.append(f"gap set S: {_fmt_edges(c.cert.S)}")
    if eps is None:
        lines.append(f"epsilon undefined (S empty); bound n+1 = {work.n + 1}")
    else:
        lines.append(f"epsilon = {eps}, L = {c.cert.L}")
    lines.append(f"iteration bound: {c.bound}" if c.bound is not None
                 else "iteration bound: not applicable (not tight)")
    lines.append(f"complementary slackness: {'pass' if c.cs_ok else 'FAIL'}")
    lines.append(f"wall time: {time.monotonic() - t0:.3f}s")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_tree_verify(args) -> int:
    _at_least(args.t_max, 0, "--t-max")
    g = parse_graph(_read(args.graph))
    work, _, _ = prepare_instance(g, PERFECT)
    if work is None:
        _emit(args, {"instance": args.graph, "infeasible": True}, ["infeasible instance"])
        return EXIT_INFEASIBLE
    sched = _parse_schedule_flag(args.schedule, work)
    if not sched.trusted:
        raise ScheduleError("tree-verify supports generated schedules only")
    builder = GCTBuilder(work, sched, args.t_max)
    rows, ok, first = _tree_verify(work, args.t_max, sched, builder)
    if args.dump_tree:
        chunks = [f"# root {root}, t={args.t_max}\n" + dump_tree(builder.gct(root, args.t_max))
                  for root in work.vertices()]
        _write(args.dump_tree, "\n".join(chunks))
    payload = {"instance": args.graph, "t_max": args.t_max,
               "schedule": sched.kind, "checks": len(rows), "ok": ok,
               "first_mismatch": first}
    lines = [f"instance: {args.graph} (reduced n={work.n}), t_max={args.t_max}, "
             f"schedule={sched.kind}"]
    if ok:
        lines.append(f"all {len(rows)} root/time checks passed "
                     "(messages, selections, depth)")
    else:
        lines.append(f"MISMATCH at root={first['root']} t={first['t']}: {first}")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_sweep(args) -> int:
    _at_least(args.instances, 0, "--instances")
    _at_least(args.n_max, 3, "--n-max")
    t0 = time.monotonic()
    result = sweep(args.mode, instances=args.instances, n_max=args.n_max,
                   seed=args.seed, weight_lo=args.weight_lo, weight_hi=args.weight_hi,
                   distinct=args.distinct)
    lines = [f"sweep: {result['instances']} instances (mode={args.mode}, seed={args.seed})",
             f"feasible: {result['feasible']}, tight: {result['tight']}",
             f"matches on tight: {result['matches']}/{result['tight']} "
             f"(mismatches: {result['mismatches']})",
             f"strong duality: {'ok' if result['duality_ok'] else 'FAIL'}; "
             f"complementary slackness: {'ok' if result['cs_ok'] else 'FAIL'}",
             f"tightness cross-check agreement: {result['tightness_agreements']}"
             f"/{result['tightness_checked_both_ways']}",
             f"max bound {result['stabilization']['max_bound']}, "
             f"max stabilized-at {result['stabilization']['max_stabilized_at']}",
             f"wall time: {time.monotonic() - t0:.2f}s"]
    _emit(args, result, lines)
    bad = (result["mismatches"] or not result["duality_ok"] or not result["cs_ok"]
           or result["tightness_agreements"] != result["tightness_checked_both_ways"])
    return EXIT_MISMATCH if bad else EXIT_OK


def cmd_schedule_validate(args) -> int:
    _at_least(args.horizon, 0, "--horizon")
    g = parse_graph(_read(args.graph))
    sched = _parse_schedule_flag(args.schedule, g)
    violation = validate_schedule(g, sched, args.horizon)
    cov = coverage(g, sched, args.horizon)
    payload = {"instance": args.graph, "schedule": sched.describe(),
               "horizon": args.horizon, "u": cov.u,
               "violation": None if violation is None else
               {"edge": list(violation.edge), "t_prev": violation.t_prev, "t": violation.t}}
    if violation is None:
        lines = [f"schedule {sched.describe()} ok over horizon {args.horizon}; u={cov.u}"]
    else:
        lines = [f"violation: edge {violation.edge} re-updated at step {violation.t} "
                 f"with no feeding update since step {violation.t_prev}"]
    _emit(args, payload, lines)
    return EXIT_OK if violation is None else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bpmatch",
                                description="Message-passing b-matching solver with exact certification")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mode=True):
        if mode:
            sp.add_argument("--mode", choices=[PERFECT, NONPERFECT], default=PERFECT)
        sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("solve", help="run message passing on a graph file")
    sp.add_argument("graph")
    common(sp)
    sp.add_argument("--init", default="weights", help="weights | zero | file=PATH")
    sp.add_argument("--stop", default=None, help="budget=T | window=K | certified")
    sp.add_argument("--schedule", default=None,
                    help="sync | roundrobin | random:SEED | file=PATH")
    sp.add_argument("--certify", action="store_true",
                    help="run the oracle and compare the estimate against it")
    sp.add_argument("--force", action="store_true",
                    help="accept redundant schedules (uncertified)")
    sp.add_argument("--trace", default=None, help="write 't i j value' message trace")
    sp.add_argument("--emit-cert", default=None)
    sp.add_argument("--dual-file", default=None)
    sp.set_defaults(cmd="solve")

    sp = sub.add_parser("certify", help="oracle analysis and dual certificate")
    sp.add_argument("graph")
    common(sp)
    sp.add_argument("--emit-cert", default=None)
    sp.add_argument("--dual-file", default=None)
    sp.set_defaults(cmd="certify")

    sp = sub.add_parser("tree-verify", help="check the engine against tree optimization")
    sp.add_argument("graph")
    common(sp, mode=False)
    sp.add_argument("--t-max", type=int, default=4)
    sp.add_argument("--schedule", default=None, help="sync | roundrobin | random:SEED")
    sp.add_argument("--dump-tree", default=None, help="write indented tree dumps")
    sp.set_defaults(cmd="tree_verify")

    sp = sub.add_parser("sweep", help="random-instance sweep with oracle filtering")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--instances", type=int, default=200)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--weight-lo", type=int, default=None)
    sp.add_argument("--weight-hi", type=int, default=None)
    sp.add_argument("--distinct", action="store_true", help="distinct weights")
    sp.set_defaults(cmd="sweep")

    sp = sub.add_parser("schedule-validate", help="check a schedule for redundancies")
    sp.add_argument("graph")
    common(sp, mode=False)
    sp.add_argument("--schedule", required=True)
    sp.add_argument("--horizon", type=int, default=100)
    sp.set_defaults(cmd="schedule_validate")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so the command run is the module's current
        # cmd_* function
        return globals()["cmd_" + args.cmd](args)
    except (GraphParseError, ValidationError, CertificateError, ScheduleError,
            UsageError, WeightRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
