"""Experiment orchestration: the parse/validate/reduce/solve/certify pipeline
behind the command line, random instance generation, sweeps, and the
tree-versus-engine verifier."""

from __future__ import annotations

import random
import time
from operator import itemgetter
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (Graph, PERFECT, NONPERFECT, Matching, Reduction, require_valid,
                    reduce_trivial)
from .engine import MessageInit, StopPolicy, RunResult, run_sync, _select
from .schedule import Schedule, make_schedule, run_async
from .ctree import GCTBuilder, _solve
from . import oracle
from .oracle import (brute_force, solve_relaxation, is_tight, check_cs,
                     iteration_bound, coverage_threshold,
                     tightness_by_enumeration, parse_certificate, InfeasibleError,
                     LPSolution, DualCertificate)


def _fmt(value):
    return str(value) if isinstance(value, Fraction) else value


def _fmt_edges(edges):
    return sorted(list(e) for e in edges)


@dataclass
class Certification:
    bf_weight: Fraction
    bf_optima: list
    lp: LPSolution
    cert: DualCertificate
    tight: bool
    tight_reason: str
    witness: dict | None
    bound: int | None
    cs_ok: bool

    def summary(self):
        out = {
            "bf_weight": _fmt(self.bf_weight),
            "bf_optima": len(self.bf_optima),
            "lp_objective": _fmt(self.lp.objective),
            "tight": self.tight,
            "tight_reason": self.tight_reason,
            "epsilon": _fmt(self.cert.epsilon) if self.cert.epsilon is not None else None,
            "L": _fmt(self.cert.L),
            "gap_edges": _fmt_edges(self.cert.S),
            "bound": self.bound,
            "cs_ok": self.cs_ok,
        }
        if self.witness is not None:
            out["witness"] = {f"{i}-{j}": _fmt(v) for (i, j), v in sorted(self.witness.items())}
        return out


def certify_instance(g: Graph, mode: str, init: MessageInit | None = None,
                     cert_override: DualCertificate | None = None) -> Certification:
    """Oracle pipeline on one (already reduced, validated) instance."""
    optima = bf_weight, bf_all = brute_force(g, mode)
    relaxation = sol, cert = solve_relaxation(g, mode)
    if cert_override is not None:
        value = oracle.dual_objective(g, cert_override)
        if value != sol.objective:
            raise oracle.CertificateError(
                "supplied dual is feasible but not optimal; its objective is "
                f"{value}, the optimum is {sol.objective}")
        cert = cert_override
    # the verdict uses the solver's own dual, whatever bound dual was supplied
    report = is_tight(g, mode, optima=optima, relaxation=relaxation)
    cs = check_cs(g, sol, cert)
    bound = iteration_bound(g, cert, init, mode) if report.tight else None
    return Certification(bf_weight, bf_all, sol, cert, report.tight, report.reason,
                         report.witness, bound, cs.ok)


@dataclass
class ExperimentReport:
    instance: str
    n: int
    m: int
    mode: str
    schedule: str | None
    certification: Certification | None
    infeasible: bool
    run: RunResult | None
    final_edges: frozenset | None
    final_weight: Fraction | None
    matching_ok: bool | None
    match: bool | None
    certified: bool
    extrapolated: bool = False
    wall_time: float = 0.0
    notes: list = field(default_factory=list)

    def exit_code(self) -> int:
        if self.infeasible:
            return 3
        if self.certified:
            # a certified run answers at its stop point: ties or a mismatch
            # there contradict the certificate and are hard failures
            if self.run is not None and self.run.estimate.ties:
                return 5
            return 0 if self.match else 5
        if self.match is True:
            return 0
        if self.run is not None and not self.run.converged:
            return 4
        if self.match is False:
            return 5
        return 0

    def to_dict(self):
        out = {
            "instance": self.instance,
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "schedule": self.schedule,
            "infeasible": self.infeasible,
            "certified": self.certified,
            "extrapolated": self.extrapolated,
            "notes": self.notes,
        }
        if self.certification is not None:
            out["certification"] = self.certification.summary()
        if self.run is not None:
            r = self.run
            out["bp"] = {
                "iterations": r.iterations,
                "stabilized_at": r.stabilized_at,
                "stable_for": r.stable_for,
                "converged": r.converged,
                "period": r.period,
                "ties": sorted(r.estimate.ties),
            }
            if r.coverage is not None:
                out["bp"]["u"] = r.coverage.u
        if self.final_edges is not None:
            out["estimate"] = _fmt_edges(self.final_edges)
            out["estimate_weight"] = _fmt(self.final_weight)
            out["matching_ok"] = self.matching_ok
        if self.match is not None:
            out["match"] = self.match
        out["exit_code"] = self.exit_code()
        return out


def _resolve_stop(stop_spec, g: Graph, certification, mode, init, is_async, notes):
    """The policy a run on `g` stops by, and whether it is certified, from a
    CLI stop spec: None is ("window", None).

    A window of no given size is the engine's default, n, on a synchronous
    run, and max(n, 2 |directed edges|) on an asynchronous one, whose
    single-edge steps move slowly.  A certified stop is the certificate's
    iteration bound (sync) or coverage threshold (async) when the relaxation
    is tight.  When it is not, the stop falls back to a window of no given
    size, with a note, and a synchronous run gives up after 10 n rounds."""
    kind, arg = stop_spec or ("window", None)
    if kind == "budget":
        return StopPolicy.budget(arg), False
    if kind == "certified":
        if certification is not None and certification.tight:
            if is_async:
                return StopPolicy.coverage(
                    coverage_threshold(g, certification.cert, mode, init)), True
            return StopPolicy.budget(certification.bound), True
        notes.append("certified stop unavailable (relaxation not tight); "
                     "falling back to a stability window")
        if not is_async:
            return StopPolicy.window(None, limit=10 * max(g.n, 1)), False
    elif kind != "window":
        raise ValueError(f"unknown stop kind {kind!r}")
    if arg is None and is_async:
        arg = max(g.n, 2 * len(g.directed_edges()))
    return StopPolicy.window(arg), False


def _infeasible_report(instance_name, g: Graph, mode, t0, note) -> ExperimentReport:
    """The report of a solve of `g` that found it infeasible, begun at t0."""
    return ExperimentReport(instance_name, g.n, g.m, mode, None, None, True,
                            None, None, None, None, None, False,
                            wall_time=time.monotonic() - t0, notes=[note])


def prepare_instance(g: Graph, mode: str, dual_text=None):
    """Validate `g` for `mode`, reduce its trivial vertices in perfect mode,
    and parse `dual_text`, the text of a dual certificate file, against the
    reduced instance.  Returns (work, reduction, cert_override): the instance
    to solve, or None when the reduction proves it infeasible; the reduction,
    the identity in non-perfect mode; the parsed certificate, None without
    text."""
    require_valid(g, mode)
    reduction = reduce_trivial(g) if mode == PERFECT else Reduction.identity(g)
    if reduction.infeasible:
        return None, reduction, None
    work = reduction.graph
    cert_override = parse_certificate(dual_text, work, mode) if dual_text is not None else None
    return work, reduction, cert_override


def solve_pipeline(g: Graph, mode: str, *, instance_name="<memory>",
                   init: MessageInit | None = None, stop_spec=None,
                   schedule: Schedule | None = None, certify=False, dual_text=None,
                   force_schedule=False, keep_trace=False) -> ExperimentReport:
    """Full solve: validate, reduce (perfect) and parse `dual_text` through
    `prepare_instance`, run message passing, restore forced edges, and
    optionally certify against the oracle.

    `schedule` is a Schedule on `g`.  None, or one of kind sync, is the
    synchronous run (run_sync); any other runs run_async.  On a reduced
    instance a generated schedule is made again on the reduced graph from
    its kind and seed, and a materialized one is relabeled onto it."""
    t0 = time.monotonic()
    notes = []
    work, reduction, cert_override = prepare_instance(g, mode, dual_text)
    if work is None:
        return _infeasible_report(instance_name, g, mode, t0,
                                  "trivial-vertex cascade proves infeasibility")
    if reduction.forced:
        notes.append(f"{len(reduction.forced)} forced edge(s) from trivial vertices")
    if init is not None and init.kind == "explicit" and not reduction.is_identity:
        init = MessageInit.explicit(reduction.to_reduced(init.mapping))
        notes.append("initial messages relabeled onto the reduced instance")

    want_oracle = certify or (stop_spec is not None and stop_spec[0] == "certified")
    certification = None
    if want_oracle:
        try:
            certification = certify_instance(work, mode, init, cert_override)
        except InfeasibleError:
            return _infeasible_report(instance_name, g, mode, t0,
                                      "oracle found no feasible matching")

    is_async = schedule is not None and schedule.kind != "sync"
    stop, certified = _resolve_stop(stop_spec, work, certification, mode, init, is_async,
                                    notes)
    extrapolated = certified and is_async and mode == NONPERFECT
    if extrapolated:
        notes.append("asynchronous non-perfect certified stop is extrapolated")

    if not is_async:
        run = run_sync(work, mode, init, stop, keep_trace=keep_trace)
    else:
        if not reduction.is_identity:
            if schedule.trusted:
                schedule = make_schedule(work, schedule.kind, seed=schedule.seed)
            else:
                schedule = make_schedule(work, "explicit", sets=[
                    reduction.to_reduced(dict.fromkeys(s)) for s in schedule])
                notes.append("schedule relabeled onto the reduced instance")
        run = run_async(work, schedule, init, stop, mode,
                        check_redundancy=not force_schedule, keep_trace=keep_trace)
        if force_schedule and not schedule.trusted:
            certified = False
            notes.append("schedule validation waived; result uncertified")

    final = reduction.to_original(run.estimate.edges)
    weight = g.total_weight(final)
    matching = Matching(final, mode, weight)
    matching_ok = matching.is_valid(g)

    match = None
    if certification is not None:
        match = final == reduction.to_original(certification.bf_optima[0])

    return ExperimentReport(instance_name, g.n, g.m, mode, run.schedule_kind, certification,
                            False, run, final, weight, matching_ok, match,
                            certified, extrapolated, time.monotonic() - t0, notes)


# -- random instances and sweeps -----------------------------------------------------

class WeightRangeError(ValueError):
    """Random-instance weight bounds with no integer between them."""


def random_instance(rng: random.Random, n_max=6, mode=PERFECT,
                    weight_lo=None, weight_hi=None, distinct=False) -> Graph:
    """Random simple graph with capacities admissible for the mode: every
    vertex keeps degree strictly above (perfect) or at least (non-perfect)
    its capacity, so perfect instances need no reduction."""
    if weight_lo is None:
        weight_lo = 1 if mode == PERFECT else -30
    if weight_hi is None:
        weight_hi = 30 if mode == PERFECT else -1
    if weight_lo > weight_hi:
        raise WeightRangeError(f"empty weight range: weight_lo {weight_lo} > "
                               f"weight_hi {weight_hi} (mode {mode})")
    while True:
        n = rng.randint(3, n_max)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        if rng.random() < 0.5:
            chosen = pairs
        else:
            p = rng.uniform(0.5, 0.9)
            chosen = [e for e in pairs if rng.random() < p]
        deg = dict.fromkeys(range(1, n + 1), 0)
        for (i, j) in chosen:
            deg[i] += 1
            deg[j] += 1
        caps = []
        ok = True
        for i in range(1, n + 1):
            head = 1 if mode == PERFECT else 0
            if deg[i] < 1 + head:
                ok = False
                break
            b = 1
            if deg[i] >= 2 + head and rng.random() < 0.2:
                b = 2
            caps.append(b)
        if not ok:
            continue
        if mode == PERFECT and sum(caps) % 2 == 1:
            # odd total capacity can never be perfectly matched; adjust one vertex
            droppable = [k for k, b in enumerate(caps) if b == 2]
            bumpable = [k for k, b in enumerate(caps) if b == 1 and deg[k + 1] >= 3]
            if droppable:
                caps[rng.choice(droppable)] = 1
            elif bumpable:
                caps[rng.choice(bumpable)] = 2
            else:
                continue
        m = len(chosen)
        if distinct and weight_hi - weight_lo + 1 >= m:
            weights = rng.sample(range(weight_lo, weight_hi + 1), m)
        else:
            weights = [rng.randint(weight_lo, weight_hi) for _ in range(m)]
        return Graph(n, caps, [(i, j, w) for (i, j), w in zip(chosen, weights)])


def analyze_instance(g: Graph, mode: str):
    """One sweep step: oracle, consistency cross-checks, certified run."""
    row = {"n": g.n, "m": g.m, "mode": mode}
    try:
        c = certify_instance(g, mode)
    except InfeasibleError:
        row.update(feasible=False, tight=None, match=None)
        return row
    except oracle.StrongDualityError:
        row.update(feasible=True, strong_duality=False, tight=None, match=None)
        return row
    row["feasible"] = True
    row["cs_ok"] = c.cs_ok
    row["tight"] = c.tight
    if g.m <= oracle.ENUMERATION_GUARD:
        enum_tight, _ = tightness_by_enumeration(g, mode, c.lp.objective)
        row["tight_enum"] = enum_tight
        row["tight_agree"] = enum_tight == c.tight
    if not c.tight:
        row["match"] = None
        return row
    row["bound"] = c.bound
    run = run_sync(g, mode, None, StopPolicy.budget(c.bound))
    row["stabilized_at"] = run.stabilized_at
    row["match"] = run.estimate.edges == c.bf_optima[0]
    return row


def sweep(mode: str, instances=200, n_max=6, seed=0, weight_lo=None, weight_hi=None,
          distinct=False):
    """Generate, certify, and solve random instances; aggregate the outcome."""
    rng = random.Random(seed)
    rows = []
    for _ in range(instances):
        g = random_instance(rng, n_max, mode, weight_lo, weight_hi, distinct)
        rows.append(analyze_instance(g, mode))
    feasible = [r for r in rows if r.get("feasible")]
    tight = [r for r in feasible if r.get("tight")]
    matches = [r for r in tight if r.get("match")]
    agree = [r for r in rows if "tight_agree" in r]
    return {
        "mode": mode,
        "instances": len(rows),
        "feasible": len(feasible),
        "tight": len(tight),
        "matches": len(matches),
        "mismatches": len(tight) - len(matches),
        "duality_ok": all(r.get("strong_duality", True) for r in rows),
        "cs_ok": all(r.get("cs_ok", True) for r in rows),
        "tightness_agreements": len([r for r in agree if r["tight_agree"]]),
        "tightness_checked_both_ways": len(agree),
        "stabilization": {
            "max_bound": max((r["bound"] for r in tight), default=None),
            "max_stabilized_at": max((r["stabilized_at"] for r in tight), default=None),
        },
    }


# -- tree verification -----------------------------------------------------------------

def tree_verify(g: Graph, t_max: int, schedule_kind=None, schedule_seed=None,
                init: MessageInit | None = None):
    """Compare engine messages/estimates against tree optimization for every
    root and every t <= t_max, and check that every generalized tree is at
    least u(t) deep; returns (rows, ok, first_mismatch).  A missing schedule
    kind means the all-edges schedule, whose trees are the balanced ones.

    One forward pass: step t solves the branches new at t and applies the
    trace's writes at t, both ints of the run's scale, trace.scale
    (lcm(g.scale, the init values' denominators)), which the DP is handed;
    a tree value off that scale raises TreeError rather than reading as a
    mismatch.  The node cap is checked at t_max only, as unrolled sizes
    never shrink with t.  A root ranks its incoming values by _select on
    the engine's side, by (value, label) on the DP's.

    Every root is checked at t = 0, and after that only when one of its
    in-edges got a new branch or a new message at t; otherwise its values,
    its branches and so its flags are those of t - 1, and it keeps them.
    Only the depth check is read again at every t, against the current
    u(t).  So the checks cost O(n + sum |E(t)|) and the rows O(n t)."""
    sched = make_schedule(g, schedule_kind or "sync", seed=schedule_seed)
    return _tree_verify(g, t_max, sched, GCTBuilder(g, sched, t_max), init)


def _tree_verify(g: Graph, t_max: int, sched, builder: GCTBuilder,
                 init: MessageInit | None = None):
    """tree_verify on the schedule `sched` and its trees' builder, which a
    caller can keep to read the trees from."""
    rows, first = [], None
    init_map = init.build(g) if init is not None and init.kind != "weights" else None
    trace = run_async(g, sched, init, StopPolicy.budget(t_max), PERFECT, keep_trace=True).trace
    for root in g.vertices():
        builder.gct(root, t_max)
    # per directed edge: its branch's DP value and depth, scaled message and
    # updates at t (grown[0] counts none); per root, a gather of its 2+
    # in-edges, and its flags as last checked: messages, selection and the
    # least depth of its in-edges' branches
    memo, want, depth, got = {}, {}, {}, dict(zip(trace.dirs, trace.start))
    wrote = iter(trace.wrote)
    # u(t) is the least update count and at_u the number of edges at it; u
    # is taken again, by an O(m) pass, only once the last of those is
    # updated, and has then risen: u = k takes k updates of every edge, so
    # the passes cost O(1) per update, amortized
    counts = dict.fromkeys(g.directed_edges(), -1)
    u, at_u = -1, len(counts)
    roots = {i: (g.neighbors(i), g.cap(i), itemgetter(*((r, i) for r in g.neighbors(i))))
             for i in g.vertices()}
    flags, head = dict.fromkeys(g.vertices()), itemgetter(1)
    for t, new in enumerate(builder.grown):
        _solve(g, [(node, j) for (_, j), node in new.items()], init_map, trace.scale, memo)
        for e, node in new.items():
            want[e], depth[e] = memo[node][0], node.depth
            c = counts[e]
            counts[e] = c + 1
            if c == u:
                at_u -= 1
        if not at_u:
            u = min(counts.values(), default=0)
            at_u = list(counts.values()).count(u)
        # a root's flags change only with its in-edges' branches or messages;
        # grown[0] holds every edge, so at t = 0 every root is checked
        dirty = set(map(head, new))
        for plan in trace.plans[t - 1:t] if t else ():
            written = list(map(trace.dirs.__getitem__, plan.ids))
            got.update(zip(written, wrote))
            dirty.update(map(head, written))
        for root in dirty:
            nbrs, b, into = roots[root]
            dp, vals = into(want), into(got)
            chosen = sorted(zip(dp, nbrs))[:b]
            sel_ok = (sorted(label for _, label in chosen)
                      == sorted(_select(nbrs, b, vals, PERFECT)[0]))
            flags[root] = (dp == vals, sel_ok, min(into(depth)))
        for root, (msgs_ok, sel_ok, least) in flags.items():
            depth_ok = 1 + least >= u
            rows.append({"root": root, "t": t, "messages": msgs_ok,
                         "selection": sel_ok, "depth": depth_ok})
            if first is None and not (msgs_ok and sel_ok and depth_ok):
                first = rows[-1]
    return rows, first is None, first
