"""The four workloads.

Each workload generates plain-data inputs from the seed, turns them into
what the program reads during a timed set-up (``setup``; on solve-large
generating and writing the graph files is the set-up), computes its
references once with the independent checkers (while selecting inputs, or
in ``references``), and then runs rounds of ``ops()``: ``run`` is the timed
operation, ``check`` compares its output with the references and returns
None or (reason, detail).  ``probe`` runs after an op in traced runs only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import check
import gen
from gen import NONPERFECT, PERFECT

WRONG = "wrong answer"
EXIT = "unexpected exit code"
EXC = "exception"


def _edge_set(edges):
    return frozenset((min(i, j), max(i, j)) for i, j in edges)


class Workload:
    name = ""
    setup_reps = 5
    #: reference problems found outside the ops (certificates, lemma checks)
    problems: list

    def setup(self, bp):
        raise NotImplementedError

    def references(self, bp):
        pass

    def ops(self):
        raise NotImplementedError

    def label(self, op):
        raise NotImplementedError

    def run(self, bp, op, tracer):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def probe(self, bp, op, out, tracer):
        pass


# -- certify-sweep -------------------------------------------------------------------

# (mode, n, m, tight, count) per round.  Op cost grows with the edge count
# and with tightness (two LPs per free edge), so the mix is fixed and only
# the graphs and weights come from the seed.
CERTIFY_SLOTS = [
    (PERFECT, 4, 6, True, 10), (PERFECT, 5, 8, True, 10), (PERFECT, 5, 10, True, 6),
    (PERFECT, 6, 12, True, 4), (PERFECT, 6, 15, True, 6), (PERFECT, 6, 15, False, 6),
    (NONPERFECT, 4, 6, True, 8), (NONPERFECT, 4, 6, False, 6),
    (NONPERFECT, 5, 10, True, 6), (NONPERFECT, 5, 10, False, 6), (NONPERFECT, 6, 15, False, 6),
]


class CertifySweep(Workload):
    """solve_pipeline(certify=True, stop certified) on small instances, both
    modes interleaved: the oracle and the simplex do most of the work."""
    name = "certify-sweep"

    def __init__(self, seed):
        self.problems = []
        rng = gen.rng_for(seed, self.name)
        slots = []
        for mode, n, m, tight, count in CERTIFY_SLOTS:
            for _ in range(count):
                while True:
                    inst = gen.small_instance(rng, n, m, mode)
                    weight, optima = check.naive_optima(*inst, mode)
                    if weight is not None and \
                            check.is_tight(*inst, mode, weight, optima) == tight:
                        break
                slots.append((mode, inst, (weight, optima, tight)))
        rng.shuffle(slots)
        self.inputs = [(mode, inst) for mode, inst, _ in slots]
        self.refs = [ref for _, _, ref in slots]

    def setup(self, bp):
        self.graphs = [bp.Graph(*inst) for _, inst in self.inputs]

    def ops(self):
        return range(len(self.inputs))

    def label(self, op):
        return f"{self.inputs[op][0]}#{op}"

    def run(self, bp, op, tracer):
        return bp.harness.solve_pipeline(self.graphs[op], self.inputs[op][0], certify=True,
                                         stop_spec=("certified", None))

    def check(self, op, rep):
        mode, (n, caps, edges) = self.inputs[op]
        weight, optima, tight = self.refs[op]
        if rep.infeasible:
            return WRONG, "reported infeasible"
        c = rep.certification
        if c.bf_weight != weight or len(c.bf_optima) != len(optima):
            return WRONG, f"oracle optimum {c.bf_weight} x{len(c.bf_optima)}, naive {weight} x{len(optima)}"
        problems, lp_opt = check.lp_proof(n, caps, edges, mode, c.lp.x, c.cert.y, c.cert.lam)
        if problems or lp_opt != c.lp.objective:
            return WRONG, f"LP proof: {problems[:3] or lp_opt}"
        if c.tight != tight:
            return WRONG, f"tight={c.tight}, independent decision {tight}"
        final = rep.final_edges
        if rep.final_weight != check.weight_of(edges, final):
            return WRONG, "reported weight differs from the estimate's weight"
        if tight:
            # The exit code is not checked: non-perfect certified runs that
            # match the optimum can still report exit 5 for zero messages.
            if final != optima[0] or not rep.certified or not rep.match:
                return WRONG, f"certified estimate {sorted(final)} != optimum {sorted(optima[0])}"
            problems = check.degree_check(n, caps, edges, mode, final)
            return (WRONG, f"degree: {problems[:3]}") if problems else None
        problems = check.witness_check(n, caps, edges, mode, c.witness, lp_opt, optima)
        if problems:
            return WRONG, f"witness: {problems[:3]}"
        if rep.matching_ok and check.degree_check(n, caps, edges, mode, final):
            return WRONG, "estimate reported valid but fails the degree check"
        return None


# -- async-certify ---------------------------------------------------------------------

class AsyncCertify(Workload):
    """run_async under a coverage stop on tight perfect cubic instances, with
    round-robin and seeded random schedules: one edge per step, and a
    whole-graph estimate after every step.

    Each run stops at the first step where u(t) exceeds both the certified
    threshold and FLOOR.  Certified thresholds of these instances range over
    an order of magnitude, which made the step count per op (and so
    ops_per_s) depend mostly on which instances a seed drew; with the floor
    every op does about FLOOR cycles of updates and the run is still
    certified."""
    name = "async-certify"
    INSTANCES = 11
    FLOOR = 90
    setup_reps = 3

    def __init__(self, seed):
        self.problems = []
        rng = gen.rng_for(seed, self.name)
        self.inputs, self.refs = [], []
        # Keep feasible instances that the independent test finds tight.
        while len(self.inputs) < self.INSTANCES:
            inst = gen.cubic_instance(rng, 6, 5)
            weight, optima = check.naive_optima(*inst, PERFECT)
            if weight is not None and check.is_tight(*inst, PERFECT, weight, optima):
                self.inputs.append(inst)
                self.refs.append(optima[0])
        # Random schedules cost about 1.4x round-robin per op (boundary
        # resampling); two of them to one round-robin keep the median op
        # inside one cost cluster.
        self.op_list = [(i, kind, rng.randrange(1 << 30) if kind == "random" else None)
                        for i in range(len(self.inputs))
                        for kind in ("roundrobin", "random", "random")]
        self.coverage = {}

    def setup(self, bp):
        self.bp = bp
        self.graphs, self.certs, self.thresholds = [], [], []
        for inst in self.inputs:
            g = bp.Graph(*inst)
            sol, cert = bp.oracle.solve_relaxation(g, PERFECT)
            self.graphs.append(g)
            self.certs.append((sol, cert))
            self.thresholds.append(bp.oracle.coverage_threshold(g, cert, PERFECT))

    def references(self, bp):
        for (n, caps, edges), (sol, cert), thr in zip(self.inputs, self.certs, self.thresholds):
            problems, _ = check.lp_proof(n, caps, edges, PERFECT, sol.x, cert.y, cert.lam)
            eps = check.gap_epsilon(edges, PERFECT, cert.y)
            mine = check.coverage_bound(n, PERFECT, cert.y, eps)
            if mine != thr:
                problems.append(f"threshold {thr} != 2nL/epsilon = {mine}")
            self.problems += [f"certificate: {p}" for p in problems]

    def ops(self):
        return range(len(self.op_list))

    def label(self, op):
        i, kind, s = self.op_list[op]
        return f"#{i}:{kind}" + (f":{s}" if s is not None else "")

    def _schedule(self, bp, op):
        i, kind, s = self.op_list[op]
        return bp.schedule.make_schedule(self.graphs[i], kind, seed=s)

    def run(self, bp, op, tracer):
        i = self.op_list[op][0]
        stop = bp.engine.StopPolicy.coverage(max(self.thresholds[i], self.FLOOR))
        return bp.schedule.run_async(self.graphs[i], self._schedule(bp, op), stop=stop)

    def check(self, op, res):
        i = self.op_list[op][0]
        if op not in self.coverage:
            # count updates per directed edge along the same schedule prefix
            counts = {}
            for step in self._schedule(self.bp, op).prefix(res.iterations):
                for e in step:
                    counts[e] = counts.get(e, 0) + 1
            directed = [(a, b) for x, y, _ in self.inputs[i][2] for a, b in ((x, y), (y, x))]
            self.coverage[op] = (res.iterations, min(counts.get(d, 0) for d in directed))
        steps, u = self.coverage[op]
        if res.iterations != steps or res.coverage.u != u:
            return WRONG, f"{res.iterations} steps with u={res.coverage.u}, expected {steps}, u={u}"
        if not u > max(self.thresholds[i], self.FLOOR) or not res.converged:
            return WRONG, f"u={u} does not exceed the threshold {self.thresholds[i]}"
        if res.estimate.edges != self.refs[i]:
            return WRONG, f"estimate {sorted(res.estimate.edges)} != optimum {sorted(self.refs[i])}"
        return None

    def probe(self, bp, op, res, tracer):
        i = self.op_list[op][0]
        t0 = time.perf_counter()
        self._schedule(bp, op).prefix(res.iterations)
        t1 = time.perf_counter()
        bp.schedule.validate_schedule(self.graphs[i], self._schedule(bp, op), res.iterations)
        t2 = time.perf_counter()
        tracer.add("schedule.generate", t0, t1)
        tracer.add("schedule.validate", t1, t2)


# -- tree-verify ----------------------------------------------------------------------

class TreeVerify(Workload):
    """tree_verify on cubic instances for balanced trees (kind None and
    "sync") and schedule-driven trees (round-robin, seeded random).  On a
    cubic graph every balanced tree of level t has 1 + 3(2^(t+1) - 1) nodes,
    so ops do the same amount of tree work whatever the seed."""
    name = "tree-verify"
    INSTANCES = 4
    T_BALANCED = 7
    GCT_CYCLES = 3      # t_max of schedule-driven trees, in units of 2m steps

    def __init__(self, seed):
        self.problems = []
        rng = gen.rng_for(seed, self.name)
        self.inputs = [gen.cubic_instance(rng, 6, 30) for _ in range(self.INSTANCES)]
        self.op_list = []
        for i, (n, caps, edges) in enumerate(self.inputs):
            t_gct = self.GCT_CYCLES * 2 * len(edges)
            # three schedule-driven ops to two balanced ones, so the median
            # op lies inside one cost cluster rather than between two
            self.op_list += [(i, None, self.T_BALANCED, None), (i, "sync", self.T_BALANCED, None),
                             (i, "roundrobin", t_gct, None),
                             (i, "random", t_gct, rng.randrange(1 << 30)),
                             (i, "random", t_gct, rng.randrange(1 << 30))]

    def setup(self, bp):
        self.graphs = [bp.Graph(*inst) for inst in self.inputs]

    def references(self, bp):
        """The computation-tree lemma on every op's instance, schedule and
        horizon: reference messages equal the tree values, and the engine's
        messages and selections equal both."""
        PStop = bp.engine.StopPolicy
        for i, kind, t_max, s in self.op_list:
            n, caps, edges = self.inputs[i]
            g = self.graphs[i]
            if kind in (None, "sync"):
                sets = [frozenset(g.directed_edges())] * t_max
                run = bp.engine.run_sync(g, PERFECT, None, PStop.budget(t_max), keep_trace=True)
            else:
                sets = bp.schedule.make_schedule(g, kind, seed=s).prefix(t_max)
                run = bp.schedule.run_async(g, bp.schedule.make_schedule(g, kind, seed=s), None,
                                            PStop.budget(t_max), PERFECT, keep_trace=True)
            ref = check.reference_messages(n, caps, edges, sets, t_max)
            tree = check.TreeValues(n, caps, edges, sets)
            for t in range(t_max + 1):
                state = run.trace[t].m
                est = bp.engine.extract_estimate(g, run.trace[t], PERFECT)
                for (a, b), v in ref[t].items():
                    if tree.message(a, b, t) != v:
                        self.problems.append(f"#{i} {kind} t={t}: tree value of {a}->{b} != message")
                    if state[(a, b)] != v:
                        self.problems.append(f"#{i} {kind} t={t}: engine message {a}->{b} wrong")
                for root in range(1, n + 1):
                    if tuple(sorted(est.selected[root])) != tree.root_selection(root, t):
                        self.problems.append(f"#{i} {kind} t={t}: engine selection at {root} wrong")

    def ops(self):
        return range(len(self.op_list))

    def label(self, op):
        i, kind, t_max, s = self.op_list[op]
        return f"#{i}:{kind or 'balanced'}:t={t_max}"

    def run(self, bp, op, tracer):
        i, kind, t_max, s = self.op_list[op]
        return bp.harness.tree_verify(self.graphs[i], t_max, kind, s)

    def check(self, op, out):
        rows, ok, first = out
        i, kind, t_max, s = self.op_list[op]
        n = self.inputs[i][0]
        if not ok or first is not None:
            return WRONG, f"mismatch reported: {first}"
        if len(rows) != (t_max + 1) * n:
            return WRONG, f"{len(rows)} checks, expected {(t_max + 1) * n}"
        if not all(r["messages"] and r["selection"] and r["depth"] for r in rows):
            return WRONG, "a failed check row"
        if {(r["root"], r["t"]) for r in rows} != {(v, t) for v in range(1, n + 1)
                                                   for t in range(t_max + 1)}:
            return WRONG, "rows do not cover every root and time"
        return None


# -- solve-large ------------------------------------------------------------------------

class SolveLarge(Workload):
    """`bpmatch solve GRAPH --mode M --stop window=K --json` per op, run as
    ``bpmatch.cli.main(argv)`` in this process on a bipartite instance; the
    program reads only the written graph files.

    The CLI runs in-process, not as a child process: the CPU time of a
    child on the same graph moved by 10 to 16 % between back-to-back runs,
    against 1 to 3 % in-process, and followed no reference speed measured
    next to it.
    Interpreter start-up and the package import are in ``setup_s``."""
    name = "solve-large"
    K_SIDE = 100
    EXTRA_DEGREE = 6
    OFFSET = 1000
    # The planted optimum is the estimate from round 0 on, so every op runs
    # exactly WINDOW rounds and its cost does not depend on convergence.
    WINDOW = 20
    # (class, instances per round).  An op's cost grows with sum(b): p1 and
    # pr ops are the cheapest, nb and pb ops overlap.  Thirteen instances
    # average out the seed, and the median op is the middle one of the nine
    # pb and nb ops rather than one at the edge of a cost cluster.
    CLASSES = (("p1", 2), ("pb", 5), ("nb", 4), ("pr", 2))

    def __init__(self, seed, out_dir):
        self.problems = []
        self.seed = seed
        self.dir = out_dir
        self.paths = [os.path.join(out_dir, f"{k:02d}-{cls}.graph")
                      for k, cls in enumerate(c for c, count in self.CLASSES for _ in range(count))]

    def setup(self, bp):
        """Generate the graphs from the seed and write the files the CLI reads."""
        self.inputs = []
        for cls, count in self.CLASSES:
            rng = gen.rng_for(self.seed, f"{self.name}:{cls}")
            for _ in range(count):
                self.inputs.append((cls,) + gen.bipartite_instance(
                    rng, self.K_SIDE, self.EXTRA_DEGREE, cls, self.OFFSET))
        os.makedirs(self.dir, exist_ok=True)
        for path, (cls, mode, n, caps, edges) in zip(self.paths, self.inputs):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.to_text(n, caps, edges))

    def references(self, bp):
        """Min-cost-flow optima of the written files, computed in a child
        process so that networkx stays out of this process's peak RSS."""
        args = [f"{inp[1]}:{path}" for path, inp in zip(self.paths, self.inputs)]
        out = subprocess.run([sys.executable, check.__file__, "bipartite-optimum"] + args,
                             capture_output=True, text=True, check=True)
        self.optimum = [Fraction(line) for line in out.stdout.split()]

    def ops(self):
        return range(len(self.inputs))

    def label(self, op):
        return os.path.basename(self.paths[op])

    def argv(self, op):
        mode = self.inputs[op][1]
        return ["solve", self.paths[op], "--mode", mode, "--stop", f"window={self.WINDOW}", "--json"]

    def run(self, bp, op, tracer):
        """(exit code, stdout, stderr) of the command line."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bp.cli.main(self.argv(op))
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        code, stdout, stderr = out
        cls, mode, n, caps, edges = self.inputs[op]
        if code != 0:
            return EXIT, f"exit {code}: {stderr.strip()[-200:]}"
        try:
            rep = json.loads(stdout)
        except ValueError:
            return WRONG, "output is not JSON"
        chosen = _edge_set(rep.get("estimate", []))
        problems = check.degree_check(n, caps, edges, mode, chosen)
        if problems:
            return WRONG, f"degree: {problems[:3]}"
        weight = check.weight_of(edges, chosen)
        if weight != self.optimum[op] or Fraction(rep["estimate_weight"]) != weight:
            return WRONG, f"weight {weight} (reported {rep['estimate_weight']}), optimum {self.optimum[op]}"
        return None


WORKLOADS = {w.name: w for w in (CertifySweep, SolveLarge, AsyncCertify, TreeVerify)}
