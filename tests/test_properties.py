"""Property tests pinning the single run loop and the single tree builder:
synchronous runs are runs under the all-edges schedule, balanced trees are
the generalized trees of that schedule, and both agree with the tree
dynamic program, also when one tree-DP memo is shared across a builder's
trees; the integer tree DP agrees with its Fraction reference, and
tree_verify's forward pass with its per-tree reference, also on a
corrupted step log.  The run
loop's scaled-integer messages and incremental estimates agree with a
plain rational stepper, and a synchronous or round-robin run that skips
whole periods of its message cycle agrees with the run that steps every
update.  The
tightness decision agrees with half-integral enumeration, and its cycle
search with the Fraction reference's LP over the optimal face, up to
which optimal fractional point it names; the exhaustive searches agree with
plain enumeration of every point, and the synchronous certified bound
is the ceiling of the asynchronous certified threshold.  A graph's scale is the
lcm of its weight denominators however it is built, and a certificate read
on a graph other than its own gives that graph's facts.  Graph, schedule and certificate
files round-trip, every file reader reads a rational token exactly as Fraction does,
and fuzzed input files give a clean CLI exit code."""

import contextlib
import dataclasses
import io
import math
import random
import tempfile
from unittest import mock
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bpmatch import (Graph, PERFECT, NONPERFECT, StopPolicy, edge_key,  # noqa: E402
                     MessageInit, MessageState, Estimate, CoverageStats, RunResult,
                     run_sync, run_async, make_schedule, build_tree,
                     dump_tree, tree_bmatching_dp, tree_size, tree_depth,
                     extract_estimate, brute_force, solve_relaxation, is_tight,
                     tightness_by_enumeration, iteration_bound, coverage_threshold,
                     InfeasibleError, parse_graph, reduce_trivial,
                     serialize_graph, parse_schedule, serialize_schedule,
                     parse_certificate, serialize_certificate, validate_schedule)
from bpmatch.cli import _parse_init, main  # noqa: E402
from bpmatch.graph import GraphParseError  # noqa: E402
from bpmatch.oracle import (CertificateError, LPSolution, OracleError,  # noqa: E402
                            ENUMERATION_GUARD, build_certificate, check_cs, dual_objective)
from bpmatch.simplex import LPError  # noqa: E402
from bpmatch import harness  # noqa: E402
from bpmatch.ctree import TreeSizeError  # noqa: E402
from bpmatch.harness import random_instance  # noqa: E402
from bpmatch.ctree import GCTBuilder, LabeledTree, TreeNode  # noqa: E402
from bpmatch.engine import _select, detect_period  # noqa: E402
from conftest import corrupt_message, naive_optima, random_graph_any  # noqa: E402
import _fraction_certificate as fraction_certificate  # noqa: E402
import _fraction_tree_dp as fraction_tree_dp  # noqa: E402
import _reference_tree_verify as reference_tree_verify  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

EMPTY = Graph(0, (), ())


@st.composite
def graphs(draw, mode, denominators=(2,)):
    """Graphs run_sync accepts in `mode`: a Hamiltonian cycle plus random
    chords keeps every degree at least 2, so perfect capacities can stay
    below the degree (a reduced graph) and non-perfect ones at most it.
    Weights are k/d for d drawn from `denominators`."""
    n = draw(st.sampled_from([0, 3, 4, 5, 6]))
    cycle = {edge_key(i, i % n + 1) for i in range(1, n + 1)}
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
              if (i, j) not in cycle]
    keep = draw(st.lists(st.booleans(), min_size=len(chords), max_size=len(chords)))
    edges = sorted(cycle) + [e for e, k in zip(chords, keep) if k]
    deg = dict.fromkeys(range(1, n + 1), 0)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    head = 1 if mode == PERFECT else 0
    caps = [draw(st.integers(1, min(2, deg[i] - head))) for i in range(1, n + 1)]
    hi = 18 if mode == PERFECT else 0
    weights = st.builds(Fraction, st.integers(-18, hi), st.sampled_from(denominators))
    return Graph(n, caps, [(i, j, draw(weights)) for (i, j) in edges])


@st.composite
def instances(draw):
    mode = draw(st.sampled_from([PERFECT, NONPERFECT]))
    return mode, draw(graphs(mode))


STOPS = st.one_of(
    st.integers(0, 12).map(StopPolicy.budget),
    st.builds(StopPolicy.window, st.one_of(st.none(), st.integers(1, 6)),
              st.one_of(st.none(), st.integers(0, 40))),
)

FIELDS = ("estimate", "iterations", "stabilized_at", "stable_for", "converged",
          "period", "history", "trace")


@SETTINGS
@given(instances(), STOPS)
@example((PERFECT, EMPTY), StopPolicy.budget(0))
@example((NONPERFECT, EMPTY), StopPolicy.budget(3))
@example((PERFECT, EMPTY), StopPolicy.window())
def test_sync_run_is_the_all_edges_schedule(instance, stop):
    mode, g = instance
    sync = run_sync(g, mode, None, stop, keep_trace=True)
    asyn = run_async(g, make_schedule(g, "sync"), None, stop, mode, keep_trace=True)
    for name in FIELDS:
        assert getattr(sync, name) == getattr(asyn, name), name
    assert sync.coverage is None and sync.schedule_kind is None
    assert asyn.coverage.u == (asyn.iterations if g.m else 0)
    if g.n == 0:
        assert sync.converged


def _balanced_reference(g, root, t):
    # the balanced tree by its definition, expanded without sharing
    def expand(label, parent, depth):
        w = None if parent is None else g.weight(parent, label)
        if depth == t + 1:
            return TreeNode(label, w, ())
        kids = tuple(s for s in g.neighbors(label) if s != parent)
        return TreeNode(label, w, tuple(expand(s, label, depth + 1) for s in kids))

    return LabeledTree(expand(root, None, 0), g)


def _count(node):
    return 1 + sum(_count(c) for c in node.children)


def _min_depth(node):
    return 1 + min(_min_depth(c) for c in node.children) if node.children else 0


@SETTINGS
@given(graphs(PERFECT).filter(lambda g: g.n > 0), st.integers(0, 4), st.data())
def test_balanced_tree_is_the_sync_gct(g, t, data):
    root = data.draw(st.integers(1, g.n))
    tree = build_tree(g, root, t)
    ref = _balanced_reference(g, root, t)
    assert dump_tree(tree) == dump_tree(ref)
    assert dump_tree(GCTBuilder(g, make_schedule(g, "sync"), t).gct(root, t)) == dump_tree(ref)
    assert tree_size(tree) == _count(ref.root)
    assert tree_depth(tree) == _min_depth(ref.root)


@SETTINGS
@given(graphs(PERFECT).filter(lambda g: g.n > 0), st.integers(0, 4),
       st.sampled_from([("sync", None), ("roundrobin", None), ("random", 3), ("random", 11)]),
       st.booleans(), st.booleans(), st.data())
def test_engine_equals_tree_dp(g, t_max, kind, equal_weights, explicit_init, data):
    # the engine against a fresh tree DP per tree, and a DP that shares one
    # memo over every root and time of one builder against the fresh one;
    # equal weights make the selection thresholds tie almost everywhere
    if equal_weights:
        g = Graph(g.n, [g.cap(i) for i in g.vertices()], [(i, j, 1) for (i, j) in g.weights()])
    init = init_map = None
    if explicit_init:
        values = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2]))
        init = MessageInit.explicit({d: data.draw(values) for d in g.directed_edges()})
        init_map = init.build(g)
    sched = make_schedule(g, kind[0], seed=kind[1])
    assert validate_schedule(g, sched, t_max) is None
    if sched.kind == "sync":
        run = run_sync(g, PERFECT, init, StopPolicy.budget(t_max), keep_trace=True)
    else:
        run = run_async(g, sched, init, StopPolicy.budget(t_max), PERFECT, keep_trace=True)
    builder = GCTBuilder(g, sched, t_max)
    memo = {}
    for t, state in enumerate(run.trace):
        est = extract_estimate(g, state, PERFECT)
        for root in g.vertices():
            tree = (build_tree(g, root, t) if sched.kind == "sync"
                    else GCTBuilder(g, sched, t).gct(root, t))
            dp = tree_bmatching_dp(tree, init_map)
            for r in g.neighbors(root):
                assert dp.branches[r].n == state.value(r, root)
            assert frozenset(dp.selected_labels) == frozenset(est.selected[root])
            shared = tree_bmatching_dp(builder.gct(root, t), init_map, memo)
            for name in ("branches", "selection", "selected_labels", "total", "ties"):
                assert getattr(shared, name) == getattr(dp, name), name


@SETTINGS
@given(graphs(PERFECT, denominators=(3,)).filter(lambda g: g.n > 0), st.integers(0, 4),
       st.sampled_from([("sync", None), ("roundrobin", None), ("random", 5)]),
       st.booleans(), st.data())
def test_integer_tree_dp_matches_the_fraction_dp(g, t_max, kind, explicit_init, data):
    # weights in thirds and inits in halves: a scale that leaves out either
    # side's denominators cannot give these values; every gct and branch
    # tree of one builder, with a fresh memo per call and with one memo
    # shared over the builder
    init_map = None
    if explicit_init:
        halves = st.integers(-7, 7).map(lambda k: Fraction(k, 2))
        init_map = {d: data.draw(halves) for d in g.directed_edges()}
    builder = GCTBuilder(g, make_schedule(g, kind[0], seed=kind[1]), t_max)
    memo = {}
    for t in range(t_max + 1):
        trees = ([builder.gct(root, t) for root in g.vertices()]
                 + [builder.branch(e, t) for e in g.directed_edges()])
        for tree in trees:
            want = fraction_tree_dp.tree_bmatching_dp(tree, init_map)
            for got in (tree_bmatching_dp(tree, init_map),
                        tree_bmatching_dp(tree, init_map, memo)):
                for name in ("branches", "selection", "selected_labels", "total", "ties"):
                    assert getattr(got, name) == getattr(want, name), name
                out = [got.total] if got.total is not None else []
                for v in got.branches.values():
                    out += [v.w_plus, v.w_minus]
                assert all(type(x) is Fraction for x in out)


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from([(None, None), ("sync", None),
                                                 ("roundrobin", None), ("random", 9),
                                                 ("random", 31)]),
       st.booleans(), st.booleans(), st.data())
def test_tree_verify_matches_the_per_tree_reference(seed, kind, explicit_init, corrupt, data):
    # the forward pass against the per-(root, t) loop over the builder's
    # trees: the same rows, verdict and first mismatch, or the same error
    # (balanced trees outgrow the node cap past t of about 10).  A
    # corrupted trace changes one message by a nonzero amount from one
    # t < t_max on, on an edge that step wrote or, as one more write, on
    # one it did not, so the wrong value is read past t too
    g = random_instance(random.Random(seed), n_max=5, mode=PERFECT)
    balanced = kind[0] in (None, "sync")
    t_max = data.draw(st.integers(1 if corrupt else 0, 12 if balanced else 30))
    init = None
    if explicit_init:
        values = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3]))
        init = MessageInit.explicit({d: data.draw(values) for d in g.directed_edges()})
    real = harness.run_async
    if corrupt:
        t = data.draw(st.integers(0, t_max - 1))
        wrote = make_schedule(g, kind[0] or "sync", seed=kind[1]).prefix(t)[-1] if t else ()
        heads = {j for _, j in wrote}
        on = data.draw(st.booleans())
        # not on: an edge into a root no write of step t reaches, where
        # there is one, so that only the corrupted write marks that root
        edge = data.draw(st.sampled_from(
            [e for e in g.directed_edges() if (e in wrote if on else e[1] not in heads)]
            or g.directed_edges()))
        delta = data.draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 7)]))

        def run_async(*args, **kwargs):
            run = real(*args, **kwargs)
            corrupt_message(run.trace, t, edge, delta)
            return run
    else:
        run_async = real

    def outcome(verify):
        try:
            return verify(g, t_max, kind[0], kind[1], init)
        except TreeSizeError as exc:
            return type(exc), str(exc)

    with mock.patch.object(harness, "run_async", run_async), \
            mock.patch.object(reference_tree_verify, "run_async", run_async):
        assert outcome(harness.tree_verify) == outcome(reference_tree_verify.tree_verify)


def _rational_step(g, m, updates, mode):
    # the update rule as the engine docstring states it, on exact rationals:
    # the b_i-th smallest message into i with j's own message left out
    new = dict(m)
    for (i, j) in updates:
        rest = sorted(m[(l, i)] for l in g.neighbors(i) if l != j)
        b = g.cap(i)
        if mode == PERFECT:
            new[(i, j)] = g.weight(i, j) - rest[b - 1]
        else:
            inner = rest[b - 1] if len(rest) >= b else 0
            new[(i, j)] = g.weight(i, j) - min(0, inner)
    return new


def _rational_estimate(g, m, mode):
    edges, selected, ties = set(), {}, set()
    for i in g.vertices():
        b = g.cap(i)
        order = sorted(g.neighbors(i), key=lambda j: (m[(j, i)], j))
        vals = [m[(j, i)] for j in order]
        boundary = b < len(vals) and vals[b - 1] == vals[b]
        if mode == PERFECT:
            chosen, tie = order[:b], boundary
        else:
            chosen = [j for j, v in zip(order[:b], vals) if v < 0]
            tie = 0 in vals if len(chosen) < b else boundary
        selected[i] = tuple(chosen)
        if tie:
            ties.add(i)
        edges.update(edge_key(i, j) for j in chosen)
    return Estimate(frozenset(edges), selected, frozenset(ties))


def _rational_run(g, mode, init, stop, sets):
    """The run loop's stop rules over _rational_step; returns the fields a
    RunResult carries, plus the update counts."""
    m = (init or MessageInit.weights()).build(g)
    states, history = [MessageState(0, m)], [_rational_estimate(g, m, mode).edges]
    counts = dict.fromkeys(g.directed_edges(), 0)
    window = g.n
    if stop.kind == "window":
        window = stop.window_size or max(g.n, 1)
        limit = stop.limit if stop.limit is not None else max(100, 20 * window)

    def covered():
        return all(c > stop.threshold for c in counts.values())

    t = last = 0
    met = stop.kind == "coverage" and covered()
    it = iter(sets)
    while not met:
        if stop.kind == "budget" and t >= stop.iterations:
            break
        if stop.kind == "window" and (t - last >= window or t >= limit):
            break
        updates = next(it)
        t += 1
        for e in updates:
            counts[e] += 1
        m = _rational_step(g, m, updates, mode)
        edges = _rational_estimate(g, m, mode).edges
        if edges != history[-1]:
            last = t
        history.append(edges)
        states.append(MessageState(t, m))
        if stop.kind == "coverage":
            met = covered()
    converged = met if stop.kind == "coverage" else t - last >= window
    return dict(estimate=_rational_estimate(g, m, mode), iterations=t, stabilized_at=last,
                stable_for=t - last, converged=converged,
                period=None if converged else detect_period(history, max(window, 2)),
                history=history, trace=states), counts


def _inits(g):
    fractions = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 7]))
    return st.one_of(
        st.none(),
        st.builds(MessageInit.constant, fractions),
        st.builds(MessageInit.explicit,
                  st.fixed_dictionaries({d: fractions for d in g.directed_edges()})))


@st.composite
def _mixed_steps(draw, g, length=128):
    """Explicit update sets that are neither one edge nor all edges: a drawn
    partition of the directed edges into parts of two or more and up to two
    drawn subsets, each listed in drawn order, the parts in drawn order,
    repeated to `length` steps, more than any stop of the tests needs.  The
    result may be redundant.  A graph without edges gets empty steps."""
    dirs = g.directed_edges()
    if not dirs:
        return [[]] * length
    order = draw(st.permutations(dirs))
    # len(dirs) is even and at least 6, so every part has two or more edges
    cuts = draw(st.lists(st.sampled_from(range(2, len(dirs) - 1, 2)), min_size=1,
                         unique=True))
    bounds = [0] + sorted(cuts) + [len(dirs)]
    parts = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    parts += draw(st.lists(st.lists(st.sampled_from(dirs), min_size=2,
                                    max_size=len(dirs) - 1, unique=True), max_size=2))
    parts = draw(st.permutations(parts))
    return [parts[t % len(parts)] for t in range(length)]


class _Draws:
    """Stands in for st.data() in an @example: hands out fixed values, in
    the order the test draws them."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


def _naive_select(nbrs, b, vals, mode):
    # _select by its definition: rank (value, label) pairs, take the first
    # b, in non-perfect mode only while the value is negative
    ranked = sorted(zip(vals, nbrs))
    lo = ranked[b - 1][0] if b <= len(ranked) else None
    hi = ranked[b][0] if b < len(ranked) else None
    chosen = []
    for v, j in ranked[:b]:
        if mode != PERFECT and v >= 0:
            break
        chosen.append(j)
    if mode != PERFECT and len(chosen) < b:
        return tuple(chosen), 0 in vals, lo, hi
    return tuple(chosen), hi is not None and lo == hi, lo, hi


@settings(SETTINGS, max_examples=400)
@given(st.sampled_from([PERFECT, NONPERFECT]), st.lists(st.integers(-2, 2), max_size=9),
       st.sampled_from([1, 3]), st.data())
@example(PERFECT, [], 1, _Draws(1, ()))
@example(NONPERFECT, [0, -1, -1, 0], 1, _Draws(5, (2, 3, 5, 8)))
def test_select_ranks_by_value_then_label(mode, ints, den, data):
    # few distinct values, so ties at and below the b-th rank are common
    b = data.draw(st.integers(1, len(ints) + 1))
    nbrs = tuple(sorted(data.draw(st.sets(st.integers(1, 30), min_size=len(ints),
                                          max_size=len(ints)))))
    vals = [Fraction(v, den) for v in ints]
    want = _naive_select(nbrs, b, vals, mode)
    assert _select(nbrs, b, vals, mode) == want
    # the same values as the kernel's scaled ints, read as a tuple by its
    # gathers
    scaled = tuple(ints)
    assert _select(nbrs, b, scaled, mode) == _naive_select(nbrs, b, scaled, mode)


K4 = Graph(4, [1, 1, 1, 1], [(1, 2, Fraction(2, 3)), (1, 3, 1), (1, 4, 2), (2, 3, 3),
                             (2, 4, Fraction(-1, 3)), (3, 4, 5)])
# an empty step, a one-edge step and an all-edges step listed out of order
K4_STEPS = [[(3, 1)], [], sorted(K4.directed_edges(), key=lambda d: (d[1], -d[0]))]
# K4 with non-positive weights and b = 2 at vertex 2, for non-perfect runs
K4_NEG = Graph(4, [1, 2, 1, 1], [(1, 2, -2), (1, 3, Fraction(-1, 3)), (1, 4, -1), (2, 3, -3),
                                 (2, 4, -1), (3, 4, -4)])


@SETTINGS
@given(st.sampled_from([PERFECT, NONPERFECT]).flatmap(
           lambda mode: st.tuples(st.just(mode), graphs(mode, (1, 2, 3, 7)))),
       st.sampled_from([("sync", None), ("roundrobin", None), ("random", 3), ("random", 11),
                        ("explicit", None)]),
       st.one_of(STOPS, st.builds(StopPolicy.coverage,
                                  st.sampled_from([0, 1, Fraction(5, 2), -1]))),
       st.booleans(), st.data())
# vertex 4 has one edge and b = 1: a free vertex whose incoming gather reads
# one message, and a roundrobin schedule of one-edge steps
@example((NONPERFECT, Graph(4, [2, 1, 1, 1], [(1, 2, Fraction(-3, 2)), (1, 3, -2),
                                              (1, 4, -5), (2, 3, Fraction(-1, 7))])),
         ("roundrobin", None), StopPolicy.window(4), True, _Draws(None))
@example((PERFECT, K4), ("explicit", None), StopPolicy.budget(9), True,
         _Draws(MessageInit.constant(Fraction(1, 5)),
                [K4_STEPS[t % 3] for t in range(128)]))
# the corners of the one-edge update.  Step 1 updates 1 -> 2, and m(2 -> 1)
# is lo at vertex 1, its smallest incoming message: the rule takes hi
@example((PERFECT, K4), ("roundrobin", None), StopPolicy.budget(12), False,
         _Draws(MessageInit.explicit({**dict.fromkeys(K4.directed_edges(), 2),
                                      (2, 1): -1, (3, 1): 4, (4, 1): 6})))
# vertex 1 has degree b = 2: free, with lo its larger message and hi None
@example((NONPERFECT, Graph(3, [2, 1, 1], [(1, 2, -1), (1, 3, -2), (2, 3, -3)])),
         ("random", 3), StopPolicy.budget(30), True, _Draws(None))
# step 1, 1 -> 2, reads the b-th smallest -2 < 0 and writes w - (-2); step
# 3, 1 -> 4, reads 3 >= 0 and writes w
@example((NONPERFECT, Graph(4, [1, 1, 1, 1], [(1, 2, -1), (1, 3, Fraction(-1, 2)),
                                              (1, 4, -3), (2, 3, -2), (3, 4, -1)])),
         ("roundrobin", None), StopPolicy.window(2, 40), True,
         _Draws(MessageInit.explicit({(1, 2): -1, (1, 3): 5, (1, 4): 2, (2, 1): 3,
                                      (2, 3): -4, (3, 1): 4, (3, 2): 1, (3, 4): 0,
                                      (4, 1): -2, (4, 3): 3})))
# empty steps between one-edge steps, up to a coverage stop
@example((NONPERFECT, K4_NEG), ("explicit", None), StopPolicy.coverage(1), True,
         _Draws(MessageInit.constant(Fraction(1, 3)),
                [s for e in K4_NEG.directed_edges() * 6 for s in ([], [e])]))
# step 1 rewrites 1 -> 2 with the value it holds, so 2 is not ranked again:
# its two smallest messages tie (lo == hi), and step 4, 2 -> 1, reads them
@example((PERFECT, K4), ("roundrobin", None), StopPolicy.budget(4), True,
         _Draws(MessageInit.explicit({**dict.fromkeys(K4.directed_edges(), 3),
                                      (1, 2): Fraction(2, 3), (3, 2): Fraction(2, 3),
                                      (2, 1): 5, (3, 1): 0, (4, 1): 1})))
# step 1 rewrites the 0 on 1 -> 2 (w - (-2)); vertex 2, b = 2, picks only
# its one negative message, so its tie flag is 0 in vals
@example((NONPERFECT, K4_NEG), ("roundrobin", None), StopPolicy.budget(4), False,
         _Draws(MessageInit.explicit({**dict.fromkeys(K4_NEG.directed_edges(), 2),
                                      (1, 2): 0, (3, 2): -1, (4, 2): 1, (2, 1): 3,
                                      (3, 1): -2, (4, 1): 1})))
# a graph of one edge: two free vertices, then empty steps
@example((NONPERFECT, Graph(2, [1, 1], [(1, 2, Fraction(-3, 2))])), ("roundrobin", None),
         StopPolicy.budget(5), True, _Draws(MessageInit.constant(-4)))
def test_integer_run_equals_rational_stepper(instance, kind, stop, keep_trace, data):
    mode, g = instance
    init = data.draw(_inits(g))
    sets = data.draw(_mixed_steps(g)) if kind[0] == "explicit" else None
    sched = make_schedule(g, kind[0], seed=kind[1], sets=sets)
    # generated schedules are trusted; mixed steps may be redundant
    runs = [run_async(g, sched, init, stop, mode, check_redundancy=False,
                      keep_trace=keep_trace)]
    if sched.kind == "sync" and stop.kind != "coverage":
        runs.append(run_sync(g, mode, init, stop, keep_trace))
    want, counts = _rational_run(g, mode, init, stop,
                                 make_schedule(g, kind[0], seed=kind[1], sets=sets))
    states = want["trace"]
    if not keep_trace:
        want["trace"] = None
    for run in runs:
        for name, value in want.items():
            assert getattr(run, name) == value, name
        assert run.estimate == extract_estimate(g, states[-1], mode)
    asyn = runs[0]
    if sched.trusted:
        assert validate_schedule(g, sched, asyn.iterations) is None
    assert asyn.coverage == CoverageStats(asyn.iterations, counts, min(counts.values(), default=0))
    assert asyn.schedule_kind == sched.describe()


# a perfect-mode 4-cycle whose messages drift from round 8 on
TWICE = (parse_graph("4 4\n1 1 1 1\n1 2 0\n1 4 0\n2 3 -1\n3 4 -2\n"),
         MessageInit.explicit({(1, 2): -11, (1, 4): 3, (2, 1): 11, (2, 3): -5, (3, 2): 9,
                               (3, 4): -1, (4, 1): -12, (4, 3): -11}))

# budgets past the first cycles, which most runs find by round 21, and
# past the flips that end perfect-mode translations; the default window;
# short windows with small limits; and coverage stops, run_async's only
JUMP_STOPS = st.one_of(
    st.integers(0, 400).map(StopPolicy.budget),
    st.just(StopPolicy.window()),
    st.builds(StopPolicy.window, st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 30)),
    st.builds(StopPolicy.coverage, st.one_of(st.integers(-1, 40), st.just(Fraction(5, 2)))),
)


@settings(SETTINGS, max_examples=200)
@given(st.sampled_from([PERFECT, NONPERFECT]).flatmap(
           lambda mode: st.tuples(st.just(mode), graphs(mode, (1, 2, 3, 7)))),
       st.sampled_from(["sync", "roundrobin"]), JUMP_STOPS, st.data())
# a budget that ends inside the period-2 cycle found at round 4
@example((NONPERFECT, parse_graph("3 3\n1 1 1\n1 2 -1\n2 3 -1\n1 3 -1\n")), "sync",
         StopPolicy.budget(7), _Draws(None))
# an alternating estimate over a period-2 message cycle under a short window
@example((NONPERFECT, parse_graph("3 3\n1 1 1\n1 2 -1/2\n2 3 -1/2\n1 3 -1/2\n")), "sync",
         StopPolicy.window(1, 11), _Draws(MessageInit.constant(0)))
# estimate changes with cyclic gaps of 1 and 3 rounds, longer than the window
@example((PERFECT, parse_graph("4 6\n1 1 1 1\n1 2 16\n1 3 4\n1 4 9\n2 3 14\n2 4 30\n"
                               "3 4 7\n")), "sync", StopPolicy.window(2, 60), _Draws(None))
# a translation ended by a flip of the ranking at vertex 2, then another,
# under a budget and under a window that the changing estimate never meets
@example((PERFECT, TWICE[0]), "sync", StopPolicy.budget(400), _Draws(TWICE[1]))
@example((PERFECT, TWICE[0]), "sync", StopPolicy.window(3, 200), _Draws(TWICE[1]))
@example((PERFECT, TWICE[0]), "roundrobin", StopPolicy.budget(400), _Draws(TWICE[1]))
# a non-perfect translation ended by a message reaching 0
@example((NONPERFECT, parse_graph("4 6\n1 2 1 2\n1 2 -11\n1 3 -3\n1 4 -11\n2 3 -26\n"
                                  "2 4 -18\n3 4 -27\n")), "sync", StopPolicy.budget(60),
         _Draws(None))
# vertex 4 is a leaf: a round-robin schedule updates (4 -> 1) once, before
# it repeats, so the run seeks from step 1 on
@example((NONPERFECT, Graph(4, [2, 1, 1, 1], [(1, 2, Fraction(-3, 2)), (1, 3, -2),
                                              (1, 4, -5), (2, 3, Fraction(-1, 7))])),
         "roundrobin", StopPolicy.budget(400), _Draws(None))
def test_cycle_jump_equals_the_step_by_step_run(instance, kind, stop, data):
    # a run under a repeating schedule that jumps the cycles of its messages
    # gives what a traced run, which steps every update, gives; under the
    # all-edges schedule run_async jumps as run_sync does.  Round-robin
    # budgets are tenths of a schedule period, up to 40 periods
    mode, g = instance
    init = data.draw(_inits(g))
    sched = make_schedule(g, kind)
    s, length = sched.repeats
    if kind == "roundrobin" and stop.kind == "budget":
        stop = StopPolicy.budget(s + stop.iterations * length // 10)
    if sched.once and stop.kind == "coverage":
        stop = StopPolicy.coverage(0)
    run = run_async(g, sched, init, stop, mode)
    stepped = run_async(g, sched, init, stop, mode, keep_trace=True)
    assert stepped.computed == stepped.iterations and stepped.cycle is None
    for f in dataclasses.fields(RunResult):
        if f.name not in ("trace", "cycle", "computed"):
            assert getattr(run, f.name) == getattr(stepped, f.name), f.name
    if kind == "sync" and stop.kind != "coverage":
        sync = run_sync(g, mode, init, stop)
        for f in dataclasses.fields(RunResult):
            if f.name not in ("coverage", "schedule_kind"):
                assert getattr(sync, f.name) == getattr(run, f.name), f.name
    assert run.computed <= run.iterations
    if run.cycle is not None:
        # the messages after step mark_t + p equal those after step mark_t,
        # or differ from them as those after step mark_t + 2p differ from
        # those after step mark_t + p, a translation found two periods on;
        # both are period boundaries past the prefix
        mark_t, p = run.cycle
        assert mark_t >= s and (mark_t - s) % length == 0 and p % length == 0
        trace = run_async(g, sched, init, StopPolicy.budget(mark_t + 2 * p), mode,
                          keep_trace=True).trace
        m0, m1, m2 = ([state.m[d] for d in g.directed_edges()] for state in trace[mark_t::p])
        assert [b - a for a, b in zip(m1, m2)] == [b - a for a, b in zip(m0, m1)]
        assert mark_t + (p if m1 == m0 else 2 * p) <= run.iterations
    else:
        assert run.computed == run.iterations


# an integral relaxation vertex on a face with a fractional point (tri-neg),
# and a fractional relaxation vertex beside a unique integral optimum
@SETTINGS
@given(instances())
@example((NONPERFECT, Graph(3, [1, 1, 1], [(1, 2, -3), (2, 3, -1), (1, 3, -2)])))
@example((NONPERFECT, Graph(4, [2, 2, 1, 1], [(1, 2, -15), (1, 3, -28), (1, 4, -28),
                                             (2, 3, -9), (2, 4, -6), (3, 4, -26)])))
def test_lp_tightness_agrees_with_enumeration(instance):
    mode, g = instance
    try:
        optima = brute_force(g, mode)
    except InfeasibleError:
        return
    relaxation = solve_relaxation(g, mode)
    rep = is_tight(g, mode)
    assert is_tight(g, mode, optima=optima, relaxation=relaxation) == rep
    assert rep.tight == tightness_by_enumeration(g, mode, rep.lp_objective)[0]
    if rep.tight:
        return
    w = rep.witness
    assert set(w) == set(g.edges()) and all(0 <= v <= 1 for v in w.values())
    for i in g.vertices():
        load = sum(v for e, v in w.items() if i in e)
        assert load == g.cap(i) if mode == PERFECT else load <= g.cap(i)
    assert sum(v * g.weight(*e) for e, v in w.items()) == rep.lp_objective
    assert any(v not in (0, 1) for v in w.values())


@st.composite
def small_instances(draw, max_m):
    """(mode, graph) with at most `max_m` edges on 3 to 6 vertices, any
    capacities of 1 or 2 (so perfect mode is often infeasible) and weights
    k/d for d in 1..3, non-positive in non-perfect mode."""
    mode = draw(st.sampled_from([PERFECT, NONPERFECT]))
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k][:max_m]
    caps = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    hi = 9 if mode == PERFECT else 0
    weights = st.builds(Fraction, st.integers(-9, hi), st.integers(1, 3))
    return mode, Graph(n, caps, [(i, j, draw(weights)) for (i, j) in edges])


def half_integral_optima(g, mode):
    """The least weight of x in {0, 1/2, 1}^E within the capacities (meeting
    them in perfect mode) and every x at that weight, in g.edges() order,
    found by trying every x; (None, []) when no x qualifies."""
    edges = g.edges()
    best, optimal = None, []
    for x in product((Fraction(0), Fraction(1, 2), Fraction(1)), repeat=len(edges)):
        load = [0] * (g.n + 1)
        for (i, j), v in zip(edges, x):
            load[i] += v
            load[j] += v
        if any(load[i] > g.cap(i) or (mode == PERFECT and load[i] < g.cap(i))
               for i in g.vertices()):
            continue
        weight = sum(v * g.weight(*e) for e, v in zip(edges, x))
        if best is None or weight < best:
            best, optimal = weight, []
        if weight == best:
            optimal.append(x)
    return best, optimal


# a triangle of unit capacities has no perfect matching
@SETTINGS
@given(small_instances(10))
@example((PERFECT, Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, 2), (1, 3, 3)])))
def test_brute_force_is_the_all_subsets_optimum(instance):
    mode, g = instance
    want = naive_optima(g, mode)
    if want[0] is None:
        with pytest.raises(InfeasibleError):
            brute_force(g, mode)
    else:
        assert brute_force(g, mode) == want


# two integral optima, a fractional optimum (tri-half), no perfect point
@SETTINGS
@given(small_instances(8))
@example((PERFECT, Graph(4, [1] * 4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])))
@example((NONPERFECT, Graph(3, [1, 1, 1], [(1, 2, -1), (2, 3, -1), (1, 3, -1)])))
@example((PERFECT, Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, 1)])))
def test_enumeration_verdict_is_that_of_every_half_integral_point(instance):
    mode, g = instance
    best, optimal = half_integral_optima(g, mode)
    try:
        sol, _ = solve_relaxation(g, mode)
    except InfeasibleError:
        assert best is None
        return
    # every vertex of the relaxation is half-integral
    assert sol.objective == best
    tight, witness = tightness_by_enumeration(g, mode, sol.objective)
    assert tight == (len(optimal) == 1 and all(v in (0, 1) for v in optimal[0]))
    if tight:
        assert witness is None
        return
    assert list(witness) == list(g.edges()) and all(0 <= v <= 1 for v in witness.values())
    for i in g.vertices():
        load = sum(v for e, v in witness.items() if i in e)
        assert load == g.cap(i) if mode == PERFECT else load <= g.cap(i)
    assert sum(v * g.weight(*e) for e, v in witness.items()) == sol.objective
    assert any(v not in (0, 1) for v in witness.values())


@SETTINGS
@given(instances(), st.data())
def test_sync_bound_is_the_ceiling_of_the_coverage_threshold(instance, data):
    mode, g = instance
    try:
        rep = is_tight(g, mode)
    except InfeasibleError:
        return
    _, cert = solve_relaxation(g, mode)
    if not rep.tight or cert.epsilon is None:
        return
    values = st.builds(Fraction, st.integers(-200, 200), st.sampled_from([1, 2, 3]))
    init = MessageInit.explicit({d: data.draw(values) for d in g.directed_edges()})
    threshold = coverage_threshold(g, cert, mode, init)
    assert threshold >= coverage_threshold(g, cert, mode)
    assert iteration_bound(g, cert, init, mode) == math.ceil(threshold)


@SETTINGS
@given(instances(), st.data())
def test_files_round_trip(instance, data):
    mode, g = instance
    assert parse_graph(serialize_graph(g)) == g
    steps = st.frozensets(st.sampled_from(g.directed_edges())) if g.m else st.just(frozenset())
    sets = data.draw(st.lists(steps, max_size=6))
    assert parse_schedule(serialize_schedule(sets), g).prefix(len(sets) + 1) == sets
    try:
        _, cert = solve_relaxation(g, mode)
    except InfeasibleError:
        return
    assert parse_certificate(serialize_certificate(cert), g, mode) == cert


def _outcome(f, *args, **kwargs):
    """repr of f's result, or of the oracle or LP error it raised: the same
    text on both sides means the same values, types, order and message."""
    try:
        return repr(f(*args, **kwargs))
    except (OracleError, LPError) as exc:
        return repr(exc)


@st.composite
def certificate_draws(draw):
    """(mode, graph, y, lam, x): a random_instance graph in either mode with
    weights of magnitude up to 2 (many ties) or 30, each divided by 1, 2, 3
    or 6; y and lambda over some vertices and edges with values k/d for d in
    1, 2, 3, 6, negative ones too, drawn freely (often infeasible) or made
    feasible by raising each lambda to its edge's bound; x in {0, 1/2, 1} or
    any rationals."""
    mode = draw(st.sampled_from([PERFECT, NONPERFECT]))
    top = draw(st.sampled_from([2, 30]))
    lo, hi = (1, top) if mode == PERFECT else (-top, -1)
    g = random_instance(random.Random(draw(st.integers(0, 2**32 - 1))), 6, mode, lo, hi)
    dens = st.sampled_from([1, 2, 3, 6])
    g = Graph(g.n, g.capacities(), [(i, j, w / draw(dens)) for (i, j), w in g.weights().items()])
    values = st.builds(Fraction, st.integers(-12, 12), dens)
    y = draw(st.dictionaries(st.sampled_from(list(g.vertices())), values))
    lam = draw(st.dictionaries(st.sampled_from(g.edges()), values))
    if draw(st.booleans()):
        # feasible: y >= 0 in non-perfect mode, w + lambda >= each bound
        if mode == NONPERFECT:
            y = {i: abs(v) for i, v in y.items()}
        for (i, j) in g.edges():
            bound = y.get(i, 0) + y.get(j, 0)
            bound = bound if mode == PERFECT else -bound
            lam[(i, j)] = abs(lam.get((i, j), 0)) + max(0, bound - g.weight(i, j))
    if draw(st.booleans()):
        xs = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
    else:
        xs = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))
    x = {e: draw(xs) for e in g.edges()}
    return mode, g, y, lam, x


@SETTINGS
@given(certificate_draws())
def test_integer_certificate_checks_match_the_fraction_reference(case):
    # every certificate fact of the int path against the Fraction reference:
    # the drawn dual, then the solver's own, then each as the relaxation's
    # dual in the tightness split, where the drawn one may fail that split
    mode, g, y, lam, x = case
    ref = fraction_certificate
    want = _outcome(ref.build_certificate, g, y, lam, mode)
    assert _outcome(build_certificate, g, y, lam, mode) == want
    primal = LPSolution(mode, x, Fraction(0), False)
    try:
        cert = ref.build_certificate(g, y, lam, mode)
    except CertificateError:
        cert = None
    else:
        assert build_certificate(g, y, lam, mode) == cert
        assert _outcome(dual_objective, g, cert) == _outcome(ref.dual_objective, g, cert)
        assert _outcome(check_cs, g, primal, cert) == _outcome(ref.check_cs, g, primal, cert)
    want = _outcome(ref.solve_relaxation, g, mode)
    assert _outcome(solve_relaxation, g, mode) == want
    try:
        sol, own = solve_relaxation(g, mode)
    except InfeasibleError:
        return
    assert _outcome(check_cs, g, primal, own) == _outcome(ref.check_cs, g, primal, own)
    for dual in (own, cert) if cert is not None else (own,):
        assert _outcome(check_cs, g, sol, dual) == _outcome(ref.check_cs, g, sol, dual)
        _assert_tightness_matches(g, mode, sol, dual)


def _assert_tightness_matches(g, mode, sol, dual):
    """is_tight with (sol, dual) as the relaxation gives what the Fraction
    reference gives, but for another witness of a positive-dimensional face."""
    ref = fraction_certificate
    if (_outcome(is_tight, g, mode, relaxation=(sol, dual))
            != _outcome(ref.is_tight, g, mode, relaxation=(sol, dual))):
        rep = is_tight(g, mode, relaxation=(sol, dual))
        want = ref.is_tight(g, mode, relaxation=(sol, dual))
        assert dataclasses.replace(rep, witness=None) == dataclasses.replace(want, witness=None)
        _assert_face_witness(g, mode, rep, sol)


@SETTINGS
@given(certificate_draws(), st.sampled_from([5, 7, 11]))
def test_a_certificate_is_read_on_the_graph_it_is_given(case, d):
    # a certificate built on g, read on h (g's edges, weights divided by d,
    # a denominator none of g's weights has): every fact is h's, as the
    # Fraction reference finds it on h, so no scale of g's is reused
    mode, g, y, lam, x = case
    ref = fraction_certificate
    h = Graph(g.n, g.capacities(), [(i, j, w / d) for (i, j), w in g.weights().items()])
    certs = []
    with contextlib.suppress(CertificateError):
        certs.append(build_certificate(g, y, lam, mode))
    with contextlib.suppress(InfeasibleError):
        certs.append(solve_relaxation(g, mode)[1])
    primal = LPSolution(mode, x, Fraction(0), False)
    try:
        sol = solve_relaxation(h, mode)[0]
    except InfeasibleError:
        sol = None
    for cert in certs:
        assert _outcome(dual_objective, h, cert) == _outcome(ref.dual_objective, h, cert)
        assert _outcome(check_cs, h, primal, cert) == _outcome(ref.check_cs, h, primal, cert)
        if sol is not None:
            assert _outcome(check_cs, h, sol, cert) == _outcome(ref.check_cs, h, sol, cert)
            _assert_tightness_matches(h, mode, sol, cert)


def _assert_face_witness(g, mode, rep, sol):
    """rep's witness is an optimal fractional point; on the positive-
    dimensional face of an integral x*, each entry is x*_e or moves away
    from it by 1/4 or 1/2."""
    w = rep.witness
    assert set(w) == set(g.edges()) and all(0 <= v <= 1 for v in w.values())
    for i in g.vertices():
        load = sum(v for e, v in w.items() if i in e)
        assert load == g.cap(i) if mode == PERFECT else load <= g.cap(i)
    assert sum(v * g.weight(*e) for e, v in w.items()) == rep.lp_objective
    assert any(v not in (0, 1) for v in w.values())
    if rep.reason == "optimal_face_has_positive_dimension" and sol.integral:
        for e, v in w.items():
            assert (v - sol.x[e]) * (1 - 2 * sol.x[e]) in (0, Fraction(1, 4), Fraction(1, 2))
    else:
        assert rep.reason != "optimal_face_has_positive_dimension" or w == sol.x


@st.composite
def tightness_draws(draw):
    """(mode, graph): a random_instance draw with the default weights or the
    narrow ones (1..3 perfect, -3..-1 non-perfect), or a random_graph_any
    draw (degree down to the capacity, weights non-positive in non-perfect
    mode) with its weights divided by 1, 2, 3 or 6."""
    mode = draw(st.sampled_from([PERFECT, NONPERFECT]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["default", "narrow", "any"]))
    if kind != "any":
        lo, hi = (None, None) if kind == "default" else (1, 3) if mode == PERFECT else (-3, -1)
        return mode, random_instance(rng, 6, mode, lo, hi)
    g = random_graph_any(rng, n_max=6, weight_hi=9 if mode == PERFECT else 0)
    d = draw(st.sampled_from([1, 2, 3, 6]))
    return mode, Graph(g.n, g.capacities(), [(i, j, w / d) for (i, j), w in g.weights().items()])


# a perfect cycle that runs one edge both ways: two unit triangles joined by 3-4
@SETTINGS
@given(tightness_draws())
@example((PERFECT, Graph(6, [1] * 6, [(1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1),
                                      (4, 5, 1), (4, 6, 1), (5, 6, 1)])))
def test_cycle_search_verdict_is_the_face_lp_verdict(instance):
    mode, g = instance
    try:
        optima = brute_force(g, mode)
    except InfeasibleError:
        return
    sol, cert = solve_relaxation(g, mode)
    rep = is_tight(g, mode, optima=optima, relaxation=(sol, cert))
    want = fraction_certificate.is_tight(g, mode, optima=optima, relaxation=(sol, cert))
    assert dataclasses.replace(rep, witness=None) == dataclasses.replace(want, witness=None)
    if g.m <= ENUMERATION_GUARD:
        assert rep.tight == tightness_by_enumeration(g, mode, rep.lp_objective)[0]
    if rep.witness != want.witness:
        assert rep.reason == "optimal_face_has_positive_dimension" and sol.integral
    if not rep.tight:
        _assert_face_witness(g, mode, rep, sol)


@SETTINGS
@given(tightness_draws(), st.data())
def test_certification_on_sevenths_and_elevenths_is_the_fraction_reference(instance, data):
    # weights over 7 and 11, so g.scale is 7, 11 or 77: the int hand-off
    # from the simplex gives the objective, dual, verdict and bound that the
    # reference finds on Fractions
    mode, g = instance
    dens = st.sampled_from([7, 11])
    g = Graph(g.n, g.capacities(),
              [(i, j, w / data.draw(dens)) for (i, j), w in g.weights().items()])
    try:
        c = harness.certify_instance(g, mode)
    except InfeasibleError:
        return
    ref = fraction_certificate
    sol, cert = ref.solve_relaxation(g, mode)
    tight = ref.is_tight(g, mode, relaxation=(sol, cert)).tight
    assert c.lp == sol and c.cert == cert
    assert c.tight == tight
    if not tight:
        assert c.bound is None
    elif cert.epsilon is None:
        assert c.bound == g.n + 1
    else:
        factor = 2 if mode == PERFECT else 4
        assert c.bound == math.ceil(factor * g.n * cert.L / cert.epsilon)


@SETTINGS
@given(tightness_draws(), st.data())
@example((PERFECT, Graph(6, [1] * 6, [(1, 2, Fraction(1, 7)), (2, 3, Fraction(1, 5))]
                       + [(i, j, Fraction(1, 2 + (i + j) % 2)) for i in range(3, 7)
                          for j in range(i + 1, 7)])), None)
def test_graph_scale_is_the_lcm_of_its_weight_denominators(instance, data):
    # every way a graph is built: the constructor, the file reader and the
    # reduction, whose graph keeps only some weights and so may need a
    # smaller scale (the example forces 1-2 and drops 2: sevenths and
    # fifths leave, the scale falls from 210 to 6)
    _, g = instance
    if data is not None:
        dens = st.sampled_from([1, 2, 3, 7])
        g = Graph(g.n, g.capacities(),
                  [(i, j, w / data.draw(dens)) for (i, j), w in g.weights().items()])
    for h in (g, parse_graph(serialize_graph(g)), reduce_trivial(g).graph):
        assert h.scale == math.lcm(*(w.denominator for w in h.weights().values()))
        assert sorted(h.int_weights) == list(h.edges())
        for e, v in h.int_weights.items():
            assert type(v) is int and v == h.weight(*e) * h.scale


@SETTINGS
@given(instances(), st.data())
def test_total_weight_is_the_fraction_sum(instance, data):
    _, g = instance
    dens = st.sampled_from([1, 3, 7])
    weights = [(i, j, w / data.draw(dens)) for (i, j), w in g.weights().items()]
    g = Graph(g.n, g.capacities(), weights)
    edges = data.draw(st.sets(st.sampled_from(g.edges()))) if g.m else set()
    got = g.total_weight(edges)
    assert type(got) is Fraction and got == sum((g.weight(*e) for e in edges), Fraction(0))


# tokens over ASCII and Unicode digits, the characters of signs, digit
# groups, decimals, exponents and ratios, and a superscript two (a digit to
# str.isdigit, not to Fraction)
TOKENS = st.text(alphabet="0123456789\u0663\u0966\uff15+-_.e/\u00b2", min_size=1,
                 max_size=6)


@SETTINGS
@given(TOKENS)
@example("1_000")
@example("+5")
@example("-0")
@example("\u0663")
@example("\u00b2")
@example("0x10")
@example("-3/-4")
def test_every_reader_reads_a_rational_token_as_fraction_does(token):
    # the graph, init-file and certificate readers each give Fraction(token),
    # or their clean parse error exactly when Fraction(token) raises
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        want = None
    text = f"2 1\n1 1\n1 2 {token}\n"
    if want is None:
        with pytest.raises(GraphParseError, match="bad weight"):
            parse_graph(text)
    else:
        assert parse_graph(text).weight(1, 2) == want
    g = Graph(2, [1, 1], [(1, 2, want if want is not None else 0)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "init")
        path.write_text(f"1 2 {token}\n2 1 0\n", encoding="utf-8")
        if want is None:
            with pytest.raises(GraphParseError, match="bad value"):
                _parse_init(f"file={path}", g)
        else:
            assert _parse_init(f"file={path}", g).build(g)[(1, 2)] == want
    # y_1 = w_12 with y_2 = 0 is a feasible perfect-mode dual
    if want is None:
        with pytest.raises(CertificateError, match="bad number"):
            parse_certificate(f"y 1 {token}\n", g, PERFECT)
        with pytest.raises(CertificateError, match="bad number"):
            parse_certificate(f"lambda 1 2 {token}\n", g, PERFECT)
    else:
        assert parse_certificate(f"y 1 {token}\n", g, PERFECT).y[1] == want
        if want >= 0:
            assert parse_certificate(f"lambda 1 2 {token}\n", g, PERFECT).lam[(1, 2)] == want
        else:
            with pytest.raises(CertificateError, match="dual infeasible"):
                parse_certificate(f"lambda 1 2 {token}\n", g, PERFECT)


# Fuzzed input files: a valid file for BASE with a few lines dropped,
# duplicated, inserted or given a different token.  Every outcome must be
# a result or a clean error (exit code 0 or 2 to 5), never an unexpected
# error (1) or a traceback.  BASE is valid in both modes.
BASE = Graph(4, [1, 1, 2, 2], [(1, 2, -3), (1, 3, -5), (1, 4, -2),
                               (2, 3, -4), (2, 4, -6), (3, 4, -1)])
FUZZ_BASES = {
    "graph": serialize_graph(BASE),
    "schedule": serialize_schedule(make_schedule(BASE, "roundrobin").prefix(24)),
    "dual": serialize_certificate(solve_relaxation(BASE, PERFECT)[1]),
    "init": "".join(f"{i} {j} {BASE.weight(i, j)}\n" for (i, j) in BASE.directed_edges()),
}
FUZZ_TOKENS = ["0", "1", "2", "3", "4", "5", "-1", "-7", "1/2", "1/0", "2.5", "x", "#",
               "y", "lambda", "1>2", "2>1", "1>1", "3>", ">", "9>1", "99999"]


@st.composite
def fuzzed(draw, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["token", "drop", "duplicate", "insert"]))
        if op == "insert" or not lines:
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4)))
            continue
        k = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, list(lines[k]))
        else:
            pos = draw(st.integers(0, len(lines[k])))
            lines[k][pos:pos + 1] = [draw(st.sampled_from(FUZZ_TOKENS))]
    return "".join(" ".join(line) + "\n" for line in lines)


# {} is the fuzzed file, BASE the graph file
FUZZ_COMMANDS = {
    "graph": [["solve", "{}", "--certify", "--stop", "certified"], ["certify", "{}"],
              ["tree-verify", "{}", "--t-max", "2"]],
    "schedule": [["solve", "BASE", "--schedule", "file={}", "--stop", "budget=8"],
                 ["schedule-validate", "BASE", "--schedule", "file={}", "--horizon", "8"]],
    "dual": [["certify", "BASE", "--dual-file", "{}"],
             ["solve", "BASE", "--certify", "--stop", "certified", "--dual-file", "{}"]],
    "init": [["solve", "BASE", "--certify", "--init", "file={}", "--stop", "certified"]],
}


@pytest.mark.parametrize("kind", sorted(FUZZ_BASES))
def test_fuzzed_files_exit_cleanly(kind):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fuzzed(FUZZ_BASES[kind]), st.sampled_from(FUZZ_COMMANDS[kind]),
           st.sampled_from([PERFECT, NONPERFECT]))
    def check(text, command, mode):
        with tempfile.TemporaryDirectory() as tmp:
            fuzz, base = Path(tmp, "fuzz"), Path(tmp, "base")
            fuzz.write_text(text)
            base.write_text(FUZZ_BASES["graph"])
            argv = [a.replace("{}", str(fuzz)).replace("BASE", str(base)) for a in command]
            if command[0] in ("solve", "certify"):
                argv += ["--mode", mode]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code != 1 and "Traceback" not in err.getvalue(), (text, argv, err.getvalue())

    check()
