import random
from fractions import Fraction
from itertools import combinations

import pytest

from bpmatch import (Graph, PERFECT, InfeasibleError, MessageInit, StopPolicy, is_tight,
                     parse_graph, fixture_path, make_schedule, run_async, run_sync)
from bpmatch.harness import random_instance


def load_fixture(name):
    return parse_graph(fixture_path(name).read_text())


def sync_rounds(g, s, mode=PERFECT, rounds=1):
    """The state `rounds` synchronous rounds after state `s`, read from the
    trace of a run_sync started at `s`."""
    run = run_sync(g, mode, MessageInit.explicit(s.m), StopPolicy.budget(rounds),
                   keep_trace=True)
    return run.trace[rounds]


def async_step(g, s, updates, mode=PERFECT):
    """The state one step after state `s` when exactly `updates` recompute,
    read from the trace of a one-step run_async over an explicit schedule."""
    sched = make_schedule(g, "explicit", sets=[updates])
    run = run_async(g, sched, MessageInit.explicit(s.m), StopPolicy.budget(1), mode,
                    keep_trace=True)
    return run.trace[1]


def corrupt_message(trace, t, edge, delta):
    """Add `delta` to the message on `edge` at step t of `trace`, in its step
    log: to the value step t wrote there, as one more write of step t when
    it wrote none, or to the start at t = 0.  The wrong value lasts until
    the edge is written again."""
    k = trace.dirs.index(edge)
    value = (trace[t].m[edge] + delta) * trace.scale
    if t == 0:
        trace.start[k] = value
        return
    plan = trace.plans[t - 1]
    at = sum(len(p.ids) for p in trace.plans[:t - 1])  # step t's first value
    if k in plan.ids:
        trace.wrote[at + plan.ids.index(k)] = value
    else:
        trace.wrote.insert(at + len(plan.ids), value)
        trace.plans[t - 1] = plan._replace(ids=plan.ids + [k])


def lower_vertex_prices(monkeypatch):
    """Make `oracle.solve_lp` return the perfect-mode degree LP's vertex
    prices (its first n rows, n = rows - columns / 2) one cost unit lower:
    the dual stays feasible, but its objective falls below the primal's."""
    from bpmatch import oracle
    from bpmatch.simplex import LPResult
    real = oracle.solve_lp

    def lowered(A, b, c):
        res = real(A, b, c)
        d, prices = res.scaled_dual
        n = len(A) - len(A[0]) // 2
        return LPResult(res.x, res.objective, None, res.basis,
                        (d, [p - d if k < n else p for k, p in enumerate(prices)]))

    monkeypatch.setattr(oracle, "solve_lp", lowered)


def tight_instances(count=21, seed=404):
    """The c4 fixture, then the perfect random_instance draws of `seed`
    (n <= 6, weights 1..10) whose LP relaxation is tight, `count` graphs in
    all: the instances of the asynchronous acceptance runs."""
    instances = [load_fixture("c4")]
    rng = random.Random(seed)
    while len(instances) < count:
        g = random_instance(rng, n_max=6, mode=PERFECT, weight_lo=1, weight_hi=10)
        try:
            if is_tight(g, PERFECT).tight:
                instances.append(g)
        except InfeasibleError:
            continue
    return instances


@pytest.fixture
def c4():
    return load_fixture("c4")


@pytest.fixture
def k4():
    return load_fixture("k4-appendix")


@pytest.fixture
def tri_neg():
    return load_fixture("tri-neg")


@pytest.fixture
def tri_half():
    return load_fixture("tri-half")


@pytest.fixture
def p4():
    return load_fixture("p4")


def naive_optima(g, mode):
    """Reference optimizer, structurally independent of the library's search:
    plain iteration over all edge subsets.  Keep to small graphs."""
    edges = g.edges()
    best, out = None, []
    for r in range(len(edges) + 1):
        for comb in combinations(edges, r):
            deg = dict.fromkeys(g.vertices(), 0)
            for (i, j) in comb:
                deg[i] += 1
                deg[j] += 1
            if mode == PERFECT and any(deg[i] != g.cap(i) for i in g.vertices()):
                continue
            if any(deg[i] > g.cap(i) for i in g.vertices()):
                continue
            w = sum((g.weight(*e) for e in comb), Fraction(0))
            if best is None or w < best:
                best, out = w, [frozenset(comb)]
            elif w == best:
                out.append(frozenset(comb))
    return best, sorted(out, key=sorted)


def random_graph_any(rng, n_max=8, allow_trivial=True, weight_lo=-9, weight_hi=9):
    """Random valid graph; unlike the harness generator this one keeps
    vertices whose degree equals their capacity, so reductions have work."""
    while True:
        n = rng.randint(2, n_max)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        p = rng.uniform(0.35, 0.9)
        chosen = [e for e in pairs if rng.random() < p]
        deg = dict.fromkeys(range(1, n + 1), 0)
        for (i, j) in chosen:
            deg[i] += 1
            deg[j] += 1
        floor = 1 if allow_trivial else 2
        if any(d < floor for d in deg.values()):
            continue
        caps = []
        for i in range(1, n + 1):
            hi = deg[i] if allow_trivial else deg[i] - 1
            caps.append(rng.randint(1, min(2, hi)))
        return Graph(n, caps, [(i, j, rng.randint(weight_lo, weight_hi)) for (i, j) in chosen])
