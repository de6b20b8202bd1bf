"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package at desk scale and
prints a single [PASS] line with its timing (run with -s to see them); any
assertion failure means the corresponding guarantee does not hold.
"""

import random
import time
from fractions import Fraction as F

import pytest

from bpmatch import (PERFECT, NONPERFECT, MessageInit, StopPolicy,
                     LPSolution, brute_force, build_certificate, check_cs,
                     is_tight, iteration_bound, solve_relaxation,
                     coverage_threshold, run_sync, run_async, make_schedule,
                     validate_schedule, InfeasibleError)
from bpmatch.harness import sweep, random_instance, tree_verify
from conftest import load_fixture


def _ok(name, elapsed, extra=""):
    tail = f": {extra}" if extra else ""
    print(f"[PASS] {name} ({elapsed:.2f}s){tail}")


@pytest.fixture(scope="session")
def perfect_sweep():
    t0 = time.monotonic()
    result = sweep(PERFECT, instances=220, n_max=6, seed=101)
    result["elapsed"] = time.monotonic() - t0
    return result


@pytest.fixture(scope="session")
def nonperfect_sweep():
    t0 = time.monotonic()
    result = sweep(NONPERFECT, instances=220, n_max=6, seed=202)
    result["elapsed"] = time.monotonic() - t0
    return result


def test_counterexample_fixture_end_to_end():
    """The four-vertex fixture with one equality edge: exact solve, hand
    certificate, and convergence in a single certified round."""
    t0 = time.monotonic()
    k4 = load_fixture("k4-appendix")
    weight, optima = brute_force(k4, PERFECT)
    assert weight == 2
    assert optima == [frozenset({(1, 2), (3, 4)})]

    cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
    primal = LPSolution.from_matching(k4, optima[0], PERFECT)
    assert check_cs(k4, primal, cert).ok
    assert (2, 4) not in cert.S
    assert cert.S == frozenset({(1, 3), (1, 4), (2, 3)})
    assert cert.epsilon == 9 and cert.L == F(1, 2)

    bound = iteration_bound(k4, cert)
    assert bound == 1
    res = run_sync(k4, PERFECT, stop=StopPolicy.certified(bound))
    assert res.estimate.edges == optima[0]
    assert not res.estimate.ties

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok("counterexample fixture", elapsed, "unique optimum, bound 1, exact dual")


def test_certified_convergence_sweep_perfect(perfect_sweep):
    """Random tight perfect instances: the estimate at the certified round
    count equals the exhaustive optimum, always."""
    r = perfect_sweep
    assert r["instances"] >= 200
    assert r["tight"] >= 50
    assert r["mismatches"] == 0 and r["matches"] == r["tight"]
    assert r["elapsed"] < 60.0
    _ok("perfect-mode certified sweep", r["elapsed"],
        f"{r['matches']}/{r['tight']} tight instances matched "
        f"(of {r['instances']} generated)")


def test_certified_convergence_sweep_nonperfect(nonperfect_sweep):
    """Same protocol with non-positive weights and slack capacities."""
    r = nonperfect_sweep
    assert r["instances"] >= 200
    assert r["tight"] >= 50
    assert r["mismatches"] == 0 and r["matches"] == r["tight"]
    assert r["elapsed"] < 60.0
    _ok("non-perfect-mode certified sweep", r["elapsed"],
        f"{r['matches']}/{r['tight']} tight instances matched "
        f"(of {r['instances']} generated)")


def test_asynchronous_schedules_reach_optimum():
    """Redundancy-free single-edge schedules: once every directed edge has
    been updated often enough, the estimate is the optimum; the all-edges
    schedule replays the synchronous trajectory exactly."""
    t0 = time.monotonic()
    instances = [load_fixture("c4")]
    rng = random.Random(404)
    while len(instances) < 21:
        g = random_instance(rng, n_max=6, mode=PERFECT, weight_lo=1, weight_hi=10)
        try:
            if is_tight(g, PERFECT).tight:
                instances.append(g)
        except InfeasibleError:
            continue

    runs = 0
    for g in instances:
        _, optima = brute_force(g, PERFECT)
        _, cert = solve_relaxation(g, PERFECT)
        threshold = coverage_threshold(g, cert)
        for kind, seed in [("roundrobin", None)] + [("random", s) for s in range(10)]:
            sched = make_schedule(g, kind, seed=seed)
            res = run_async(g, sched, stop=StopPolicy.coverage(threshold))
            assert res.coverage.u > threshold
            assert validate_schedule(g, sched, res.iterations) is None
            assert res.estimate.edges == optima[0], (kind, seed)
            runs += 1

        sync = run_sync(g, PERFECT, stop=StopPolicy.budget(8), keep_trace=True)
        asyn = run_async(g, make_schedule(g, "sync"),
                         stop=StopPolicy.budget(8), keep_trace=True)
        for a, b in zip(sync.trace, asyn.trace):
            assert a.m == b.m

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok("asynchronous schedules", elapsed,
        f"{runs} certified runs over {len(instances)} instances, "
        "all-edges schedule bit-identical to synchronous")


def test_tree_semantics_match_engine():
    """Messages equal tree weight differences and selections equal tree
    optima, for balanced trees and for schedule-driven trees (whose branch
    depth also dominates the update count)."""
    t0 = time.monotonic()
    rng = random.Random(505)
    graphs = [random_instance(rng, n_max=5, mode=PERFECT) for _ in range(50)]
    checks = 0
    for g in graphs:
        for kind, seed, t_max in ((None, None, 4), ("sync", None, 4),
                                  ("roundrobin", None, 8), ("random", 606, 8)):
            rows, ok, first = tree_verify(g, t_max, kind, seed)
            assert ok, (kind, first)
            checks += len(rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok("tree reference semantics", elapsed,
        f"{checks} root/time comparisons across 50 graphs, zero mismatches")


def test_tree_semantics_over_a_long_horizon():
    """Every root/time check on the c4 fixture up to t = 1200: one tree-DP
    memo per builder keeps the check linear in the horizon."""
    t0 = time.monotonic()
    rows, ok, first = tree_verify(load_fixture("c4"), 1200)
    assert ok, first
    assert len(rows) == 4 * 1201
    assert all(r["messages"] and r["selection"] and r["depth"] for r in rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("tree semantics over a long horizon", elapsed, f"{len(rows)} root/time checks on c4")


def test_convergence_independent_of_initialization():
    """Arbitrary starting messages only stretch the certified bound; the
    stabilized estimate is unchanged."""
    t0 = time.monotonic()
    k4 = load_fixture("k4-appendix")
    _, optima = brute_force(k4, PERFECT)
    _, cert = solve_relaxation(k4, PERFECT)
    rng = random.Random(707)
    for trial in range(20):
        init = MessageInit.explicit(
            {d: F(rng.randint(-10, 10)) for d in k4.directed_edges()})
        bound = iteration_bound(k4, cert, init)
        res = run_sync(k4, PERFECT, init, StopPolicy.certified(bound))
        assert res.estimate.edges == optima[0], trial
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok("initialization independence", elapsed, "20/20 random starts")


def test_loose_relaxation_diagnostic():
    """The uniform negative triangle: fractional optimum strictly beats every
    matching, the tightness check returns the exact witness, and the engine
    oscillates instead of stabilizing."""
    t0 = time.monotonic()
    tri = load_fixture("tri-half")
    report = is_tight(tri, NONPERFECT)
    assert not report.tight
    assert report.witness == {(1, 2): F(1, 2), (1, 3): F(1, 2), (2, 3): F(1, 2)}
    res = run_sync(tri, NONPERFECT, stop=StopPolicy.budget(10 * tri.n))
    assert not res.converged
    assert res.period == 2 or res.estimate.ties
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok("loose-relaxation diagnostic", elapsed,
        f"witness (1/2, 1/2, 1/2); oscillation period {res.period}")


def test_oracle_self_consistency(perfect_sweep, nonperfect_sweep):
    """Across both sweeps: primal and dual objectives agree exactly, every
    complementary-slackness product vanishes, and the two independent
    tightness procedures never disagree."""
    t0 = time.monotonic()
    for r in (perfect_sweep, nonperfect_sweep):
        assert r["duality_ok"]
        assert r["cs_ok"]
        assert r["tightness_checked_both_ways"] == r["feasible"]
        assert r["tightness_agreements"] == r["tightness_checked_both_ways"]
    elapsed = time.monotonic() - t0
    both = perfect_sweep["feasible"] + nonperfect_sweep["feasible"]
    _ok("oracle self-consistency", elapsed,
        f"{both} instances, zero duality/slackness/tightness disagreements")
