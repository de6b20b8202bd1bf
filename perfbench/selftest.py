"""Self-test of the benchmark's checkers: each one is fed a real answer,
which it must accept, and corrupted copies, which it must reject.

    python3 perfbench/selftest.py        (from the root of a checkout)
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
import shutil
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from gen import NONPERFECT, PERFECT  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def rejected(result):
    return result is not None and result[0] == workloads.WRONG


def test_naive_and_tightness():
    # 4-cycle 1-2-3-4 with weights 1, 2, 1, 2: the unique optimum is {12, 34}
    edges = [(1, 2, Fraction(1)), (2, 3, Fraction(2)), (3, 4, Fraction(1)), (1, 4, Fraction(2))]
    w, opt = check.naive_optima(4, [1] * 4, edges, PERFECT)
    expect(w == 2 and opt == [frozenset({(1, 2), (3, 4)})], "naive optimum of a weighted 4-cycle")
    expect(check.is_tight(4, [1] * 4, edges, PERFECT, w, opt), "bipartite unique optimum is tight")
    # two zero-weight triangles joined by weight-10 edges: every perfect
    # matching uses a joining edge, the all-halves point on the triangles does not
    tri = [(1, 2, Fraction(0)), (2, 3, Fraction(0)), (1, 3, Fraction(0)),
           (3, 4, Fraction(10)), (1, 5, Fraction(10)), (2, 6, Fraction(10)),
           (4, 5, Fraction(0)), (5, 6, Fraction(0)), (4, 6, Fraction(0))]
    w, opt = check.naive_optima(6, [1] * 6, tri, PERFECT)
    expect(not check.is_tight(6, [1] * 6, tri, PERFECT, w, opt),
           "two zero-weight triangles joined by heavy edges are not tight")
    triangle = [(1, 2, Fraction(1)), (2, 3, Fraction(1)), (1, 3, Fraction(1))]
    expect(check.naive_optima(3, [1] * 3, triangle, PERFECT)[0] is None,
           "odd triangle has no perfect matching")


def test_degree_and_lp_proof():
    edges = [(1, 2, Fraction(1)), (2, 3, Fraction(2)), (3, 4, Fraction(1)), (1, 4, Fraction(2))]
    caps = [1] * 4
    expect(not check.degree_check(4, caps, edges, PERFECT, {(1, 2), (3, 4)}), "degree check accepts")
    expect(check.degree_check(4, caps, edges, PERFECT, {(1, 2)}), "degree check rejects a gap")
    expect(check.degree_check(4, caps, edges, PERFECT, {(1, 3), (2, 4)}),
           "degree check rejects non-edges")
    x = {(1, 2): Fraction(1), (2, 3): Fraction(0), (3, 4): Fraction(1), (1, 4): Fraction(0)}
    y = {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 2)}
    lam = {}
    problems, opt = check.lp_proof(4, caps, edges, PERFECT, x, y, lam)
    expect(not problems and opt == 2, "LP proof accepts an optimal pair")
    bad_y = {**y, 1: Fraction(1)}
    expect(check.lp_proof(4, caps, edges, PERFECT, x, bad_y, lam)[0],
           "LP proof rejects an infeasible dual")
    low_y = {**y, 1: Fraction(0)}
    expect(check.lp_proof(4, caps, edges, PERFECT, x, low_y, lam)[0],
           "LP proof rejects unequal objectives")
    bad_x = {**x, (2, 3): Fraction(1)}
    expect(check.lp_proof(4, caps, edges, PERFECT, bad_x, y, lam)[0],
           "LP proof rejects an infeasible primal")


def _first(wl, want):
    for op in wl.ops():
        if want(op):
            return op
    raise LookupError("no op of the wanted kind")


def test_certify_sweep(bp):
    wl = workloads.CertifySweep(7)
    wl.setup(bp)
    tight = _first(wl, lambda op: wl.refs[op][2] and wl.inputs[op][0] == PERFECT)
    rep = wl.run(bp, tight, None)
    expect(wl.check(tight, rep) is None, "certify-sweep accepts a real tight answer")
    c = rep.certification
    wrong_est = dataclasses.replace(rep, final_edges=frozenset(list(rep.final_edges)[1:]))
    expect(rejected(wl.check(tight, wrong_est)), "certify-sweep rejects a wrong estimate")
    y = dict(c.cert.y)
    y[1] += 1
    bad_cert = dataclasses.replace(c, cert=dataclasses.replace(c.cert, y=y))
    expect(rejected(wl.check(tight, dataclasses.replace(rep, certification=bad_cert))),
           "certify-sweep rejects a corrupted dual certificate")
    expect(rejected(wl.check(tight, dataclasses.replace(
        rep, certification=dataclasses.replace(c, bf_weight=c.bf_weight + 1)))),
        "certify-sweep rejects a wrong exhaustive optimum")
    expect(rejected(wl.check(tight, dataclasses.replace(
        rep, certification=dataclasses.replace(c, tight=False)))),
        "certify-sweep rejects a wrong tightness verdict")

    loose = _first(wl, lambda op: not wl.refs[op][2])
    rep = wl.run(bp, loose, None)
    expect(wl.check(loose, rep) is None, "certify-sweep accepts a real non-tight answer")
    c = rep.certification
    opt = wl.refs[loose][1][0]
    integral = {e: Fraction(int(e in opt)) for e in c.witness}
    if len(wl.refs[loose][1]) == 1:
        expect(rejected(wl.check(loose, dataclasses.replace(
            rep, certification=dataclasses.replace(c, witness=integral)))),
            "certify-sweep rejects the unique optimum as a witness")
    over = {e: Fraction(1) for e in c.witness}
    expect(rejected(wl.check(loose, dataclasses.replace(
        rep, certification=dataclasses.replace(c, witness=over)))),
        "certify-sweep rejects an infeasible witness")


def test_async_certify(bp):
    wl = workloads.AsyncCertify(7)
    wl.setup(bp)
    wl.references(bp)
    expect(not wl.problems, "async-certify certificates pass the LP proof")
    res = wl.run(bp, 0, None)
    expect(wl.check(0, res) is None, "async-certify accepts a real run")
    est = dataclasses.replace(res.estimate, edges=frozenset(list(res.estimate.edges)[1:]))
    expect(rejected(wl.check(0, dataclasses.replace(res, estimate=est))),
           "async-certify rejects a wrong estimate")
    cov = dataclasses.replace(res.coverage, u=res.coverage.u - 1)
    expect(rejected(wl.check(0, dataclasses.replace(res, coverage=cov))),
           "async-certify rejects a wrong coverage count")
    short = copy.copy(wl)
    short.thresholds = [t + 10 ** 6 for t in wl.thresholds]
    expect(rejected(short.check(0, res)), "async-certify rejects u below the threshold")


def test_tree_verify(bp):
    wl = workloads.TreeVerify(7)
    wl.setup(bp)
    op = 0
    rows, ok, first = wl.run(bp, op, None)
    expect(wl.check(op, (rows, ok, first)) is None, "tree-verify accepts a real answer")
    bad = [dict(r) for r in rows]
    bad[3]["messages"] = False
    expect(rejected(wl.check(op, (bad, True, None))), "tree-verify rejects a failed row")
    expect(rejected(wl.check(op, (rows[:-1], True, None))), "tree-verify rejects missing rows")
    n, caps, edges = wl.inputs[0]
    sets = [frozenset((a, b) for i, j, _ in edges for a, b in ((i, j), (j, i)))] * 3
    ref = check.reference_messages(n, caps, edges, sets, 3)
    tree = check.TreeValues(n, caps, edges, sets)
    same = all(tree.message(a, b, t) == v for t in range(4) for (a, b), v in ref[t].items())
    expect(same, "reference messages equal computation-tree values (lemma)")
    (a, b), v = next(iter(ref[3].items()))
    expect(tree.message(a, b, 3) != v + 1, "a corrupted message differs from the tree value")


def test_solve_large(bp):
    tmp = os.path.join(ROOT, ".perfbench_out", "selftest")
    try:
        wl = workloads.SolveLarge(7, tmp)
        wl.K_SIDE, wl.EXTRA_DEGREE = 12, 3
        wl.setup(bp)
        wl.references(bp)
        for op in wl.ops():
            out = wl.run(bp, op, None)
            expect(wl.check(op, out) is None, f"solve-large accepts a real answer ({wl.inputs[op][0]})")
            rep = json.loads(out[1])
            dropped = dict(rep, estimate=rep["estimate"][1:])
            expect(rejected(wl.check(op, (0, json.dumps(dropped), ""))),
                   "solve-large rejects a b-matching with an edge missing")
            heavier = dict(rep, estimate_weight=str(Fraction(rep["estimate_weight"]) + 1))
            expect(rejected(wl.check(op, (0, json.dumps(heavier), ""))),
                   "solve-large rejects a wrong reported weight")
            wl.optimum[op] -= 1
            expect(rejected(wl.check(op, out)), "solve-large rejects a weight above the optimum")
            wl.optimum[op] += 1
        expect(wl.check(0, (4, "", ""))[0] == workloads.EXIT, "solve-large rejects exit code 4")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    mcf = check.bipartite_optimum(2, [1, 1, 1, 1], [(1, 3, Fraction(1)), (1, 4, Fraction(5)),
                                                     (2, 3, Fraction(5)), (2, 4, Fraction(1))],
                                  PERFECT)
    expect(mcf == 2, "min-cost flow optimum of a 2x2 assignment")
    mcf = check.bipartite_optimum(2, [1, 1, 1, 1], [(1, 3, Fraction(-1)), (2, 4, Fraction(-3, 2))],
                                  NONPERFECT)
    expect(mcf == Fraction(-5, 2), "min-cost flow optimum with rational negative weights")


def main():
    import bpmatch
    import bpmatch.cli  # noqa: F401
    import bpmatch.harness  # noqa: F401
    test_naive_and_tightness()
    test_degree_and_lp_proof()
    test_certify_sweep(bpmatch)
    test_async_certify(bpmatch)
    test_tree_verify(bpmatch)
    test_solve_large(bpmatch)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
