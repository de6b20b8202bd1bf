"""The reference for the integer certificate checks of `bpmatch.oracle`.

The same dual-certificate facts on `Fraction`s: dual feasibility with its
error text, the gap set S, epsilon and L, the dual objective, every
complementary-slackness product, the relaxation's hand-off of the simplex
duals, and the tightness decision by the fixed-zero / fixed-one / free
split and one LP over the optimal face, every value an exact rational with
no common denominator.  Tests compare `build_certificate`,
`dual_objective`, `solve_relaxation`, `check_cs` and `is_tight` of
`bpmatch.oracle` with the functions here, result for result and error text
for error text; `is_tight` decides the face by a cycle search instead, so
its witness of a positive-dimensional face may be another optimal point.

Unlike `bpmatch.oracle.build_certificate`, `build_certificate` here takes
keys and values as given: it drops entries whose key names no vertex or
edge and converts floats, so tests draw only well-formed entries.
"""

from __future__ import annotations

from fractions import Fraction

from bpmatch.graph import NONPERFECT, PERFECT, ZERO, edge_key
from bpmatch.oracle import (CertificateError, CSCheck, CSReport, DualCertificate,
                            InfeasibleError, LPSolution, OracleError, TightnessReport,
                            _require_mode, brute_force)
from bpmatch.simplex import LPInfeasible, solve_lp


def _gap(mode: str, w, y, e) -> Fraction:
    """The dual gap of edge e = (i, j) at cost w (its weight, or weight plus
    lambda): w - (y_i + y_j) in perfect mode, w + (y_i + y_j) in non-perfect."""
    i, j = e
    return w - y[i] - y[j] if mode == PERFECT else w + y[i] + y[j]


def build_certificate(g, y, lam, mode: str) -> DualCertificate:
    """Derive S / epsilon / L from dual values, verifying dual feasibility."""
    _require_mode(mode)
    y = {i: Fraction(y.get(i, 0)) for i in g.vertices()}
    lam = {e: Fraction(lam.get(e, 0)) for e in g.edges()}
    problems = []
    for e, l in lam.items():
        if l < 0:
            problems.append(f"lambda{e} = {l} < 0")
    if mode == NONPERFECT:
        for i, v in y.items():
            if v < 0:
                problems.append(f"y[{i}] = {v} < 0 in non-perfect mode")
    for e in g.edges():
        cost = g.weight(*e) + lam[e]
        bound = cost - _gap(mode, cost, y, e)  # y_i + y_j, negated if non-perfect
        if cost < bound:
            problems.append(f"edge {e}: w + lambda = {cost} < {bound}")
    if problems:
        raise CertificateError("dual infeasible: " + "; ".join(problems))
    gaps = {e: _gap(mode, g.weight(*e), y, e) for e in g.edges()}
    S = frozenset(e for e, v in gaps.items() if v != 0)
    epsilon = min((abs(gaps[e]) for e in S), default=None)
    L = max((abs(v) for v in y.values()), default=ZERO)
    return DualCertificate(mode, y, lam, S, epsilon, L)


def dual_objective(g, cert: DualCertificate) -> Fraction:
    total_y = sum((Fraction(g.cap(i)) * cert.y[i] for i in g.vertices()), ZERO)
    total_l = sum(cert.lam.values(), ZERO)
    return (total_y if cert.mode == PERFECT else -total_y) - total_l


def _degree_lp(g, mode: str, cost, fixed_one=(), equality_vertices=()):
    """The degree LP as (A, b, c, idx) for `solve_lp`: minimize cost.x over the
    variable edges (the keys of `cost`; idx maps each to its column) with
    0 <= x <= 1, each vertex's load on them being b_i less its fixed-one
    edges, or at most that at a non-equality vertex of non-perfect mode.  The
    relaxation has every edge variable, the weights as costs, nothing fixed.

    Columns: x, the non-equality vertices' slacks, the x <= 1 slacks.  Rows:
    one per vertex, dropped when empty with zero right-hand side (never
    without fixed edges, capacities being positive), then the x <= 1 caps.
    """
    idx = {e: k for k, e in enumerate(cost)}
    nvar = len(idx)
    forced = dict.fromkeys(g.vertices(), 0)
    for (i, j) in fixed_one:
        forced[i] += 1
        forced[j] += 1
    ineq = [i for i in g.vertices() if i not in equality_vertices] if mode == NONPERFECT else []
    slack_v = {i: k for k, i in enumerate(ineq)}
    ncols = nvar + len(ineq) + nvar
    A, b = [], []
    for i in g.vertices():
        row = [0] * ncols
        touched = False
        for j in g.neighbors(i):
            e = edge_key(i, j)
            if e in idx:
                row[idx[e]] = 1
                touched = True
        if i in slack_v:
            row[nvar + slack_v[i]] = 1
            touched = True
        rhs = g.cap(i) - forced[i]
        if rhs < 0:
            raise OracleError("optimal face bookkeeping went negative")
        if touched or rhs != 0:
            A.append(row)
            b.append(rhs)
    for k in range(nvar):
        row = [0] * ncols
        row[k] = 1
        row[nvar + len(ineq) + k] = 1
        A.append(row)
        b.append(1)
    c = list(cost.values()) + [ZERO] * (ncols - nvar)
    return A, b, c, idx


def solve_relaxation(g, mode: str):
    """Optimal vertex of the relaxation plus the matching dual certificate,
    the duals read off `LPResult.dual` one Fraction at a time."""
    _require_mode(mode)
    A, b, c, idx = _degree_lp(g, mode, {e: g.weight(*e) for e in g.edges()})
    try:
        res = solve_lp(A, b, c)
    except LPInfeasible:
        raise InfeasibleError("relaxation infeasible") from None
    x = {e: res.x[k] for e, k in idx.items()}
    integral = all(v in (0, 1) for v in x.values())
    sol = LPSolution(mode, x, res.objective, integral)
    n = g.n
    if mode == PERFECT:
        y = {i: res.dual[i - 1] for i in g.vertices()}
    else:
        y = {i: -res.dual[i - 1] for i in g.vertices()}
    lam = {e: -res.dual[n + k] for e, k in idx.items()}
    cert = build_certificate(g, y, lam, mode)
    if dual_objective(g, cert) != sol.objective:
        raise OracleError("strong duality violated; simplex produced a bad dual")
    return sol, cert


def check_cs(g, primal: LPSolution, dual: DualCertificate) -> CSReport:
    """Evaluate every complementary-slackness product exactly."""
    if primal.mode != dual.mode:
        raise OracleError("primal/dual mode mismatch")
    mode = primal.mode
    checks = []
    y, lam = dual.y, dual.lam
    for e in g.edges():
        xe = primal.x.get(e, ZERO)
        v1 = xe * _gap(mode, g.weight(*e) + lam[e], y, e)
        checks.append(CSCheck("edge_slack_product", e, v1, v1 == 0))
        v2 = (xe - 1) * lam[e]
        checks.append(CSCheck("upper_bound_product", e, v2, v2 == 0))
    if mode == NONPERFECT:
        for i in g.vertices():
            load = sum((primal.x.get(edge_key(i, j), ZERO) for j in g.neighbors(i)), ZERO)
            v = (load - g.cap(i)) * y[i]
            checks.append(CSCheck("vertex_slack_product", (i,), v, v == 0))
    return CSReport(checks)


def is_tight(g, mode: str, *, optima=None, relaxation=None) -> TightnessReport:
    """Decide whether every optimal point of the relaxation is integral,
    splitting the edges by their Fraction dual slacks."""
    _require_mode(mode)
    bf_weight, bf_all = optima if optima is not None else brute_force(g, mode)
    sol, cert = relaxation if relaxation is not None else solve_relaxation(g, mode)
    if sol.objective != bf_weight:
        if sol.integral:
            raise OracleError("integral relaxation optimum below the exhaustive optimum")
        return TightnessReport(False, dict(sol.x), "fractional_point_beats_integral",
                               sol.objective, bf_weight, len(bf_all))
    if len(bf_all) > 1:
        a, b_ = bf_all[0], bf_all[1]
        witness = {e: (Fraction(int(e in a)) + Fraction(int(e in b_))) / 2 for e in g.edges()}
        return TightnessReport(False, witness, "multiple_integral_optima",
                               sol.objective, bf_weight, len(bf_all))
    if not sol.integral:
        return TightnessReport(False, dict(sol.x), "optimal_face_has_positive_dimension",
                               sol.objective, bf_weight, 1)

    fixed_zero, fixed_one, free = set(), set(), []
    for e in g.edges():
        if _gap(mode, g.weight(*e) + cert.lam[e], cert.y, e) > 0:
            fixed_zero.add(e)
        elif cert.lam[e] > 0:
            fixed_one.add(e)
        else:
            free.append(e)
    # x* must be the exhaustive optimum and meet complementary slackness
    # with the dual
    optimum = bf_all[0]
    if (sol.x != {e: Fraction(int(e in optimum)) for e in g.edges()}
            or not check_cs(g, sol, cert).ok):
        raise OracleError("the integral relaxation optimum disagrees with the exhaustive "
                          "optimum or fails complementary slackness with its dual")
    if free:
        cost = {e: Fraction(1) if sol.x[e] == 1 else Fraction(-1) for e in free}
        held = {i for i in g.vertices() if cert.y[i] != 0}
        A, b, c, idx = _degree_lp(g, mode, cost, fixed_one, held)
        x = solve_lp(A, b, c).x
        far = {e: x[k] for e, k in idx.items()}
        if any(far[e] != sol.x[e] for e in free):
            witness = {e: (sol.x[e] + far[e]) / 2 for e in free}
            witness.update({e: ZERO for e in fixed_zero})
            witness.update({e: Fraction(1) for e in fixed_one})
            return TightnessReport(False, witness, "optimal_face_has_positive_dimension",
                                   sol.objective, bf_weight, 1)
    return TightnessReport(True, None, "unique_integral_optimum",
                           sol.objective, bf_weight, 1)
