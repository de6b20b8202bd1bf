"""Ground truth for desk-scale instances.

Everything here is exact: exhaustive enumeration of optimal matchings, the
linear relaxation and its dual solved by the fraction-free integer simplex of
`bpmatch.simplex`, complementary slackness checking, a tightness decision
(does the relaxation admit any fractional optimum?) made with at most one LP
over the optimal face on top of the relaxation, an independent tightness
verdict by half-integral enumeration, and the certified iteration bound for
the engine.

One enumerator serves both exhaustive searches: a pruned depth-first search
for minimum-weight points in scaled ints, over x in {0, 1}^E for the
optimal matchings and over {0, 1/2, 1}^E for the half-integral cross-check.
The relaxation and the optimal-face LP of the tightness decision are one
degree LP: the relaxation is the face LP with every edge free.

The dual certificate carries the derived quantities the bound needs: the
set S of edges whose weight differs from the sum of its endpoints' dual
prices, the minimum such gap epsilon, and the largest price magnitude L.
One horizon serves both certified stops: 2nL/epsilon in perfect mode and
4nL/epsilon in non-perfect mode, with L grown by the largest initial
message when the run does not start from the weights.  A synchronous run
stops after its ceiling (n+1 rounds when S is empty and epsilon is
undefined), an asynchronous run once every directed edge has been updated
more than that many times (more than n times when S is empty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, PERFECT, NONPERFECT, MODES, ZERO, GraphError, edge_key
from .engine import MessageInit
from .simplex import solve_lp, LPInfeasible

BRUTE_FORCE_GUARD = 30
ENUMERATION_GUARD = 18


class OracleError(GraphError):
    pass


class InfeasibleError(OracleError):
    pass


class GuardExceeded(OracleError):
    pass


class CertificateError(OracleError):
    pass


def _require_mode(mode: str):
    if mode not in MODES:
        raise OracleError(f"unknown mode {mode!r}")


# -- exhaustive optimization ----------------------------------------------------

def _min_points(g: Graph, mode: str, edges, values, minimum=None):
    """The minimum-weight points x of {v/2 : v in values}^edges, `values`
    being (0, 2) or (0, 1, 2) in any order, whose vertex loads stay within
    the capacities (and meet them in perfect mode): returns (their weight,
    the points as tuples of half units in `edges` order), or (None, []) when
    there are none.

    A depth-first search over `values` in the order given, in ints: weights
    times their least common denominator, x and capacities times two.  It
    prunes a branch whose lower bound exceeds the best weight found so far,
    and in perfect mode a branch that leaves a capacity out of reach.  A
    known `minimum` stands in for the best weight from the start, and a point
    below it raises OracleError; once the search has met a fractional point
    or a second point at `minimum`, it looks only for points below it.
    """
    scale = math.lcm(*(g.weight(*e).denominator for e in edges))
    w = [g.weight(*e).numerator * (scale // g.weight(*e).denominator) for e in edges]
    best = None
    if minimum is not None:
        best = 2 * scale * Fraction(minimum)
        if best.denominator != 1:
            raise OracleError(f"{minimum} is not the weight of any half-integral point")
        best = int(best)
    limit = best
    m = len(edges)
    cap = [0] + [2 * g.cap(i) for i in g.vertices()]
    # low[k]: the least weight edges k.. can add; left[k]: the load edges
    # after k can still add at each end of edge k (x_e <= 1 is 2 half units)
    low = [0] * (m + 1)
    left = [None] * m
    reach = [0] * len(cap)
    for k in range(m - 1, -1, -1):
        i, j = edges[k]
        left[k] = reach[i], reach[j]
        reach[i] += 2
        reach[j] += 2
        low[k] = low[k + 1] + min(0, 2 * w[k])
    perfect = mode == PERFECT
    load = [0] * len(cap)
    x = [0] * m
    points = []

    def dfs(k, weight):
        nonlocal best, limit
        if limit is not None and weight + low[k] > limit:
            return
        if k == m:
            if perfect and load != cap:
                return
            if best is None or weight < best:
                if minimum is not None:
                    raise OracleError(f"a half-integral point weighs less than {minimum}")
                best = limit = weight
                points.clear()
            points.append(tuple(x))
            if minimum is not None and (1 in x or len(points) > 1):
                limit = best - 1
            return
        i, j = edges[k]
        room = min(cap[i] - load[i], cap[j] - load[j])
        left_i, left_j = left[k]
        for d in values:
            if d > room:
                continue
            if perfect and (load[i] + d + left_i < cap[i] or load[j] + d + left_j < cap[j]):
                continue
            x[k] = d
            load[i] += d
            load[j] += d
            dfs(k + 1, weight + d * w[k])
            load[i] -= d
            load[j] -= d

    dfs(0, 0)
    if not points:
        return None, []
    return Fraction(best, 2 * scale), points


def brute_force(g: Graph, mode: str, guard: int = BRUTE_FORCE_GUARD):
    """All minimum-weight matchings by exhaustive search over x in {0, 1}^E,
    lightest edges first.

    Returns (optimal weight, sorted list of optimal edge sets).  Raises
    InfeasibleError when perfect mode has no feasible matching.
    """
    _require_mode(mode)
    if g.m > guard:
        raise GuardExceeded(f"{g.m} edges exceeds the enumeration guard {guard}")
    edges = sorted(g.edges(), key=lambda e: (g.weight(*e), e))
    weight, points = _min_points(g, mode, edges, (2, 0))
    if not points:
        raise InfeasibleError("no perfect matching exists")
    optima = [frozenset(e for e, d in zip(edges, x) if d) for x in points]
    return weight, sorted(optima, key=sorted)


# -- linear relaxation ------------------------------------------------------------

@dataclass(frozen=True)
class LPSolution:
    mode: str
    x: dict
    objective: Fraction
    integral: bool

    @classmethod
    def from_matching(cls, g: Graph, edges, mode: str) -> "LPSolution":
        keys = frozenset(edge_key(i, j) for (i, j) in edges)
        x = {e: Fraction(1) if e in keys else ZERO for e in g.edges()}
        obj = sum((g.weight(*e) for e in keys), ZERO)
        return cls(mode, x, obj, True)


@dataclass(frozen=True)
class DualCertificate:
    mode: str
    y: dict
    lam: dict
    S: frozenset
    epsilon: Fraction | None
    L: Fraction


def _gap(mode: str, w, y, e) -> Fraction:
    """The dual gap of edge e = (i, j) at cost w (its weight, or weight plus
    lambda): w - (y_i + y_j) in perfect mode, w + (y_i + y_j) in non-perfect."""
    i, j = e
    return w - y[i] - y[j] if mode == PERFECT else w + y[i] + y[j]


def build_certificate(g: Graph, y, lam, mode: str) -> DualCertificate:
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


def dual_objective(g: Graph, cert: DualCertificate) -> Fraction:
    total_y = sum((Fraction(g.cap(i)) * cert.y[i] for i in g.vertices()), ZERO)
    total_l = sum(cert.lam.values(), ZERO)
    return (total_y if cert.mode == PERFECT else -total_y) - total_l


def _degree_lp(g: Graph, mode: str, cost, fixed_one=(), equality_vertices=()):
    """The degree LP as (A, b, c, idx) for `solve_lp`: minimize cost.x over the
    variable edges (the keys of `cost`; idx maps each to its column) with
    0 <= x <= 1, each vertex's load on them being b_i less its fixed-one
    edges, or at most that at a non-equality vertex of non-perfect mode.  The
    relaxation has every edge variable, the weights as costs, nothing fixed.

    Columns: x, the non-equality vertices' slacks, the x <= 1 slacks.  Rows:
    one per vertex, dropped when empty with zero right-hand side (never
    without fixed edges, capacities being positive), then the x <= 1 caps.
    A and b are ints, as `solve_lp` requires; the costs stay rational.
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


def solve_relaxation(g: Graph, mode: str):
    """Optimal vertex of the relaxation plus the matching dual certificate."""
    _require_mode(mode)
    A, b, c, idx = _degree_lp(g, mode, {e: g.weight(*e) for e in g.edges()})
    try:
        res = solve_lp(A, b, c)
    except LPInfeasible:
        raise InfeasibleError("relaxation infeasible") from None
    x = {e: res.x[k] for e, k in idx.items()}
    integral = all(v in (0, 1) for v in x.values())
    sol = LPSolution(mode, x, res.objective, integral)
    # every vertex keeps its row: rows 0..n-1 are the vertices, then the caps
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


# -- complementary slackness -------------------------------------------------------

@dataclass(frozen=True)
class CSCheck:
    name: str
    subject: tuple
    value: object
    ok: bool


@dataclass(frozen=True)
class CSReport:
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def check_cs(g: Graph, primal: LPSolution, dual: DualCertificate) -> CSReport:
    """Evaluate every complementary-slackness product exactly.

    At an integral primal these are the sharper matching conditions too:
    member edges meet their dual bound with equality, non-members carry zero
    lambda, and (in non-perfect mode) unsaturated vertices carry zero price.
    """
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


# -- tightness ------------------------------------------------------------------------

@dataclass(frozen=True)
class TightnessReport:
    tight: bool
    witness: dict | None
    reason: str
    lp_objective: Fraction
    bf_weight: Fraction
    bf_count: int


def is_tight(g: Graph, mode: str, *, optima=None, relaxation=None) -> TightnessReport:
    """Decide whether every optimal point of the relaxation is integral.

    `optima` is the caller's `brute_force(g, mode)` result and `relaxation`
    its `solve_relaxation(g, mode)` result; either is computed here when
    omitted.  The relaxation value must equal the exhaustive optimum, the
    exhaustive optimum must be unique, and the relaxation vertex x* must be
    integral.  Complementary slackness with the relaxation's dual then fixes
    some edges to 0 or 1 and leaves the rest free; one LP maximizes
    ||x - x*||_1 over the optimal face (linear, because x* is 0/1), and the
    instance is tight iff that maximum is zero.  A fractional optimal point
    is returned as the witness whenever the answer is no.
    """
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
        # an optimal vertex besides the unique integral optimum
        return TightnessReport(False, dict(sol.x), "optimal_face_has_positive_dimension",
                               sol.objective, bf_weight, 1)

    # Complementary slackness pins edges with a positive dual slack to 0 and
    # edges with positive lambda to 1; the rest span the optimal face.
    fixed_zero, fixed_one, free = set(), set(), []
    for e in g.edges():
        if _gap(mode, g.weight(*e) + cert.lam[e], cert.y, e) > 0:
            fixed_zero.add(e)
        elif cert.lam[e] > 0:
            fixed_one.add(e)
        else:
            free.append(e)
    if free:
        # maximize ||x - x*||_1 over the face; a non-perfect vertex with a
        # positive price stays saturated there
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
    optimum = bf_all[0]
    point = dict.fromkeys(fixed_zero, ZERO)
    point.update(dict.fromkeys(fixed_one, Fraction(1)))
    point.update({e: sol.x[e] for e in free})
    if point != {e: Fraction(int(e in optimum)) for e in g.edges()}:
        raise OracleError("zero-dimensional optimal face disagrees with the exhaustive optimum")
    return TightnessReport(True, None, "unique_integral_optimum",
                           sol.objective, bf_weight, 1)


def tightness_by_enumeration(g: Graph, mode: str, lp_objective: Fraction,
                             guard: int = ENUMERATION_GUARD):
    """Independent tightness verdict via half-integral search.

    Every vertex of the relaxation polytope takes values in {0, 1/2, 1}, so
    enumerating such points at the optimal value decides tightness: tight
    means exactly one optimal point exists and it is integral.  Returns
    (tight, fractional witness or None).  Raises OracleError when
    `lp_objective` is not the least weight of a half-integral point.
    """
    _require_mode(mode)
    if g.m > guard:
        raise GuardExceeded(f"{g.m} edges exceeds the enumeration guard {guard}")
    edges = g.edges()
    _, points = _min_points(g, mode, edges, (0, 1, 2), lp_objective)
    if not points:
        raise OracleError("no optimal half-integral point found; wrong objective value?")
    last = points[-1]
    if 1 in last:
        return False, {e: Fraction(d, 2) for e, d in zip(edges, last)}
    if len(points) == 1:
        return True, None
    # two integral optima: their midpoint
    return False, {e: Fraction(a + b, 4) for e, a, b in zip(edges, *points)}


# -- iteration bound --------------------------------------------------------------------

def coverage_threshold(g: Graph, cert: DualCertificate, mode: str | None = None,
                       init: MessageInit | None = None) -> Fraction:
    """The certified horizon: 2nL/eps in perfect mode, 4nL/eps in non-perfect
    mode, where L grows by the largest initial message magnitude when the run
    does not start from the edge weights; n when S is empty and eps is
    undefined.  An asynchronous certified run stops once u(t) exceeds it.
    """
    mode = mode or cert.mode
    if mode != cert.mode:
        raise OracleError(f"certificate is for {cert.mode} mode, not {mode}")
    n = g.n
    if cert.epsilon is None:
        return Fraction(n)
    L = cert.L
    if init is not None and init.kind != "weights":
        L = L + init.max_abs(g)
    factor = 2 if mode == PERFECT else 4
    return Fraction(factor * n) * L / cert.epsilon


def iteration_bound(g: Graph, cert: DualCertificate, init: MessageInit | None = None,
                    mode: str | None = None) -> int:
    """Certified number of synchronous rounds after which the estimate is the
    optimum: the ceiling of `coverage_threshold`, or n+1 when S is empty.
    Only meaningful on tight instances.
    """
    threshold = coverage_threshold(g, cert, mode, init)
    if cert.epsilon is None:
        return g.n + 1
    return math.ceil(threshold)


# -- certificate files --------------------------------------------------------------------

def serialize_certificate(cert: DualCertificate) -> str:
    lines = []
    for i in sorted(cert.y):
        lines.append(f"y {i} {cert.y[i]}")
    for (i, j) in sorted(cert.lam):
        lines.append(f"lambda {i} {j} {cert.lam[(i, j)]}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, g: Graph, mode: str) -> DualCertificate:
    """Read "y i value" / "lambda i j value" lines; absent entries are zero."""
    y, lam = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        try:
            if tokens[0] == "y" and len(tokens) == 3:
                i = int(tokens[1])
                if not 1 <= i <= g.n:
                    raise CertificateError(f"line {lineno}: vertex {i} out of range")
                if i in y:
                    raise CertificateError(f"line {lineno}: duplicate y {i}")
                y[i] = Fraction(tokens[2])
            elif tokens[0] == "lambda" and len(tokens) == 4:
                i, j = int(tokens[1]), int(tokens[2])
                if i == j:
                    raise CertificateError(f"line {lineno}: self-loop at vertex {i}")
                e = edge_key(i, j)
                if not g.has_edge(i, j):
                    raise CertificateError(f"line {lineno}: edge {e} not in graph")
                if e in lam:
                    raise CertificateError(f"line {lineno}: duplicate lambda {e}")
                lam[e] = Fraction(tokens[3])
            else:
                raise CertificateError(f"line {lineno}: expected 'y i v' or 'lambda i j v'")
        except (ValueError, ZeroDivisionError):
            raise CertificateError(f"line {lineno}: bad number") from None
    return build_certificate(g, y, lam, mode)
