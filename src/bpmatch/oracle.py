"""Ground truth for desk-scale instances.

Everything here is exact: exhaustive enumeration of optimal matchings, the
linear relaxation and its dual solved by the fraction-free integer simplex of
`bpmatch.simplex`, complementary slackness checking, a tightness decision
(does the relaxation admit any fractional optimum?) made with no LP beyond
the relaxation, by a cycle search on the double cover of the edges its dual
leaves free, an independent tightness verdict by half-integral enumeration,
and the certified iteration bound for the engine.

One enumerator serves both exhaustive searches: a pruned depth-first search
for minimum-weight points over the graph's int weights, over x in
{0, 1}^E for the optimal matchings (lightest edges first, ordered by those
ints) and over {0, 1/2, 1}^E for the half-integral cross-check.

The dual certificate carries the derived quantities the bound needs: the
set S of edges whose weight differs from the sum of its endpoints' dual
prices, the minimum such gap epsilon, and the largest price magnitude L.
The certificate checks run on ints and build Fractions only for their
results: y and lambda times a multiple D of g.scale, and the graph's own
int weights rescaled to it by one factor, so a check reads the scale of
the graph it is handed and never another's.  The relaxation stays in ints
from end to end: the simplex takes the int weights as its costs, and its
int prices, over D = d * g.scale, go straight into those checks and the
strong-duality check.  A given dual is put over D = lcm(g.scale, its
denominators).
One horizon serves both certified stops: 2nL/epsilon in perfect mode and
4nL/epsilon in non-perfect mode, with L grown by the largest initial
message when the run does not start from the weights.  A synchronous run
stops after its ceiling (n+1 rounds when S is empty and epsilon is
undefined), an asynchronous run once every directed edge has been updated
more than that many times (more than n times when S is empty).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graph import (Graph, PERFECT, NONPERFECT, MODES, ZERO, GraphError, edge_key,
                    parse_rational, text_rows)
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


class StrongDualityError(OracleError):
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

    A depth-first search over `values` in the order given, in ints: the
    graph's int weights, x and capacities times two.  It prunes a branch
    whose lower bound exceeds the best weight found so far, and in perfect
    mode a branch that leaves a capacity out of reach.  A known `minimum`
    stands in for the best weight from the start, and a point below it
    raises OracleError; once the search has met a fractional point or a
    second point at `minimum`, it looks only for points below it.
    """
    w = [g.int_weights[e] for e in edges]
    best = None
    if minimum is not None:
        best = 2 * g.scale * Fraction(minimum)
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
    return Fraction(best, 2 * g.scale), points


def brute_force(g: Graph, mode: str):
    """All minimum-weight matchings by exhaustive search over x in {0, 1}^E,
    lightest edges first: sorted by the graph's int weights, which order
    them as the weights do, ties by edge.

    Returns (optimal weight, sorted list of optimal edge sets).  Raises
    InfeasibleError when perfect mode has no feasible matching.
    """
    _require_mode(mode)
    if g.m > BRUTE_FORCE_GUARD:
        raise GuardExceeded(f"{g.m} edges exceeds the enumeration guard {BRUTE_FORCE_GUARD}")
    edges = sorted(g.edges(), key=g.int_weights.__getitem__)
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
        return cls(mode, x, g.total_weight(keys), True)


@dataclass(frozen=True)
class DualCertificate:
    mode: str
    y: dict
    lam: dict
    S: frozenset
    epsilon: Fraction | None
    L: Fraction


def _scaled(*maps, scale=1):
    """The least common multiple D of `scale` and the denominators of the
    values of `maps`, dicts of Fractions (or ints), and each map with its
    values times D, as ints."""
    D = math.lcm(scale, *{v.denominator for m in maps for v in m.values()})
    return (D, *({k: v.numerator * (D // v.denominator) for k, v in m.items()} for m in maps))


def _gaps(g: Graph, mode: str, D, Y):
    """Each edge's dual gap times D, w - (y_i + y_j) in perfect mode,
    w + y_i + y_j in non-perfect mode, for y = Y/D, D a multiple of g.scale,
    from g's own int weights times D // g.scale."""
    f = D // g.scale
    W = g.int_weights
    sign = 1 if mode == PERFECT else -1
    return {(i, j): W[i, j] * f - sign * (Y[i] + Y[j]) for (i, j) in g.edges()}


def _duals(g: Graph, mode: str, y, lam):
    """(D, Y, Lm, gap): D is lcm(g.scale, the denominators of y and lambda),
    Y and Lm their values times D, and gap the `_gaps` of Y."""
    D, Y, Lm = _scaled(y, lam, scale=g.scale)
    return D, Y, Lm, _gaps(g, mode, D, Y)


def _dual_value(g: Graph, mode: str, Y, Lm) -> int:
    """The dual objective times D, for y and lambda times D."""
    total_y = sum(g.cap(i) * v for i, v in Y.items())
    return (total_y if mode == PERFECT else -total_y) - sum(Lm.values())


def _entries(given, keys, label: str, what: str) -> dict:
    """`given` over `keys`, zero where absent, as Fractions, a Fraction kept as
    it is; a key outside `keys` or a float or bool value is refused."""
    out = dict.fromkeys(keys, ZERO)
    for k, v in given.items():
        if k not in out:
            raise CertificateError(f"{label.format(k)}: not {what} of the graph")
        if isinstance(v, (float, bool)):
            raise CertificateError(f"{label.format(k)}: value {v!r} is a {type(v).__name__}; "
                                   "use an int, Fraction, Decimal or rational string")
        out[k] = v if type(v) is Fraction else Fraction(v)
    return out


def _certify(g: Graph, mode: str, D, Y, Lm):
    """(S, epsilon, L) of the dual y = Y/D, lambda = Lm/D, D a multiple of
    g.scale, once its feasibility is verified: the checks run on these ints,
    Fractions only name problems."""
    gap = _gaps(g, mode, D, Y)
    problems = [f"lambda{e} = {Fraction(v, D)} < 0" for e, v in Lm.items() if v < 0]
    if mode == NONPERFECT:
        problems += [f"y[{i}] = {Fraction(v, D)} < 0 in non-perfect mode"
                     for i, v in Y.items() if v < 0]
    for e, v in gap.items():
        if v + Lm[e] < 0:
            w = g.weight(*e)
            problems.append(f"edge {e}: w + lambda = {w + Fraction(Lm[e], D)} < "
                            f"{w - Fraction(v, D)}")
    if problems:
        raise CertificateError("dual infeasible: " + "; ".join(problems))
    S = frozenset(e for e, v in gap.items() if v)
    epsilon = Fraction(min(abs(gap[e]) for e in S), D) if S else None
    return S, epsilon, Fraction(max(map(abs, Y.values()), default=0), D)


def build_certificate(g: Graph, y, lam, mode: str) -> DualCertificate:
    """Derive S / epsilon / L from dual values, verifying dual feasibility:
    `y` maps vertices and `lam` edges (i, j), i < j, to exact values, zero
    where absent."""
    _require_mode(mode)
    y = _entries(y, g.vertices(), "y[{!r}]", "a vertex")
    lam = _entries(lam, g.edges(), "lambda{!r}", "an edge (i, j), i < j,")
    return DualCertificate(mode, y, lam, *_certify(g, mode, *_scaled(y, lam, scale=g.scale)))


def dual_objective(g: Graph, cert: DualCertificate) -> Fraction:
    D, Y, Lm = _scaled(cert.y, cert.lam)
    return Fraction(_dual_value(g, cert.mode, Y, Lm), D)


def _degree_lp(g: Graph, mode: str, cost):
    """The degree LP as (A, b, c, idx) for `solve_lp`: minimize cost.x over
    the edges (the keys of `cost`, in the order idx gives their columns) with
    0 <= x <= 1 and each vertex's load b_i, or at most b_i in non-perfect
    mode.

    Columns: x, the vertex slacks in non-perfect mode, the x <= 1 slacks.
    Rows: one per vertex, then the x <= 1 caps.  A, b and the slacks' zero
    costs are ints; the relaxation's costs are the graph's int weights.
    """
    idx = {e: k for k, e in enumerate(cost)}
    nvar = len(idx)
    nslack = g.n if mode == NONPERFECT else 0
    ncols = 2 * nvar + nslack
    A, b = [], []
    for i in g.vertices():
        row = [0] * ncols
        for j in g.neighbors(i):
            row[idx[edge_key(i, j)]] = 1
        if nslack:
            row[nvar + i - 1] = 1
        A.append(row)
        b.append(g.cap(i))
    for k in range(nvar):
        row = [0] * ncols
        row[k] = row[nvar + nslack + k] = 1
        A.append(row)
        b.append(1)
    c = list(cost.values()) + [0] * (ncols - nvar)
    return A, b, c, idx


def solve_relaxation(g: Graph, mode: str):
    """Optimal vertex of the relaxation plus the matching dual certificate.

    The simplex runs on the graph's int weights, so its objective and its
    int prices over d are the relaxation's times g.scale: the certificate
    is built from those prices over D = d * g.scale, and strong duality is
    checked on the same ints (StrongDualityError when it fails).  Fractions
    are built only for the returned x, objective, y and lambda.
    """
    _require_mode(mode)
    A, b, c, idx = _degree_lp(g, mode, g.int_weights)
    try:
        res = solve_lp(A, b, c)
    except LPInfeasible:
        raise InfeasibleError("relaxation infeasible") from None
    # every vertex keeps its row: rows 0..n-1 are the vertices, then the caps
    d, prices = res.scaled_dual
    D = d * g.scale
    sign = 1 if mode == PERFECT else -1
    Y = {i: sign * prices[i - 1] for i in g.vertices()}
    Lm = {e: -prices[g.n + k] for e, k in idx.items()}
    S, epsilon, L = _certify(g, mode, D, Y, Lm)
    # the objective times g.scale is N/Q; the dual's is _dual_value / d
    N, Q = res.objective.numerator, res.objective.denominator
    if _dual_value(g, mode, Y, Lm) * Q != N * d:
        raise StrongDualityError("strong duality violated; simplex produced a bad dual")
    x = {e: res.x[k] for e, k in idx.items()}
    integral = all(v.denominator == 1 for v in x.values())
    sol = LPSolution(mode, x, Fraction(N, Q * g.scale), integral)
    y = {i: Fraction(v, D) for i, v in Y.items()}
    lam = {e: Fraction(v, D) for e, v in Lm.items()}
    return sol, DualCertificate(mode, y, lam, S, epsilon, L)


# -- complementary slackness -------------------------------------------------------

class CSCheck(NamedTuple):
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


def check_cs(g: Graph, primal: LPSolution, dual: DualCertificate) -> CSReport:
    """Evaluate every complementary-slackness product exactly.

    At an integral primal these are the sharper matching conditions too:
    member edges meet their dual bound with equality, non-members carry zero
    lambda, and (in non-perfect mode) unsaturated vertices carry zero price.
    """
    if primal.mode != dual.mode:
        raise OracleError("primal/dual mode mismatch")
    D, Y, Lm, gap = _duals(g, primal.mode, dual.y, dual.lam)
    X, x = _scaled({e: primal.x.get(e, ZERO) for e in g.edges()})
    products = []  # (name, subject, the product times X * D)
    for e, v in gap.items():
        products.append(("edge_slack_product", e, x[e] * (v + Lm[e])))
        products.append(("upper_bound_product", e, (x[e] - X) * Lm[e]))
    if primal.mode == NONPERFECT:
        for i in g.vertices():
            load = sum(x[edge_key(i, j)] for j in g.neighbors(i))
            products.append(("vertex_slack_product", (i,), (load - g.cap(i) * X) * Y[i]))
    return CSReport([CSCheck(name, subject, Fraction(v, X * D) if v else ZERO, not v)
                     for name, subject, v in products])


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
    integral.  The relaxation's dual then decides the rest with no further
    LP: complementary slackness pins the edges of S and those with positive
    lambda to x*, and the optimal face holds a point besides x* exactly when
    the bipartite double cover of the free edges has a cycle.  A fractional
    optimal point is returned as the witness whenever the answer is no.
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
        witness = {e: Fraction(int(e in bf_all[0]) + int(e in bf_all[1]), 2) for e in g.edges()}
        return TightnessReport(False, witness, "multiple_integral_optima",
                               sol.objective, bf_weight, len(bf_all))
    if not sol.integral:
        # an optimal vertex besides the unique integral optimum
        return TightnessReport(False, dict(sol.x), "optimal_face_has_positive_dimension",
                               sol.objective, bf_weight, 1)

    # A move from x* = M in the optimal face shifts free edges (zero gap and
    # lambda), down on M, up off it, keeping each load but where a zero
    # price lets it fall (or rise too, at a vertex M leaves unsaturated).
    # One exists iff this double cover has a cycle: nodes p_i = i, q_i = n + i
    # (q_i = i at a non-perfect vertex M leaves unsaturated); arcs p_i -> q_j,
    # p_j -> q_i per free edge of M, q_j -> p_i, q_i -> p_j per free edge off
    # M, and q_i -> p_i at a saturated non-perfect vertex with zero price.
    _, Y, Lm, gap = _duals(g, mode, cert.y, cert.lam)
    M = frozenset(e for e, v in sol.x.items() if v)
    load = Counter(i for e in M for i in e)
    loose = {i for i in g.vertices() if mode == NONPERFECT and load[i] < g.cap(i)}
    if (M != bf_all[0] or any(Y[i] for i in loose)
            or any(gap[e] + Lm[e] if e in M else Lm[e] for e in g.edges())):
        raise OracleError("the integral relaxation optimum disagrees with the exhaustive "
                          "optimum or fails complementary slackness with its dual")
    q = {i: i if i in loose else g.n + i for i in g.vertices()}
    arcs = {v: [] for v in range(1, 2 * g.n + 1)}  # node: [(head, edge or None)]
    for e, v in gap.items():
        if not v and not Lm[e]:
            for i, j in (e, e[::-1]):
                tail, head = (i, q[j]) if e in M else (q[j], i)
                arcs[tail].append((head, e))
    for i in g.vertices():
        if mode == NONPERFECT and i not in loose and not Y[i]:
            arcs[q[i]].append((i, None))
    # peel the nodes with no arc into the rest; each node left has one, so
    # a walk from the smallest closes a cycle
    alive = set(arcs)
    while dead := {v for v in alive if all(h not in alive for h, _ in arcs[v])}:
        alive -= dead
    if not alive:
        return TightnessReport(True, None, "unique_integral_optimum",
                               sol.objective, bf_weight, 1)
    v, seen, walk = min(alive), {}, []
    while v not in seen:
        seen[v] = len(walk)
        v, e = next(a for a in arcs[v] if a[0] in alive)
        walk.append(e)
    # x* + d/4, d_e counting -1 per arc of e on the cycle if e is in M, else +1
    d = Counter(walk[seen[v]:])
    witness = {e: x + (1 - 2 * x) * Fraction(d[e], 4) for e, x in sol.x.items()}
    return TightnessReport(False, witness, "optimal_face_has_positive_dimension",
                           sol.objective, bf_weight, 1)


def tightness_by_enumeration(g: Graph, mode: str, lp_objective: Fraction):
    """Independent tightness verdict via half-integral search.

    Every vertex of the relaxation polytope takes values in {0, 1/2, 1}, so
    enumerating such points at the optimal value decides tightness: tight
    means exactly one optimal point exists and it is integral.  Returns
    (tight, fractional witness or None).  Raises OracleError when
    `lp_objective` is not the least weight of a half-integral point.
    """
    _require_mode(mode)
    if g.m > ENUMERATION_GUARD:
        raise GuardExceeded(f"{g.m} edges exceeds the enumeration guard {ENUMERATION_GUARD}")
    edges = g.edges()
    _, points = _min_points(g, mode, edges, (0, 1, 2), lp_objective)
    if not points:
        raise OracleError("no optimal half-integral point found; wrong objective value?")
    # the search meets points in lexicographic order, and between two
    # integral optima lies their midpoint, optimal and half-integral: so a
    # second point met is fractional
    if 1 in points[-1]:
        return False, {e: Fraction(d, 2) for e, d in zip(edges, points[-1])}
    return True, None


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
    if cert.epsilon is None:
        return Fraction(g.n)
    L = cert.L if init is None or init.kind == "weights" else cert.L + init.max_abs(g)
    factor = 2 if mode == PERFECT else 4
    return Fraction(factor * g.n) * L / cert.epsilon


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
    lines = [f"y {i} {cert.y[i]}" for i in sorted(cert.y)]
    lines += [f"lambda {i} {j} {cert.lam[(i, j)]}" for (i, j) in sorted(cert.lam)]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, g: Graph, mode: str) -> DualCertificate:
    """Read "y i value" / "lambda i j value" lines, by graph.text_rows;
    absent entries are zero."""
    y, lam = {}, {}
    for lineno, tokens in text_rows(text):
        try:
            if tokens[0] == "y" and len(tokens) == 3:
                i = int(tokens[1])
                if not 1 <= i <= g.n:
                    raise CertificateError(f"line {lineno}: vertex {i} out of range")
                if i in y:
                    raise CertificateError(f"line {lineno}: duplicate y {i}")
                y[i] = parse_rational(tokens[2])
            elif tokens[0] == "lambda" and len(tokens) == 4:
                i, j = int(tokens[1]), int(tokens[2])
                if i == j:
                    raise CertificateError(f"line {lineno}: self-loop at vertex {i}")
                e = edge_key(i, j)
                if not g.has_edge(i, j):
                    raise CertificateError(f"line {lineno}: edge {e} not in graph")
                if e in lam:
                    raise CertificateError(f"line {lineno}: duplicate lambda {e}")
                lam[e] = parse_rational(tokens[3])
            else:
                raise CertificateError(f"line {lineno}: expected 'y i v' or 'lambda i j v'")
        except (ValueError, ZeroDivisionError):
            raise CertificateError(f"line {lineno}: bad number") from None
    return build_certificate(g, y, lam, mode)
