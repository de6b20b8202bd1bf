"""Independent checkers for the benchmark.

Nothing here imports the package under test.  Instances are plain data:
``n`` vertices labelled 1..n, ``caps`` a list of capacities (caps[i-1] is
b_i), ``edges`` a list of (i, j, Fraction).  Edge keys are (i, j) with i < j.
Every checker returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

PERFECT = "perfect"
NONPERFECT = "nonperfect"
ZERO = Fraction(0)


def _key(i, j):
    return (i, j) if i < j else (j, i)


def _scale(edges):
    """Integer weights and the common denominator they were scaled by."""
    den = 1
    for _, _, w in edges:
        den = math.lcm(den, Fraction(w).denominator)
    return [int(Fraction(w) * den) for _, _, w in edges], den


# -- all-subsets optimum ----------------------------------------------------------

def naive_optima(n, caps, edges, mode):
    """Every minimum-weight b-matching by plain iteration over all edge
    subsets (bit masks).  Returns (weight, sorted list of frozensets), or
    (None, []) when perfect mode has no feasible matching.  Keep m <= 16."""
    m = len(edges)
    if m > 16:
        raise ValueError(f"{m} edges is too many for the all-subsets optimum")
    inc = [0] * (n + 1)
    for k, (i, j, _) in enumerate(edges):
        inc[i] |= 1 << k
        inc[j] |= 1 << k
    wi, den = _scale(edges)
    total = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        total[mask] = total[mask ^ low] + wi[low.bit_length() - 1]
    verts = [(inc[v], caps[v - 1]) for v in range(1, n + 1)]
    best, hits = None, []
    perfect = mode == PERFECT
    for mask in range(1 << m):
        if perfect:
            if any((mask & iv).bit_count() != b for iv, b in verts):
                continue
        elif any((mask & iv).bit_count() > b for iv, b in verts):
            continue
        w = total[mask]
        if best is None or w < best:
            best, hits = w, [mask]
        elif w == best:
            hits.append(mask)
    if best is None:
        return None, []
    sets = [frozenset(_key(edges[k][0], edges[k][1]) for k in range(m) if mask >> k & 1)
            for mask in hits]
    return Fraction(best, den), sorted(sets, key=sorted)


# -- b-matching degree check -------------------------------------------------------

def degree_check(n, caps, edges, mode, chosen):
    """``chosen`` must be a set of graph edges with degree b_i at every vertex
    (perfect) or at most b_i (non-perfect)."""
    known = {_key(i, j) for i, j, _ in edges}
    problems = []
    deg = [0] * (n + 1)
    for e in chosen:
        e = _key(*e)
        if e not in known:
            problems.append(f"edge {e} is not in the graph")
            continue
        deg[e[0]] += 1
        deg[e[1]] += 1
    if len(set(map(lambda e: _key(*e), chosen))) != len(chosen):
        problems.append("an edge is listed twice")
    for v in range(1, n + 1):
        b = caps[v - 1]
        if (deg[v] != b) if mode == PERFECT else (deg[v] > b):
            problems.append(f"vertex {v}: degree {deg[v]}, capacity {b} ({mode})")
    return problems


def weight_of(edges, chosen):
    w = {_key(i, j): Fraction(x) for i, j, x in edges}
    return sum((w[_key(*e)] for e in chosen), ZERO)


# -- exact LP optimality proof -----------------------------------------------------------

def _primal_problems(n, caps, edges, mode, x):
    problems = []
    load = [ZERO] * (n + 1)
    keys = {_key(i, j) for i, j, _ in edges}
    if set(x) != keys:
        return [f"primal covers {len(x)} edges, graph has {len(keys)}"]
    for (i, j), v in x.items():
        if not ZERO <= v <= 1:
            problems.append(f"x{(i, j)} = {v} outside [0, 1]")
        load[i] += v
        load[j] += v
    for v in range(1, n + 1):
        b = caps[v - 1]
        if (load[v] != b) if mode == PERFECT else (load[v] > b):
            problems.append(f"vertex {v}: load {load[v]}, capacity {b}")
    return problems


def primal_value(edges, x):
    return sum((Fraction(w) * x[_key(i, j)] for i, j, w in edges), ZERO)


def lp_proof(n, caps, edges, mode, x, y, lam):
    """Exact optimality proof for the relaxation
    min w.x  s.t.  x(delta(i)) = b_i (perfect) or <= b_i, 0 <= x <= 1.

    x must be primal feasible, (y, lambda) dual feasible, and the two
    objectives equal; weak duality then makes both optimal.  Returns
    (problems, proven optimum)."""
    problems = _primal_problems(n, caps, edges, mode, x)
    for v in range(1, n + 1):
        if v not in y:
            problems.append(f"dual price y[{v}] missing")
    if problems:
        return problems, None
    for i, j, w in edges:
        e = _key(i, j)
        le = lam.get(e, ZERO)
        if le < 0:
            problems.append(f"lambda{e} = {le} < 0")
        bound = y[i] + y[j] if mode == PERFECT else -y[i] - y[j]
        if w + le < bound:
            problems.append(f"edge {e}: w + lambda = {w + le} < {bound}")
    if mode == NONPERFECT:
        problems += [f"y[{v}] = {y[v]} < 0" for v in range(1, n + 1) if y[v] < 0]
    price = sum((caps[v - 1] * y[v] for v in range(1, n + 1)), ZERO)
    dual = (price if mode == PERFECT else -price) - sum(lam.values(), ZERO)
    primal = primal_value(edges, x)
    if primal != dual:
        problems.append(f"primal objective {primal} != dual objective {dual}")
    return problems, primal


# -- non-tightness witness -----------------------------------------------------------------

def witness_check(n, caps, edges, mode, witness, lp_optimum, optima):
    """A witness of non-tightness must be feasible, reach the LP optimum, and
    not be the unique integral optimum."""
    problems = _primal_problems(n, caps, edges, mode, witness)
    if problems:
        return problems
    value = primal_value(edges, witness)
    if value != lp_optimum:
        problems.append(f"witness value {value} != LP optimum {lp_optimum}")
    integral = all(v in (0, 1) for v in witness.values())
    if integral and len(optima) == 1 and \
            frozenset(e for e, v in witness.items() if v == 1) == optima[0]:
        problems.append("witness is the unique integral optimum")
    return problems


# -- independent tightness decision ----------------------------------------------------------

def is_tight(n, caps, edges, mode, optimum, optima):
    """Tight means the relaxation has exactly one optimal point and it is
    integral.  Relaxation vertices are half-integral, so this holds iff the
    integral optimum is unique and no half-integral point with a 1/2 entry
    weighs at most as much.  Depth-first search in half units with a
    lower bound on the remaining cost (perfect mode, weights > 0) or the sum
    of the remaining negative weights."""
    if optimum is None or len(optima) != 1:
        return False
    order = sorted(range(len(edges)), key=lambda k: edges[k][2])
    es = [edges[k] for k in order]
    wi, den = _scale(es)
    target = 2 * optimum * den           # weight of a point, in half units
    m = len(es)
    need = [0] + [2 * b for b in caps]    # halves still to place (perfect)
    room = need[:]                        # halves still allowed
    rem_inc = [[0] * (n + 1) for _ in range(m + 1)]
    neg_tail = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        rem_inc[k] = rem_inc[k + 1][:]
        i, j, _ = es[k]
        rem_inc[k][i] += 2
        rem_inc[k][j] += 2
        neg_tail[k] = neg_tail[k + 1] + 2 * min(0, wi[k])
    perfect = mode == PERFECT
    positive = all(w > 0 for w in wi)
    min_w = [[0] * (n + 1) for _ in range(m + 1)]
    if perfect and positive:
        for k in range(m - 1, -1, -1):
            row = min_w[k + 1][:]
            i, j, _ = es[k]
            for v in (i, j):
                row[v] = wi[k] if row[v] == 0 else min(row[v], wi[k])
            min_w[k] = row

    def lower(k):
        if perfect and positive:
            # each half unit at a vertex costs at least half its cheapest edge
            return sum(need[v] * min_w[k][v] for v in range(1, n + 1)) / 2
        return neg_tail[k]

    found = [False]

    def dfs(k, weight, fractional):
        if found[0] or weight + lower(k) > target:
            return
        if k == m:
            if fractional and (not perfect or not any(need[1:])):
                found[0] = True
            return
        i, j, _ = es[k]
        for d in (2, 1, 0):
            if d > room[i] or d > room[j]:
                continue
            if perfect and (need[i] - d > rem_inc[k + 1][i] or need[j] - d > rem_inc[k + 1][j]):
                continue
            room[i] -= d
            room[j] -= d
            need[i] -= d
            need[j] -= d
            dfs(k + 1, weight + d * wi[k], fractional or d == 1)
            room[i] += d
            room[j] += d
            need[i] += d
            need[j] += d

    if not perfect:
        need = [0] * (n + 1)
    dfs(0, 0, False)
    return not found[0]


def coverage_bound(n, mode, y, epsilon):
    """u(t) must exceed this for a certified asynchronous stop:
    2nL/epsilon (perfect) or 4nL/epsilon, n when epsilon is undefined."""
    if epsilon is None:
        return Fraction(n)
    L = max((abs(v) for v in y.values()), default=ZERO)
    return Fraction(2 if mode == PERFECT else 4) * n * L / epsilon


def gap_epsilon(edges, mode, y):
    gaps = [w - y[i] - y[j] if mode == PERFECT else w + y[i] + y[j] for i, j, w in edges]
    return min((abs(g) for g in gaps if g != 0), default=None)


# -- min-cost flow optimum for bipartite instances ----------------------------------------------

def bipartite_optimum(k, caps, edges, mode):
    """Exact optimum of a bipartite b-matching (left 1..k, right k+1..2k) by
    network simplex on integer-scaled weights.  Non-perfect mode adds a free
    source-sink bypass so any flow value up to the capacity is allowed."""
    import networkx as nx

    wi, den = _scale(edges)
    supply = sum(caps[:k])
    g = nx.DiGraph()
    g.add_node("s", demand=-supply)
    g.add_node("t", demand=supply)
    for v in range(1, k + 1):
        g.add_edge("s", v, capacity=caps[v - 1], weight=0)
    for v in range(k + 1, 2 * k + 1):
        g.add_edge(v, "t", capacity=caps[v - 1], weight=0)
    for (i, j, _), w in zip(edges, wi):
        g.add_edge(i, j, capacity=1, weight=w)
    if mode == NONPERFECT:
        g.add_edge("s", "t", capacity=supply, weight=0)
    cost, _ = nx.network_simplex(g)
    return Fraction(cost, den)


# -- message passing and computation trees --------------------------------------------------------

def reference_messages(n, caps, edges, sets, t_max):
    """Perfect-mode min-sum messages m_t(i -> j) for t = 0..t_max, starting
    from the edge weights; ``sets[t-1]`` is the set of directed edges
    updated at step t.  Returns a list of dicts."""
    w = {}
    nbrs = {v: [] for v in range(1, n + 1)}
    for i, j, x in edges:
        w[(i, j)] = w[(j, i)] = Fraction(x)
        nbrs[i].append(j)
        nbrs[j].append(i)
    cur = dict(w)
    out = [cur]
    for t in range(1, t_max + 1):
        nxt = dict(cur)
        for (i, j) in sets[t - 1]:
            incoming = sorted(cur[(l, i)] for l in nbrs[i] if l != j)
            nxt[(i, j)] = w[(i, j)] - incoming[caps[i - 1] - 1]
        cur = nxt
        out.append(cur)
    return out


class TreeValues:
    """Exact perfect tree b-matching values on the computation tree the
    schedule unrolls.  ``branch(i, j, t)`` returns (W+, W-) for the branch of
    the directed edge (i -> j) at time t: the optimum with the top edge
    forced in / out.  Leaves (no update of the edge up to t) have
    W+ = w_ij and W- = 0."""

    def __init__(self, n, caps, edges, sets):
        self.caps = caps
        self.sets = sets
        self.w = {}
        self.nbrs = {v: [] for v in range(1, n + 1)}
        for i, j, x in edges:
            self.w[(i, j)] = self.w[(j, i)] = Fraction(x)
            self.nbrs[i].append(j)
            self.nbrs[j].append(i)
        self.memo = {}

    def branch(self, i, j, t):
        while t > 0 and (i, j) not in self.sets[t - 1]:
            t -= 1
        got = self.memo.get((i, j, t))
        if got is None:
            w = self.w[(i, j)]
            if t == 0:
                got = (w, ZERO)
            else:
                kids = [self.branch(r, i, t - 1) for r in self.nbrs[i] if r != j]
                diffs = sorted(p - q for p, q in kids)
                base = sum((q for _, q in kids), ZERO)
                b = self.caps[i - 1]
                got = (w + base + sum(diffs[:b - 1], ZERO), base + sum(diffs[:b], ZERO))
            self.memo[(i, j, t)] = got
        return got

    def message(self, i, j, t):
        plus, minus = self.branch(i, j, t)
        return plus - minus

    def root_selection(self, root, t):
        """Neighbours whose edges the optimal root choice keeps, ties broken
        by label."""
        ranked = sorted(self.nbrs[root], key=lambda r: (self.message(r, root, t), r))
        return tuple(sorted(ranked[:self.caps[root - 1]]))


# -- command line ---------------------------------------------------------------------------------

def read_graph(path):
    """(n, caps, edges) from a file in the package's plain-text format."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    caps = [int(b) for b in lines[1]]
    edges = [(int(i), int(j), Fraction(w)) for i, j, w in lines[2:2 + m]]
    return n, caps, edges


if __name__ == "__main__":
    # python3 perfbench/check.py bipartite-optimum MODE:GRAPH_FILE...
    # prints the optimum of each bipartite graph, one per line
    import sys

    if len(sys.argv) < 3 or sys.argv[1] != "bipartite-optimum":
        sys.exit("usage: check.py bipartite-optimum MODE:GRAPH_FILE...")
    for arg in sys.argv[2:]:
        mode, path = arg.split(":", 1)
        n, caps, edges = read_graph(path)
        print(bipartite_optimum(n // 2, caps, edges, mode))
