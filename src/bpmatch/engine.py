"""Min-sum message passing for minimum-weight b-matchings.

Every directed edge (i -> j) carries a real message.  A synchronous round
replaces the message on (i -> j) by

    perfect mode:      w_ij - (b_i-th smallest incoming message to i, j excluded)
    non-perfect mode:  w_ij - min(0, that same b_i-th smallest)

where the b_i-th smallest is taken by value with multiplicity, and in
non-perfect mode it is defined as 0 when vertex i has exactly b_i neighbors
(the excluded set is then one short).  Perfect mode requires a reduced graph
(no vertex with degree equal to capacity) so the needed order statistic
always exists.

The running estimate is, per vertex, the b_i edges with smallest incoming
messages (perfect) or all edges with strictly negative incoming messages
(non-perfect); the global estimate is the union over vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .graph import (Graph, PERFECT, NONPERFECT, MODES, ZERO, GraphError,
                    ValidationError, edge_key, validate)


class EngineError(GraphError):
    pass


class TrivialVertexError(EngineError):
    pass


# -- initialization ---------------------------------------------------------

@dataclass(frozen=True)
class MessageInit:
    """Initial message assignment: edge weights (default), a constant, or an
    explicit per-directed-edge map."""
    kind: str
    value: object = None
    mapping: object = None

    @classmethod
    def weights(cls):
        return cls("weights")

    @classmethod
    def constant(cls, value):
        return cls("constant", value=value)

    @classmethod
    def explicit(cls, mapping):
        return cls("explicit", mapping=dict(mapping))

    def build(self, g: Graph) -> dict:
        dirs = g.directed_edges()
        if self.kind == "weights":
            return {(i, j): g.weight(i, j) for (i, j) in dirs}
        if self.kind == "constant":
            v = Fraction(self.value)
            return {d: v for d in dirs}
        if self.kind == "explicit":
            mapping = {(int(i), int(j)): Fraction(v) for (i, j), v in self.mapping.items()}
            missing = [d for d in dirs if d not in mapping]
            if missing:
                raise EngineError(f"explicit init is missing directed edges: {missing[:5]}")
            unknown = [d for d in mapping if d not in set(dirs)]
            if unknown:
                raise EngineError(f"explicit init names unknown directed edges: {unknown[:5]}")
            return {d: mapping[d] for d in dirs}
        raise EngineError(f"unknown init kind {self.kind!r}")

    def max_abs(self, g: Graph):
        values = self.build(g).values()
        return max((abs(v) for v in values), default=ZERO)


@dataclass(frozen=True)
class MessageState:
    """Messages at one iteration; the map covers every directed edge."""
    t: int
    m: dict

    def value(self, i, j):
        return self.m[(i, j)]


def init_messages(g: Graph, init: MessageInit | None = None) -> MessageState:
    init = init or MessageInit.weights()
    return MessageState(0, init.build(g))


# -- rounds -------------------------------------------------------------------

def _check_reduced(g: Graph):
    for i in g.vertices():
        if g.degree(i) <= g.cap(i):
            raise TrivialVertexError(
                f"vertex {i} has degree {g.degree(i)} <= capacity {g.cap(i)}; "
                "perfect-mode rounds need a reduced graph")


def _kth_min_excluding(sorted_values, k, excluded_value):
    # k-th smallest (1-based) after removing one occurrence of excluded_value.
    if excluded_value <= sorted_values[k - 1]:
        return sorted_values[k]
    return sorted_values[k - 1]


def _updated(g, m, i, j, mode, inc_sorted):
    w = g.weight(i, j)
    b = g.cap(i)
    if mode == PERFECT:
        return w - _kth_min_excluding(inc_sorted[i], b, m[(j, i)])
    if g.degree(i) - 1 < b:
        inner = ZERO
    else:
        inner = _kth_min_excluding(inc_sorted[i], b, m[(j, i)])
    return w - min(ZERO, inner)


def _round(g: Graph, s: MessageState, mode: str, updates=None) -> MessageState:
    """Recompute the directed edges in `updates` (all of them when None) from
    state s; the others carry over.  Update sets hold distinct directed
    edges of g, so one as large as the edge set is the edge set: that step
    builds a fresh map in canonical order instead of copying the old one."""
    m = s.m
    if updates is None or len(updates) == len(g.directed_edges()):
        targets = g.directed_edges()
        new = {}
    else:
        targets = updates
        new = dict(m)
    inc_sorted = {}
    for (i, j) in targets:
        if i not in inc_sorted:
            inc_sorted[i] = sorted(m[(l, i)] for l in g.neighbors(i))
        new[(i, j)] = _updated(g, m, i, j, mode, inc_sorted)
    return MessageState(s.t + 1, new)


def sync_round_perfect(g: Graph, s: MessageState) -> MessageState:
    _check_reduced(g)
    return _round(g, s, PERFECT)


def sync_round_nonperfect(g: Graph, s: MessageState) -> MessageState:
    return _round(g, s, NONPERFECT)


# -- estimates ----------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """Per-iteration estimate: selected edge set, per-vertex selections, and
    the vertices whose selection threshold was non-strict."""
    edges: frozenset
    selected: dict
    ties: frozenset


def extract_estimate_perfect(g: Graph, s: MessageState) -> Estimate:
    edges = set()
    selected = {}
    ties = set()
    for i in g.vertices():
        nbrs = sorted(g.neighbors(i), key=lambda j: (s.m[(j, i)], j))
        b = g.cap(i)
        chosen = nbrs[:b]
        if 0 < b < len(nbrs) and s.m[(nbrs[b - 1], i)] == s.m[(nbrs[b], i)]:
            ties.add(i)
        selected[i] = tuple(chosen)
        for j in chosen:
            edges.add(edge_key(i, j))
    return Estimate(frozenset(edges), selected, frozenset(ties))


def extract_estimate_nonperfect(g: Graph, s: MessageState) -> Estimate:
    # Selecting an edge only pays off while capacity remains, so each vertex
    # takes its at most b_i most negative incoming messages, strictly
    # negative only.  A zero message is a boundary tie only while capacity
    # remains (c < b_i); past b_i negative selections it is not a candidate.
    edges = set()
    selected = {}
    ties = set()
    for i in g.vertices():
        nbrs = sorted(g.neighbors(i), key=lambda j: (s.m[(j, i)], j))
        b = g.cap(i)
        chosen = [j for j in nbrs[:b] if s.m[(j, i)] < 0]
        c = len(chosen)
        if c < b and any(s.m[(j, i)] == 0 for j in nbrs):
            ties.add(i)
        elif c == b and b < len(nbrs) and s.m[(nbrs[b - 1], i)] == s.m[(nbrs[b], i)]:
            ties.add(i)
        selected[i] = tuple(chosen)
        for j in chosen:
            if g.weight(i, j) > 0:
                raise EngineError(f"selected positive-weight edge {edge_key(i, j)}; "
                                  "non-perfect estimates assume non-positive weights")
            edges.add(edge_key(i, j))
    return Estimate(frozenset(edges), selected, frozenset(ties))


def extract_estimate(g: Graph, s: MessageState, mode: str) -> Estimate:
    if mode == PERFECT:
        return extract_estimate_perfect(g, s)
    return extract_estimate_nonperfect(g, s)


# -- run loop -------------------------------------------------------------------

@dataclass(frozen=True)
class StopPolicy:
    """When to stop iterating.

    budget(T): run exactly T rounds.
    window(K, limit): stop once the estimate is unchanged for K consecutive
        rounds (K defaults to the vertex count); give up after `limit` rounds.
    certified(T): run exactly T rounds, T being an externally computed
        certified iteration bound.
    coverage(threshold, limit): asynchronous runs only; stop at the first step
        where every directed edge has been updated more than `threshold` times.
    """
    kind: str
    iterations: int | None = None
    window_size: int | None = None
    limit: int | None = None
    threshold: object = None

    @classmethod
    def budget(cls, iterations: int):
        return cls("budget", iterations=int(iterations))

    @classmethod
    def window(cls, window_size=None, limit=None):
        return cls("window", window_size=window_size, limit=limit)

    @classmethod
    def certified(cls, iterations: int):
        return cls("certified", iterations=int(iterations))

    @classmethod
    def coverage(cls, threshold, limit=None):
        return cls("coverage", threshold=threshold, limit=limit)


@dataclass
class RunResult:
    mode: str
    estimate: Estimate
    iterations: int
    stabilized_at: int
    stable_for: int
    converged: bool
    period: int | None
    history: list
    stop: StopPolicy
    trace: list | None = None
    coverage: object = None
    schedule_kind: str | None = None

    @property
    def tie_report(self):
        return self.estimate.ties


def detect_period(history, max_period):
    """Smallest p such that the tail of the estimate sequence repeats with
    period p; None when no repetition is visible."""
    n = len(history)
    for p in range(1, max_period + 1):
        span = min(n - p, 2 * p)
        if span < p:
            break
        if all(history[-1 - k] == history[-1 - k - p] for k in range(span)):
            return p
    return None


def _run(g: Graph, mode: str, init: MessageInit | None, stop: StopPolicy, steps,
         keep_trace: bool, covered=None) -> RunResult:
    """The run loop shared by synchronous and asynchronous runs: apply the
    update sets drawn from `steps` until `stop` holds.  A coverage stop asks
    `covered()` after every step (and once before the first)."""
    state = init_messages(g, init)
    est = extract_estimate(g, state, mode)
    history = [est.edges]
    trace = [state] if keep_trace else None
    last_change = 0
    if stop.kind == "window":
        window_size = stop.window_size if stop.window_size else max(g.n, 1)
        limit = stop.limit if stop.limit is not None else max(100, 20 * window_size)
    else:
        window_size = g.n

    t = 0
    stop_met = stop.kind == "coverage" and covered()
    it = iter(steps)
    while not stop_met:
        if stop.kind in ("budget", "certified") and t >= stop.iterations:
            break
        if stop.kind == "window" and (t - last_change >= window_size or t >= limit):
            break
        updates = next(it)
        t += 1
        state = _round(g, state, mode, updates)
        est = extract_estimate(g, state, mode)
        if est.edges != history[-1]:
            last_change = t
        history.append(est.edges)
        if keep_trace:
            trace.append(state)
        if stop.kind == "coverage":
            stop_met = covered()

    stable_for = t - last_change
    converged = stop_met if stop.kind == "coverage" else stable_for >= window_size
    period = None
    if not converged:
        period = detect_period(history, max(window_size, 2))
    return RunResult(mode=mode, estimate=est, iterations=t, stabilized_at=last_change,
                     stable_for=stable_for, converged=converged, period=period,
                     history=history, stop=stop, trace=trace)


def run_sync(g: Graph, mode: str = PERFECT, init: MessageInit | None = None,
             stop: StopPolicy | None = None, keep_trace: bool = False) -> RunResult:
    """Synchronous message passing: the run loop under the all-edges
    schedule, which updates every directed edge at every step."""
    if mode not in MODES:
        raise GraphError(f"unknown mode {mode!r}")
    violations = validate(g, mode)
    if violations:
        raise ValidationError(violations)
    if mode == PERFECT and g.m > 0:
        _check_reduced(g)
    stop = stop or StopPolicy.window()
    if stop.kind == "coverage":
        raise EngineError("coverage stopping applies to asynchronous runs only")
    return _run(g, mode, init, stop, repeat(frozenset(g.directed_edges())), keep_trace)
