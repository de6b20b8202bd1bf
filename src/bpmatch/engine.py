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
messages, ties broken by the smaller neighbor label (perfect), or those of
them whose message is strictly negative (non-perfect); the global estimate
is the union over vertices.

A step of an asynchronous schedule recomputes only the directed edges in
its update set, all from the state before the step; a synchronous round is
the step that updates every directed edge, and the kernel has one step path
for every update set.  Runs work on messages scaled to exact integers (see
_Net) and recompute only the selections a step can change; every public
value (MessageState, traces, estimates) is the same exact rational as the
unscaled rule gives.  The update rule and the estimate read one order
statistic of a vertex's incoming messages, so one ranking per vertex
(_select) serves both: a run ranks a vertex's messages only after one of
them is updated, and the next step reads the b_i-th and (b_i+1)-th smallest
from that ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm

from .graph import Graph, PERFECT, ZERO, GraphError, edge_key, require_valid


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
            known = set(dirs)
            unknown = [d for d in mapping if d not in known]
            if unknown:
                raise EngineError(f"explicit init names unknown directed edges: {unknown[:5]}")
            missing = [d for d in dirs if d not in mapping]
            if missing:
                raise EngineError(f"explicit init is missing directed edges: {missing[:5]}")
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


# -- the integer kernel ------------------------------------------------------

def _check_input(g: Graph, mode: str):
    """The input checks of every run: a known mode, a graph valid in it and,
    in perfect mode, a reduced graph."""
    require_valid(g, mode)
    if mode != PERFECT or g.m == 0:
        return
    for i in g.vertices():
        if g.degree(i) <= g.cap(i):
            raise TrivialVertexError(
                f"vertex {i} has degree {g.degree(i)} <= capacity {g.cap(i)}; "
                "perfect-mode rounds need a reduced graph")


class _Net:
    """A graph compiled for the kernel.

    Directed edge k is g.directed_edges()[k]; rev[k] is the reverse of edge
    k, tail[k] and head[k] its endpoints, and inc[i] lists the edges into i
    in neighbor order.  Weights and messages are multiplied by `scale`, the
    least common denominator of the weights and of the initial messages
    `values`, all of them Fractions, as Graph and MessageInit.build make
    them.  The update rule only subtracts, takes min(0, .) and compares, so
    every later message is an exact int too, scale times its rational value,
    in the same order."""

    def __init__(self, g: Graph, values):
        dirs = g.directed_edges()
        ids = {e: k for k, e in enumerate(dirs)}
        self.dirs = dirs
        self.ids = ids
        self.scale = lcm(*(v.denominator for v in chain(g.weights().values(), values)))
        self.rev = [ids[(j, i)] for (i, j) in dirs]
        self.head = [j for (_, j) in dirs]
        self.tail = [i for (i, _) in dirs]
        self.inc = [()] + [tuple(ids[(l, i)] for l in g.neighbors(i)) for i in g.vertices()]
        self.w = [self.up(g.weight(i, j)) for (i, j) in dirs]

    def up(self, v) -> int:
        return v.numerator * (self.scale // v.denominator)

    def down(self, v) -> Fraction:
        return Fraction(v, self.scale)


def _round(net: _Net, msgs: list, mode: str, ids, lo, hi, free) -> None:
    """One step on scaled messages, the same for every update set (all
    edges, one edge or any subset): recompute the edge ids `ids` from the
    values at t-1 in `msgs`, computing every new value before writing any.

    lo[i] and hi[i] are the b_i-th and (b_i+1)-th smallest messages into i
    at t-1, as _select ranked them; for an edge i -> j, the b_i-th smallest
    with j's message excluded is hi[i] when m(j -> i) <= lo[i] and lo[i]
    otherwise.  free[i] marks the vertices whose outgoing messages are their
    weights (non-perfect mode, degree <= b_i), which need no rank."""
    perfect = mode == PERFECT
    w, rev, tail = net.w, net.rev, net.tail
    new = []
    for k in ids:
        i = tail[k]
        if free[i]:
            new.append(w[k])
            continue
        kth = hi[i] if msgs[rev[k]] <= lo[i] else lo[i]
        new.append(w[k] - kth if perfect or kth < 0 else w[k])
    for k, v in zip(ids, new):
        msgs[k] = v


# -- estimates ----------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """Per-iteration estimate: selected edge set, per-vertex selections, and
    the vertices whose selection threshold was non-strict."""
    edges: frozenset
    selected: dict
    ties: frozenset


def _select(g: Graph, i, vals, mode: str):
    """Vertex i's selection, tie flag and ranks from its incoming messages
    `vals`, listed in neighbor order (exact rationals or the kernel's scaled
    ints); the ranks lo and hi are the b_i-th and (b_i+1)-th smallest
    values, None where the vertex has fewer messages.

    Perfect mode takes the b_i neighbors with the smallest messages, ties
    broken by label.  Non-perfect mode keeps only the strictly negative ones
    among them: selecting an edge only pays off while capacity remains.  A
    zero message is a boundary tie only while capacity remains (fewer than
    b_i selections); past b_i negative selections it is not a candidate."""
    nbrs = g.neighbors(i)
    b = g.cap(i)
    order = sorted(range(len(vals)), key=vals.__getitem__)
    lo = vals[order[b - 1]] if b <= len(vals) else None
    hi = vals[order[b]] if b < len(vals) else None
    boundary_tie = hi is not None and lo == hi
    if mode == PERFECT:
        return tuple(nbrs[k] for k in order[:b]), boundary_tie, lo, hi
    chosen = tuple(nbrs[k] for k in order[:b] if vals[k] < 0)
    if len(chosen) < b:
        return chosen, 0 in vals, lo, hi
    return chosen, boundary_tie, lo, hi


def extract_estimate(g: Graph, s: MessageState, mode: str) -> Estimate:
    """The estimate of state `s`.  Unlike a run, it accepts an unvalidated
    graph, so a non-perfect selection of a positive-weight edge raises."""
    edges = set()
    selected = {}
    ties = set()
    for i in g.vertices():
        chosen, tie, _, _ = _select(g, i, [s.m[(j, i)] for j in g.neighbors(i)], mode)
        if mode != PERFECT:
            for j in chosen:
                if g.weight(i, j) > 0:
                    raise EngineError(f"selected positive-weight edge {edge_key(i, j)}; "
                                      "non-perfect estimates assume non-positive weights")
        selected[i] = chosen
        if tie:
            ties.add(i)
        edges.update(edge_key(i, j) for j in chosen)
    return Estimate(frozenset(edges), selected, frozenset(ties))


# -- run loop -------------------------------------------------------------------

@dataclass(frozen=True)
class StopPolicy:
    """When to stop iterating.

    budget(T): run exactly T rounds (a certified run's T is its certified
        iteration bound).
    window(K, limit): stop once the estimate is unchanged for K consecutive
        rounds (K defaults to the vertex count); give up after `limit` rounds.
    coverage(threshold): asynchronous runs only; stop at the first step
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
    def coverage(cls, threshold):
        return cls("coverage", threshold=threshold)


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
    `covered()` after every step (and once before the first).

    Messages live in the integer kernel.  Only the heads of a step's updated
    edges have new incoming messages, so only their selections and ranks
    are recomputed, which keeps every vertex's ranks current for the next
    step; an edge is in the estimate while either endpoint selects it, and
    the estimate's edge set is rebuilt only when an edge enters or leaves
    it."""
    start = (init or MessageInit.weights()).build(g)
    net = _Net(g, start.values())
    msgs = [net.up(start[e]) for e in net.dirs]
    dirs, eid, head, inc = net.dirs, net.ids, net.head, net.inc
    # update set -> its edge ids and its sorted heads: each distinct set is
    # worked out once per run (a sync run has one)
    plans = {}
    select = _select
    sel = [()] * (g.n + 1)
    tie = [False] * (g.n + 1)
    lo = [None] * (g.n + 1)
    hi = [None] * (g.n + 1)
    free = [False] + [mode != PERFECT and g.degree(i) <= g.cap(i) for i in g.vertices()]
    cur = set()

    def refresh(heads):
        # recompute the selections and ranks at `heads`; True when `cur`
        # changed
        touched = False
        for j in heads:
            new, tie[j], lo[j], hi[j] = select(g, j, [msgs[k] for k in inc[j]], mode)
            old = sel[j]
            if new == old:
                continue
            sel[j] = new
            for l in old + new:
                e = (j, l) if j < l else (l, j)
                chosen = l in new or j in sel[l]
                if chosen != (e in cur):
                    if chosen:
                        cur.add(e)
                    else:
                        cur.discard(e)
                    touched = True
        return touched

    refresh(g.vertices())
    edges = frozenset(cur)
    history = [edges]
    trace = [MessageState(0, start)] if keep_trace else None
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
        if stop.kind == "budget" and t >= stop.iterations:
            break
        if stop.kind == "window" and (t - last_change >= window_size or t >= limit):
            break
        updates = next(it)
        t += 1
        plan = plans.get(updates)
        if plan is None:
            ids = [eid[e] for e in updates]
            plan = plans[updates] = ids, sorted({head[k] for k in ids})
        ids, heads = plan
        _round(net, msgs, mode, ids, lo, hi, free)
        if keep_trace:
            m = dict(trace[-1].m)
            for k in ids:
                m[dirs[k]] = net.down(msgs[k])
            trace.append(MessageState(t, m))
        if refresh(heads):
            now = frozenset(cur)
            if now != edges:
                edges = now
                last_change = t
        history.append(edges)
        if stop.kind == "coverage":
            stop_met = covered()

    est = Estimate(edges, {i: sel[i] for i in g.vertices()},
                   frozenset(i for i in g.vertices() if tie[i]))
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
    _check_input(g, mode)
    stop = stop or StopPolicy.window()
    if stop.kind == "coverage":
        raise EngineError("coverage stopping applies to asynchronous runs only")
    return _run(g, mode, init, stop, repeat(frozenset(g.directed_edges())), keep_trace)
