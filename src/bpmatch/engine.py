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
the step that updates every directed edge.  One rule serves every update
set: the run loop applies a one-edge step (every step of a round-robin or
random schedule) as one update in place, and _round computes every other
set, empty or of two or more edges.  Runs work on messages scaled to exact
integers (see _Net) and recompute only the selections a step can change
(a one-edge step re-ranks its head only when the edge's value changed);
every public value (MessageState, traces, estimates) is the same exact
rational as the unscaled rule gives.  The update rule and the estimate
read one order statistic of a vertex's incoming messages, so one ranking
per vertex (_select) serves both: a run ranks a vertex's messages only
after one of them is updated, and the next step reads the b_i-th and
(b_i+1)-th smallest from that ranking.

A synchronous round is a function of the scaled messages alone: the ranks,
selections and estimate after it are recomputed from them, and the update
set never changes.  So once a sync run's messages equal those of an earlier
round, the run repeats that stretch for ever, every estimate included.  In
non-perfect mode min(0, .) keeps every message from round 2 on between the
least weight and the greatest weight minus the least, a finite set of
exact ints, so every non-perfect run reaches such a cycle.  Perfect-mode
messages mostly drift instead, by a translation: from some round on,
m(t + p) = m(t) + d_(t mod p) for p fixed int vectors d_j, the eventual
periodicity of min-plus maps (Cohen, Dubois, Quadrat and Viot, 1985).  While every vertex
ranks its incoming messages (and, in non-perfect mode, sees their signs)
as it did one period before, each round is one affine map, so the
translation and every estimate repeat until one of those comparisons,
each linear in the number of periods, flips.  The same holds for any
schedule whose steps repeat every L steps after a prefix of s steps, over
whole schedule periods: the all-edges schedule is L = 1, s = 0, and a
round-robin one repeats its re-updatable edges after the ones it updates
once.  A run without a trace under such a schedule looks for both kinds
of cycle by Brent's method (BIT 1980) at period boundaries, proves a
translation's extent in ints (_lasting) and skips whole periods up to
where its stop could next hold (see _run).  A random or explicit schedule
need not repeat its steps, and a trace (MessageTrace) logs every step, so
those runs step every update.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import floor, inf, lcm
from operator import eq, itemgetter, sub
from typing import NamedTuple

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


class MessageTrace(Sequence):
    """A run's step log: a traced run's every step, or the two periods a
    run records to prove a translation (see _run and _lasting).  Its states
    are built when read: `start`, the messages at step 0 of the log,
    plans[t - 1], the _Plan of step t, and `wrote`, the values each step
    wrote to the edges of its plan, in step order, one flat list; all ints
    scaled by `scale`, edges in `dirs` order.  A read, a slice or an
    iteration replays the log once: zip(plan.ids, values), with `values`
    one iterator over `wrote`, takes a step's own values and leaves the
    next step's in it."""

    def __init__(self, dirs, scale, start, plans, wrote):
        self.dirs, self.scale, self.start, self.plans, self.wrote = dirs, scale, start, plans, wrote

    def __len__(self):
        return len(self.plans) + 1

    def __getitem__(self, t):
        at = range(len(self))[t]  # the step or steps t names
        if isinstance(t, slice):
            states = list(self._states(sorted(at)))
            return states if at.step > 0 else states[::-1]
        return next(self._states([at]))

    def __iter__(self):
        return self._states(range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def _states(self, ascending):
        vals, at, stale = list(self.start), 0, dict(enumerate(self.start))
        wrote = iter(self.wrote)
        for t in ascending:
            for plan in self.plans[at:t]:
                stale.update(zip(plan.ids, wrote))
            for k, v in stale.items():
                vals[k] = Fraction(v, self.scale)
            at, stale = t, {}
            yield MessageState(t, dict(zip(self.dirs, vals)))


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
    k, tail[k] and head[k] its endpoints, and gin[i] reads the messages on
    the edges into i, in neighbor order, in one call (_gather).  Weights and
    messages are multiplied by `scale`, lcm(g.scale, the denominators of the
    initial messages `values`), Fractions as MessageInit.build makes them;
    up() scales a sequence of them, and w holds the graph's int weights
    times scale // g.scale.  A weights init passes no `values`: its messages
    are w itself.  The update rule only subtracts, takes min(0, .) and
    compares, so every later message is an exact int too, scale times its
    rational value, in the same order."""

    def __init__(self, g: Graph, values=()):
        dirs = g.directed_edges()
        ids = {e: k for k, e in enumerate(dirs)}
        self.dirs = dirs
        self.ids = ids
        self.scale = lcm(g.scale, *{v.denominator for v in values})
        self.head = head = [j for (_, j) in dirs]
        self.tail = tail = [i for (i, _) in dirs]
        self.rev = rev = list(map(ids.__getitem__, zip(head, tail)))
        # the edges out of i are contiguous in `dirs`, in neighbor order, so
        # their reverses are the edges into i in that order
        self.gin = gin = [None]
        end = 0
        for i in g.vertices():
            start, end = end, end + g.degree(i)
            gin.append(_gather(rev[start:end]))
        iw = g.int_weights
        f = self.scale // g.scale
        self.w = [iw[(i, j) if i < j else (j, i)] * f for (i, j) in dirs]

    def up(self, values) -> list:
        scale = self.scale
        return [v.numerator * (scale // v.denominator) for v in values]


def _gather(ids):
    """A C-level read of msgs[k] for the k in `ids`, in order, always as a
    sequence: itemgetter of one index would give the bare value, and of
    none it cannot be built, so those read a slice of the list."""
    if len(ids) > 1:
        return itemgetter(*ids)
    if ids:
        return itemgetter(slice(ids[0], ids[0] + 1))
    return itemgetter(slice(0, 0))


class _Plan(NamedTuple):
    """An update set compiled for _round: its sorted edge ids, their tails
    and scaled weights, a gather of their reverse messages, the ranking
    records of its heads, in label order, and a gather of its own messages
    (what a step of it wrote, for a trace or a run recording a cycle)."""
    ids: list
    tails: list
    w: list
    rev_of: itemgetter
    heads: list
    own: itemgetter


def _round(msgs: list, mode: str, plan: _Plan, lo, hi, free) -> list:
    """One step on scaled messages for an update set of any size (all
    edges, none or any subset; the run loop applies one-edge steps itself,
    by the same rule): recompute the edges of `plan` from the values at t-1
    in `msgs`, computing every new value before writing any, and return the
    messages at t: a new list when every edge updates, which leaves `msgs`
    as it was, and `msgs` itself, updated, otherwise.

    `plan` holds the step's sorted edge ids, their tails and scaled
    weights, and a gather of their reverse messages, all worked out once
    per run.  lo[i] and hi[i] are the b_i-th and (b_i+1)-th smallest
    messages into i at t-1, as _select ranked them; for an edge i -> j, the
    b_i-th smallest with j's message excluded is hi[i] when m(j -> i) <=
    lo[i] and lo[i] otherwise.
    free[i] marks the vertices whose outgoing messages are their weights
    (non-perfect mode, degree <= b_i), which need no rank."""
    ids, tails, ws, rev_of, _, _ = plan
    if mode == PERFECT:
        new = [w - (hi[i] if r <= lo[i] else lo[i])
               for i, w, r in zip(tails, ws, rev_of(msgs))]
    else:
        new = [w if free[i] or (kth := hi[i] if r <= lo[i] else lo[i]) >= 0 else w - kth
               for i, w, r in zip(tails, ws, rev_of(msgs))]
    if len(new) == len(msgs):
        return new  # every edge, so ids is 0, 1, ..., in order
    for k, v in zip(ids, new):
        msgs[k] = v
    return msgs


# -- estimates ----------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """Per-iteration estimate: selected edge set, per-vertex selections, and
    the vertices whose selection threshold was non-strict."""
    edges: frozenset
    selected: dict
    ties: frozenset


def _select(nbrs, b, vals, mode: str):
    """The selection, tie flag and ranks of a vertex with neighbors `nbrs`
    and capacity b, from its incoming messages `vals`, listed in neighbor
    order (exact rationals or the kernel's scaled ints); the ranks lo and hi
    are the b-th and (b+1)-th smallest values, None where the vertex has
    fewer messages.

    Perfect mode takes the b neighbors with the smallest messages, ties
    broken by label.  Non-perfect mode keeps only the strictly negative ones
    among them: selecting an edge only pays off while capacity remains.  A
    zero message is a boundary tie only while capacity remains (fewer than
    b selections); past b negative selections it is not a candidate."""
    ranked = sorted(vals)
    d = len(ranked)
    lo = ranked[b - 1] if b <= d else None
    hi = ranked[b] if b < d else None
    # the number of picks: the b smallest values, or the negative ones
    # among them
    picks = b if b <= d else d
    if mode != PERFECT:
        picks = bisect_left(ranked, 0, 0, picks)
    if picks == 1:
        chosen = (nbrs[vals.index(ranked[0])],)
    else:
        # each value's first position after the one an equal value before
        # it took, so ties go to the smaller label
        chosen = []
        k = prev = None
        for v in ranked[:picks]:
            k = vals.index(v, k + 1 if v == prev else 0)
            chosen.append(nbrs[k])
            prev = v
        chosen = tuple(chosen)
    if picks < b and mode != PERFECT:
        return chosen, 0 in vals, lo, hi
    return chosen, hi is not None and lo == hi, lo, hi


def extract_estimate(g: Graph, s: MessageState, mode: str) -> Estimate:
    """The estimate of state `s`.  Unlike a run, it accepts an unvalidated
    graph, so a non-perfect selection of a positive-weight edge raises."""
    edges = set()
    selected = {}
    ties = set()
    for i in g.vertices():
        nbrs = g.neighbors(i)
        chosen, tie, _, _ = _select(nbrs, g.cap(i), [s.m[(j, i)] for j in nbrs], mode)
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


@dataclass(frozen=True)
class CoverageStats:
    """Each directed edge's updates through step t, and u, the least of them."""
    t: int
    counts: dict
    u: int


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
    # every state of a traced run, read from the run's step log
    trace: MessageTrace | None = None
    coverage: CoverageStats | None = None
    schedule_kind: str | None = None
    # (s, p), in steps: the last cycle of its messages that a run without
    # a trace under a repeating schedule found, and proved to hold through
    # step s + p, or s + 2p for a translation: the messages after step
    # s + p equal those after step s, or differ from them as those after
    # step s + 2p differ from those after s + p (a translation, see
    # _lasting); p is a whole number of schedule periods; None when no
    # cycle was found or sought
    cycle: tuple | None = None
    # the steps the kernel computed: iterations less the steps jumped
    computed: int = 0


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


def _periods(stop: StopPolicy, t: int, p: int, history: list, last_change: int,
             window_size: int, limit, counts=None, grown=None, need=0) -> int:
    """How many whole periods a run can skip at step t, its estimate
    repeating with period p (an exact cycle or a translation of the
    messages), before `stop` could hold: the largest k such that the stop
    check fails at every step from t to t + k*p - 1.

    A coverage stop holds once every directed edge's count, counts[e] now
    and counts[e] + k*grown[e] after k more periods, reaches `need`.  The
    counts only grow, so the result is the largest k after which some edge
    is still short of it, and the run steps to the exact stop from there;
    an edge that no longer grows bounds nothing (short of `need`, it keeps
    the stop from ever holding).  A budget stop holds from its iteration
    count on.  Over a cycle whose estimate is constant, last_change stays
    where it is, so a window stop holds from min(limit, last_change +
    window) on.  When the estimate
    changes inside the cycle, every gap between its changes recurs for
    ever: with each gap, the cyclic one included, at most the window, the
    estimate is never stable for a whole window and only `limit` stops the
    run; a longer gap lets the window hold within the next period, and the
    run steps there."""
    if stop.kind == "coverage":
        return max(((need - 1 - c) // d for c, d in zip(counts, grown) if c < need and d),
                   default=0)
    if stop.kind == "budget":
        end = stop.iterations
    else:
        tail = history[-p - 1:]
        changes = [r for r in range(1, p + 1) if tail[r] != tail[r - 1]]
        if not changes:
            end = min(limit, last_change + window_size)
        elif all(b - a <= window_size
                 for a, b in zip(changes, changes[1:] + [changes[0] + p])):
            end = limit
        else:
            return 0
    return max(end - t, 0) // p


# the longest period, in schedule periods, of a translation that a run
# looks for (proving one holds the steps of two periods), and how many of
# its messages it probes at each period boundary to find one
_SPAN = 64
_PROBES = 16


def _lasting(log, mid, rank, mode):
    """How many periods a translation lasts.  `log` is the MessageTrace of
    steps T + 1 .. T + 2p of a run whose schedule repeats with period p
    from T on: log.start holds the scaled messages after step T, and
    log.plans and log.wrote each step's plan and writes.  `mid` holds the
    messages after step T + p, and the second period moved the messages as
    the first did: m(T + 2p) - m(T + p) = mid - log.start.  With a_j =
    m(T + j) and d_j = m(T + p + j) - a_j, let K be the largest k such
    that, for every k' <= k and phase j < p, a_j + k'*d_j ranks the
    incoming messages of each vertex of `rank` as a_j does (by value, ties
    to the smaller label, as _select ranks them) and, in non-perfect mode,
    keeps each message on its side of 0 (negative or not).  The result is
    K - 2, the periods past the two seen; None when no k ends the orders,
    and a negative number, found early, when K < 2.

    Each comparison is linear in k, so it flips at most once, at a k found
    in ints.  While the orders hold, each step of the period is one affine
    map of the messages (_round reads fixed ranks and signs), which took
    a_j to a_(j+1) and a_j + d_j to a_(j+1) + d_(j+1), with d_p = d_0; so
    m(T + k*p + j) = a_j + k*d_j for every k <= K, and each of those steps
    selects as its phase did at T.  Step j changes a and d only on the
    edges of its plan, so phase 0 checks every vertex and phase j + 1 only
    the heads of step j, whose incoming messages it wrote; a sync step's
    heads are every vertex."""
    # 0 ranks as the message of a label 0, before a message equal to it
    zero = [(0, 0, 0)] if mode != PERFECT else []
    p = len(log.plans) // 2
    a = list(log.start)
    d = list(map(sub, mid, log.start))
    wrote = log.wrote
    once, twice = iter(wrote), iter(wrote[len(wrote) // 2:])
    heads = rank
    last = None
    for plan in log.plans[:p]:
        for _, nbrs, _, read in heads:
            ranked = sorted(chain(zip(read(a), nbrs, read(d)), zero))
            for (x, lx, dx), (y, ly, dy) in zip(ranked, ranked[1:]):
                # x stays first while k*(dx - dy) < y - x, or equals it with lx < ly
                if dx > dy:
                    k = (y - x - (lx > ly)) // (dx - dy) - 2
                    if k < 0:
                        return k
                    if last is None or k < last:
                        last = k
        for e, u, v in zip(plan.ids, once, twice):
            a[e] = u
            d[e] = v - u
        heads = plan.heads
    return last


def _run(g: Graph, mode: str, init: MessageInit | None, stop: StopPolicy, steps,
         keep_trace: bool, repeats: tuple | None = None, count: bool = True) -> RunResult:
    """The run loop shared by synchronous and asynchronous runs: apply the
    update sets drawn from `steps` until `stop` holds.  With `count`, the
    loop counts each directed edge's updates into RunResult.coverage and
    decides a coverage stop on them, before the first step and after each.

    Messages live in the integer kernel.  Each vertex is compiled once per
    run into a ranking record: its label, neighbors, capacity and the
    gather net.gin of its incoming messages, the arguments of _select.
    Each distinct update set is compiled once per run (a sync run has one)
    into a record that one dict probe per step finds.  It holds a _Plan:
    the set's sorted edge ids, their tails and scaled weights, a gather of
    their reverse messages (_gather), the records of its heads and a gather
    of its own messages.  Only the heads of a step's updated edges have new
    incoming messages, so only their selections and ranks are recomputed,
    which keeps every vertex's ranks current for the next step; an edge is
    in the estimate while either endpoint selects it, and the estimate's
    edge set is rebuilt only when an edge enters or leaves it.  The record
    of a one-edge set i -> j, every step of a round-robin or random
    schedule, also holds the edge's id, its tail i, the id of j -> i, its
    scaled weight and j's ranking record, so its step skips _round and
    refresh and reads no list of its plan: the loop reads m(j -> i) and
    i's ranks and counts the update as one scalar.  When the new value is
    the one the edge holds, j's incoming messages and so its ranks and
    selection are unchanged, and the step writes and re-ranks nothing;
    otherwise it writes the value in place and re-ranks j alone, entering
    the estimate's bookkeeping only when j's selection changed.  _round
    and refresh compute every other step: empty steps and update sets of
    two or more edges.

    `repeats` is (s, L) when the steps repeat every L steps after the
    first s (Schedule.repeats; run_sync's all-edges step is (0, 1)).  The
    steps t and t + p then update the same sets whenever t >= s and p is a
    multiple of L, so the state after a period boundary, a step t with
    t >= s and (t - s) % L == 0, is a function of the messages there, and
    a run without a trace skips the cycles of its messages, which it seeks
    at period boundaries only.  As Brent's cycle finding does, it marks a
    snapshot (t, messages, counts) at the boundaries 1, 2, 4, ... periods
    after `base` (at first step s), and it keeps _PROBES of the messages
    (`probe`) of its last 2*_SPAN + 1 boundaries: a period costs one list
    compare and, up to _SPAN periods after a mark, one compare of probes.
    - An exact cycle: at the first boundary t whose messages equal the
      mark's, the run is periodic from the mark's step on, p steps later.
    - A translation, m(t + p) = m(t) + d_(t mod p): at a boundary whose
      probes moved alike in the last two periods of p steps since the
      mark, the run logs the next two periods as a trace logs its steps,
      in a MessageTrace that starts at that boundary, and takes a snapshot
      one period on.  If the second period moved the messages as the
      first did, _lasting proves from the log how many more periods the
      translation lasts.  Either way the run then looks for the next
      cycle, with this boundary as `base`.
    The run skips as many whole periods as the cycle lasts and the stop
    cannot hold in (_periods): a budget stop to just short of its count, a
    coverage stop to just short of its last edge reaching the count, a
    window stop over a constant estimate to min(limit, last_change +
    window), and one whose estimate changes inside the cycle to its limit,
    or not at all when a gap between changes is longer than the window.
    The history repeats its last p entries, last_change moves by the
    skipped steps when it lies inside the cycle, each count grows by k
    times its growth over the cycle (since the snapshot at its start), and
    a translation adds k times its shift to the messages and ranks them
    again.  The step iterator needs no advancing: k whole periods bring
    the schedule back to the same phase.  An exact cycle lasts for ever,
    so the run then steps the updates that remain and seeks no further.  A
    schedule that does not repeat, and a trace, which logs every step in
    the same MessageTrace and is returned as RunResult.trace, make the run
    step every update.
    RunResult.computed counts the steps computed."""
    init = init or MessageInit.weights()
    if init.kind == "weights":
        net = _Net(g)
        msgs = list(net.w)
    else:
        values = init.build(g)
        net = _Net(g, values.values())
        msgs = net.up(map(values.__getitem__, net.dirs))
    dirs, eid, head, tail, rev, w, gin = (net.dirs, net.ids, net.head, net.tail, net.rev,
                                          net.w, net.gin)
    plans = {}

    def compiled(updates):
        # the record of an update set: (k, i, r, w_k, into_j, plan) for its
        # one edge k = i -> j, with r = j -> i and into_j j's ranking record,
        # else five Nones and its plan
        ids = sorted([eid[e] for e in updates])
        plan = _Plan(ids, [tail[k] for k in ids], [w[k] for k in ids],
                     _gather([rev[k] for k in ids]),
                     [rank[j] for j in sorted({head[k] for k in ids})], _gather(ids))
        if len(ids) == 1:
            k = ids[0]
            plans[updates] = rec = (k, tail[k], rev[k], w[k], plan.heads[0], plan)
        else:
            plans[updates] = rec = (None, None, None, None, None, plan)
        return rec

    select = _select
    rank = [None] + [(i, g.neighbors(i), g.cap(i), gin[i]) for i in g.vertices()]
    sel = [()] * (g.n + 1)
    tie = [False] * (g.n + 1)
    lo = [None] * (g.n + 1)
    hi = [None] * (g.n + 1)
    free = [False] + [mode != PERFECT and len(nb) <= b for _, nb, b, _ in rank[1:]]
    cur = set()

    def reselect(j, new):
        # j now selects `new`, not sel[j]; True when `cur` changed
        old = sel[j]
        sel[j] = new
        touched = False
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

    def refresh(heads):
        # recompute the selections and ranks at the vertices of the ranking
        # records `heads`; True when `cur` changed
        touched = False
        for j, nb, b, read in heads:
            new, tie[j], lo[j], hi[j] = select(nb, b, read(msgs), mode)
            if new != sel[j] and reselect(j, new):
                touched = True
        return touched

    refresh(rank[1:])
    edges = frozenset(cur)
    history = [edges]
    last_change = 0
    if stop.kind == "window":
        window_size = stop.window_size if stop.window_size else max(g.n, 1)
        limit = stop.limit if stop.limit is not None else max(100, 20 * window_size)
    else:
        window_size, limit = g.n, None

    # a coverage stop needs every count above the threshold, i.e. at least
    # `need`; `pending` counts the directed edges still short of it, and the
    # stop holds once none is
    counts = [0] * len(dirs) if count else None
    covering, windowed = stop.kind == "coverage", stop.kind == "window"
    need = floor(stop.threshold) + 1 if covering else 0
    pending = len(dirs) if need > 0 else 0
    # `log` is the run's step log, a MessageTrace: its trace, or else the
    # steps since a period boundary whose probes moved alike over its last
    # two periods of q steps (`middle` is the snapshot one period on).
    # Cycle finding at the period boundaries `nxt`: `mark` is the snapshot
    # (t, messages, counts) at a power of two periods past `base`, `probes`
    # the probed messages of the last boundaries; `seek` ends at the first
    # exact cycle
    seek = repeats is not None and not keep_trace
    mark, cycle, skipped = (0, None, None), None, 0
    log = MessageTrace(dirs, net.scale, list(msgs), [], []) if keep_trace else None
    if seek:
        base, length = repeats
        probe = _gather(range(0, len(dirs), max(1, -(-len(dirs) // _PROBES))))
        probes = deque(maxlen=2 * _SPAN + 1)
        nxt = base
        if not base:
            probes.append(probe(msgs))
            nxt = length
    t = 0
    # the step at which a budget, or a window's limit, stops the run
    end = stop.iterations if stop.kind == "budget" else limit if windowed else inf
    perfect = mode == PERFECT
    it = iter(steps)
    while pending or not covering:
        if t >= end or windowed and t - last_change >= window_size:
            break
        updates = next(it)
        t += 1
        k, i, r, v, into_j, plan = plans.get(updates) or compiled(updates)
        if into_j is not None:
            # one edge i -> j: _round's rule on one value, in place, then
            # one re-rank of j, unless the value is the one the edge holds:
            # j's incoming messages, and so its ranks, are then unchanged
            if not free[i]:
                kth = hi[i] if msgs[r] <= lo[i] else lo[i]
                if perfect or kth < 0:
                    v -= kth
            if v == msgs[k]:
                touched = False
            else:
                msgs[k] = v
                j, nb, b, read = into_j
                new, tie[j], lo[j], hi[j] = select(nb, b, read(msgs), mode)
                touched = new != sel[j] and reselect(j, new)
            if counts is not None:
                counts[k] = c = counts[k] + 1
                if c == need:
                    pending -= 1
            if log is not None:
                log.plans.append(plan)
                log.wrote.append(v)
        else:
            msgs = _round(msgs, mode, plan, lo, hi, free)
            touched = refresh(plan.heads)
            if counts is not None:
                for k in plan.ids:
                    counts[k] += 1
                    if counts[k] == need:
                        pending -= 1
            if log is not None:
                log.plans.append(plan)
                log.wrote.extend(plan.own(msgs))
        if touched:
            now = frozenset(cur)
            if now != edges:
                edges = now
                last_change = t
        history.append(edges)
        if seek and t == nxt:
            nxt += length
            p = t - mark[0]
            found = lasting = past = None
            probes.append(probe(msgs))
            if msgs == mark[1]:
                # an exact cycle, the translation by 0: no order can flip
                found, seek, since, log = (mark[0], p), False, mark[2], None
            elif log is not None:
                if len(log.plans) == q:
                    middle = (t, list(msgs), counts and list(counts))
                elif len(log.plans) == 2 * q:
                    # two periods recorded: a translation if the second
                    # moved the messages as the first did, for as long as
                    # the orders of their steps hold
                    past = middle[1]
                    if all(map(eq, map(sub, msgs, past), map(sub, past, log.start))):
                        found, p, since = (t - 2 * q, q), q, middle[2]
                        lasting = _lasting(log, past, rank[1:], mode)
            elif (mark[1] is not None and 2 * (n := p // length) < len(probes)
                  and all(map(eq, map(sub, probes[-1], probes[-1 - n]),
                              map(sub, probes[-1 - n], probes[-1 - 2 * n])))):
                # the probed messages moved alike in the last two periods:
                # record the next two
                log, q = MessageTrace(dirs, net.scale, list(msgs), [], []), p
            if found and (lasting is None or lasting >= 0):
                cycle = found
                grown = None if counts is None else list(map(sub, counts, since))
                k = _periods(stop, t, p, history, last_change, window_size, limit,
                             counts, grown, need)
                if lasting is not None:
                    k = min(k, lasting)
                history.extend(history[-p:] * k)
                if last_change > t - p:
                    last_change += k * p
                t += k * p
                nxt += k * p
                skipped += k * p
                if k and counts is not None:
                    counts = [c + k * d for c, d in zip(counts, grown)]
                    pending = sum(c < need for c in counts)
                if k and past is not None:
                    # a translation moves the messages k periods on: shift
                    # them there and rank them again
                    msgs = [v + k * (v - u) for v, u in zip(msgs, past)]
                    refresh(rank[1:])
                    probes.clear()
                    probes.append(probe(msgs))
            if past is not None:
                # after two recorded periods, a translation or not, look for
                # the next cycle from this boundary on
                base, mark, log = t, (0, None, None), None
            elif seek and (n := (t - base) // length) and not n & (n - 1):
                mark = (t, list(msgs), counts and list(counts))

    est = Estimate(edges, {i: sel[i] for i in g.vertices()},
                   frozenset(i for i in g.vertices() if tie[i]))
    stable_for = t - last_change
    converged = not pending if covering else stable_for >= window_size
    period = None
    if not converged:
        period = detect_period(history, max(window_size, 2))
    cov = None if counts is None else CoverageStats(t, dict(zip(dirs, counts)),
                                                   min(counts, default=0))
    return RunResult(mode=mode, estimate=est, iterations=t, stabilized_at=last_change,
                     stable_for=stable_for, converged=converged, period=period,
                     history=history, stop=stop, coverage=cov, cycle=cycle, computed=t - skipped,
                     trace=log if keep_trace else None)


def run_sync(g: Graph, mode: str = PERFECT, init: MessageInit | None = None,
             stop: StopPolicy | None = None, keep_trace: bool = False) -> RunResult:
    """Synchronous message passing: the run loop under the all-edges
    schedule, which updates every directed edge at every step and so
    repeats with period 1 from step 0 on.  It counts no updates."""
    _check_input(g, mode)
    stop = stop or StopPolicy.window()
    if stop.kind == "coverage":
        raise EngineError("coverage stopping applies to asynchronous runs only")
    return _run(g, mode, init, stop, repeat(frozenset(g.directed_edges())), keep_trace,
                repeats=(0, 1), count=False)
