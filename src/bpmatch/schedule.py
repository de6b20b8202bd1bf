"""Asynchronous update schedules.

A schedule is a sequence of sets E(1), E(2), ... of directed edges; at step t
exactly the edges in E(t) recompute their message from the state at t-1 and
all others carry over.  A schedule has a redundancy when some directed edge
(i -> j) is re-updated although none of its feeding edges (l -> i), l a
neighbor of i other than j, was updated since (i -> j)'s previous update
(updates in the same step as that previous update count as feeding, because
their values are visible to the later recomputation; updates in the same
step as the re-update are not).

u(t) is the minimum, over directed edges, of how many updates the edge
received through step t; certified asynchronous stopping triggers once u(t)
exceeds a bound supplied by the LP certificate.  The run loop (engine._run)
counts the updates and decides that stop.
"""

from __future__ import annotations

import random as _random
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat as forever
from math import floor

from .graph import Graph, PERFECT, GraphError
from .engine import CoverageStats, MessageInit, StopPolicy, RunResult, _run, _check_input


class ScheduleError(GraphError):
    pass


class ScheduleExhausted(ScheduleError):
    pass


class RedundantScheduleError(ScheduleError):
    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"redundant update of {violation.edge} at step {violation.t} "
                         f"(previous update at step {violation.t_prev}, no feeding update between)")


@dataclass(frozen=True)
class ScheduleViolation:
    edge: tuple
    t_prev: int
    t: int


class Schedule:
    """Sequence of directed-edge update sets, materialized or generated.

    Generated kinds are infinite and redundancy-free by construction, so
    they are trusted; materialized kinds (files, explicit lists) are finite
    and untrusted.  `once` lists the directed edges a generated schedule
    updates once and never again, because they cannot be re-updated
    without redundancy.  `repeats` is (s, L) when the schedule repeats its
    steps every L steps after its first s, so that steps t and t + L update
    the same set for every t > s, and None when it states no such period.

    A generated schedule is laid out on first use, so one made and then
    made again on a reduced graph does its graph work once: `layout`
    returns (factory, once, repeats), with factory() a new iterator over
    the steps.
    """

    def __init__(self, kind, *, sets=None, layout=None, seed=None):
        if (sets is None) == (layout is None):
            raise ScheduleError("exactly one of sets/layout required")
        self.kind = kind
        self.seed = seed
        self._sets = None if sets is None else [frozenset(s) for s in sets]
        self._layout = layout

    @cached_property
    def _laid(self):
        return (lambda: iter(self._sets), (), None) if self._layout is None else self._layout()

    @property
    def once(self) -> tuple:
        return self._laid[1]

    @property
    def repeats(self):
        return self._laid[2]

    @property
    def trusted(self):
        return self._sets is None

    def __iter__(self):
        return self._laid[0]()

    def prefix(self, horizon: int) -> list:
        """E(1)..E(horizon); shorter if a materialized schedule ends first."""
        return list(islice(iter(self), horizon))

    def describe(self):
        if self.seed is not None:
            return f"{self.kind}(seed={self.seed})"
        return self.kind


# -- generators ----------------------------------------------------------------

def _split(g: Graph):
    """(once, repeat): the directed edges that cannot be re-updated without
    redundancy, in directed_edges() order, and the sorted rest, the largest
    set in which every edge has a feeding edge also in the set.  The peel
    drops, pass by pass, the edges with no feeder left in the set; after
    the first pass, only the edges that a dropped edge fed can have lost
    their last feeder, so only they are checked again."""
    dirs = g.directed_edges()
    alive, suspects = set(dirs), dirs
    while suspects:
        dead = {(i, j) for (i, j) in suspects if (i, j) in alive
                and not any((l, i) in alive for l in g.neighbors(i) if l != j)}
        alive -= dead
        suspects = {(i, k) for (l, i) in dead for k in g.neighbors(i) if k != l}
    return [e for e in dirs if e not in alive], sorted(alive)


def make_schedule(g: Graph, kind: str, seed=None, sets=None) -> Schedule:
    """Build a schedule.

    sync: every directed edge at every step; repeats (0, 1).
    roundrobin: single edges cycling in a fixed global order: each `once`
        edge, then the re-updatable ones for ever; repeats (len(once), the
        number of re-updatable edges), or (len(once), 1) when none is.
    random: seeded random single edges; each later cycle is drawn one edge
        at a time from the edges whose re-update is fed, so the result is
        redundancy-free by construction.  Each draw is a uniform index into
        the sorted ready list, by rejection over getrandbits(k) with k the
        list length's bit length: the draws of Random.randrange.  It states
        no period.
    explicit: the given list of update sets, verbatim (untrusted), with no
        stated period.
    Generated schedules are infinite and trusted, so run_async feeds them
    to the run loop unchecked: on a graph where no directed edge can be
    re-updated without redundancy (one with no directed edges included),
    roundrobin and random take empty steps forever after their single
    updates.
    """
    dirs = g.directed_edges()
    if kind == "random" and seed is None:
        raise ScheduleError("random schedules need a seed")

    if kind == "sync":
        # the set is built per iteration, so a schedule never iterated costs nothing
        return Schedule("sync", layout=lambda: (lambda: forever(frozenset(dirs)), (), (0, 1)))

    if kind == "roundrobin":
        return Schedule("roundrobin", layout=lambda: _roundrobin(g))

    if kind == "random":
        return Schedule("random", layout=lambda: _random_order(g, seed), seed=seed)

    if kind == "explicit":
        if sets is None:
            raise ScheduleError("explicit schedules need update sets")
        known = set(dirs)
        out = []
        for t, s in enumerate(sets, start=1):
            s = frozenset(tuple(e) for e in s)
            foreign = [e for e in s if e not in known]
            if foreign:
                raise ScheduleError(f"step {t}: {foreign[0]} is not a directed edge of the graph")
            out.append(s)
        return Schedule("explicit", sets=out)

    raise ScheduleError(f"unknown schedule kind {kind!r}")


def _roundrobin(g: Graph):
    """The layout of a round-robin schedule on `g` (see Schedule)."""
    once, repeat = _split(g)
    singles = [frozenset((e,)) for e in repeat]

    def factory():
        for e in once:
            yield frozenset((e,))
        if not repeat:
            yield from forever(frozenset())
        while True:
            yield from singles
    return factory, tuple(once), (len(once), len(repeat) or 1)


def _random_order(g: Graph, seed):
    """The layout of a random schedule on `g` (see Schedule)."""
    once, repeat = _split(g)
    # cycles are drawn as indices into `repeat`, so the ready list keeps
    # `repeat` order; fed[e] lists the edges that e feeds
    index = {e: k for k, e in enumerate(repeat)}
    fed = [[index[(j, k)] for k in g.neighbors(j) if k != i and (j, k) in index]
           for (i, j) in repeat]
    singles = [frozenset((e,)) for e in repeat]

    def factory():
        rng = _random.Random(seed)
        draw = rng.getrandbits
        for e in sorted(once, key=lambda _: rng.random()):
            yield frozenset((e,))
        if not repeat:
            yield from forever(frozenset())
        cycle = list(range(len(repeat)))
        rng.shuffle(cycle)
        up = [False] * len(repeat)  # a feeder of x was yielded after x
        while True:
            for e in cycle:
                yield singles[e]
                up[e] = False
                for x in fed[e]:
                    up[x] = True
            # An undrawn edge is ready once a feeder comes after it in the
            # last cycle or is drawn in this one, so its re-update is fed.
            # The undrawn edge that came first in the last cycle is always
            # ready: its feeder in the set is either drawn or after it.
            # So `ready` is empty only once every edge is drawn.
            ready = [e for e, ok in enumerate(up) if ok]
            cycle = []
            while ready:
                # rng.randrange(n), inline: k random bits, drawn again
                # while they name no index
                n = len(ready)
                k = n.bit_length()
                r = draw(k)
                while r >= n:
                    r = draw(k)
                e = ready.pop(r)
                cycle.append(e)
                for x in fed[e]:
                    if not up[x]:
                        up[x] = True
                        insort(ready, x)
    return factory, tuple(once), None


def parse_schedule(text: str, g: Graph) -> Schedule:
    """One line per step: whitespace-separated tokens "i>j", each directed
    edge at most once per line.  Anything after '#' on a line is a comment,
    and a line that holds only a comment is no step, as in graph.text_rows;
    but unlike there, a blank line, with no token and no comment, is a step
    with an empty update set."""
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, comment, _ = raw.partition("#")
        tokens = line.split()
        if comment and not tokens:
            continue
        step = set()
        for tok in tokens:
            if ">" not in tok:
                raise ScheduleError(f"line {lineno}: expected 'i>j', got {tok!r}")
            a, _, b = tok.partition(">")
            try:
                e = (int(a), int(b))
            except ValueError:
                raise ScheduleError(f"line {lineno}: bad directed edge {tok!r}") from None
            if e in step:
                raise ScheduleError(f"line {lineno}: duplicate directed edge {e}")
            step.add(e)
        sets.append(frozenset(step))
    return make_schedule(g, "explicit", sets=sets)


def serialize_schedule(sets) -> str:
    # one line per step, so no steps is no lines
    return "".join(" ".join(f"{i}>{j}" for (i, j) in sorted(s)) + "\n" for s in sets)


# -- validation and coverage -----------------------------------------------------

class _RedundancyTracker:
    def __init__(self, g: Graph):
        self.g = g
        self.last = {}

    def step(self, t, updates):
        """Return the first violation caused by applying E(t), else None."""
        for e in sorted(updates):
            i, j = e
            prev = self.last.get(e)
            if prev is None:
                continue
            ok = any(self.last.get((l, i), -1) >= prev
                     for l in self.g.neighbors(i) if l != j)
            if not ok:
                return ScheduleViolation(e, prev, t)
        for e in updates:
            self.last[e] = t
        return None


def validate_schedule(g: Graph, sched: Schedule, horizon: int):
    """Check the first `horizon` steps for redundancies; None means ok."""
    tracker = _RedundancyTracker(g)
    for t, updates in enumerate(sched.prefix(horizon), start=1):
        violation = tracker.step(t, updates)
        if violation is not None:
            return violation
    return None


def coverage(g: Graph, sched: Schedule, t: int) -> CoverageStats:
    counts = {e: 0 for e in g.directed_edges()}
    for updates in sched.prefix(t):
        for e in updates:
            counts[e] += 1
    u = min(counts.values(), default=0)
    return CoverageStats(t, counts, u)


# -- asynchronous runs -----------------------------------------------------------

def run_async(g: Graph, sched: Schedule, init: MessageInit | None = None,
              stop: StopPolicy | None = None, mode: str = PERFECT,
              check_redundancy: bool = True, keep_trace: bool = False) -> RunResult:
    """Drive message passing along a schedule.

    The run loop draws a generated (trusted, infinite) schedule's steps
    directly, and skips the message cycles of one that repeats (see
    engine._run); a materialized one's are checked for redundancies unless
    check_redundancy is False (the run is then uncertified), and
    ScheduleExhausted is raised when they end before the stop condition is
    met.  A coverage stop triggers at the first step t with u(t) >
    stop.threshold.  Raises ScheduleError before the first step when a
    coverage stop needs two or more updates of an edge that the schedule
    updates only once.
    """
    _check_input(g, mode)
    stop = stop or StopPolicy.coverage(0)
    if stop.kind == "coverage" and stop.threshold >= 1 and sched.once:
        raise ScheduleError(
            f"coverage stop unreachable: the {sched.kind} schedule updates {sched.once[0]} "
            f"only once, and the stop needs {floor(stop.threshold) + 1} updates of every "
            "directed edge")
    steps = iter(sched) if sched.trusted else _checked(g, sched, check_redundancy)
    run = _run(g, mode, init, stop, steps, keep_trace, sched.repeats)
    run.schedule_kind = sched.describe()
    return run


def _checked(g: Graph, sched: Schedule, check_redundancy: bool):
    """The steps of a materialized schedule, checked for redundancies unless
    check_redundancy is False; past its end, ScheduleExhausted."""
    tracker = _RedundancyTracker(g) if check_redundancy else None
    t = 0
    for t, updates in enumerate(sched, start=1):
        if tracker is not None:
            violation = tracker.step(t, updates)
            if violation is not None:
                raise RedundantScheduleError(violation)
        yield updates
    raise ScheduleExhausted(f"schedule ended after {t} steps before the stop condition was met")
