import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from bpmatch import (Graph, PERFECT, NONPERFECT, StopPolicy, GraphError,
                     ValidationError, MessageState, ScheduleError,
                     RedundantScheduleError, ScheduleExhausted, make_schedule,
                     parse_schedule, serialize_schedule, validate_schedule,
                     coverage, run_async, run_sync, init_messages, brute_force,
                     solve_relaxation, coverage_threshold, MessageInit, is_tight)
from bpmatch.harness import random_instance, solve_pipeline
from conftest import async_step, load_fixture, random_graph_any, sync_rounds


class TestValidate:
    def test_full_sync_ok(self, c4):
        sched = make_schedule(c4, "sync")
        assert validate_schedule(c4, sched, 20) is None

    def test_immediate_reupdate_is_redundant(self, c4):
        sched = make_schedule(c4, "explicit", sets=[{(1, 2)}, {(1, 2)}])
        v = validate_schedule(c4, sched, 2)
        assert v is not None and v.edge == (1, 2) and (v.t_prev, v.t) == (1, 2)

    def test_round_robin_ok(self, c4):
        sched = make_schedule(c4, "roundrobin")
        assert validate_schedule(c4, sched, 3 * 8) is None

    def test_random_generator_property(self, c4):
        for seed in range(25):
            sched = make_schedule(c4, "random", seed=seed)
            assert validate_schedule(c4, sched, 40) is None, seed

    def test_random_generator_property_random_graphs(self):
        rng = random.Random(9)
        for trial in range(15):
            g = random_graph_any(rng, n_max=6, allow_trivial=False)
            for seed in (0, 1, 2):
                sched = make_schedule(g, "random", seed=seed)
                horizon = 4 * len(g.directed_edges())
                assert validate_schedule(g, sched, horizon) is None

    def test_feeding_update_in_same_step_as_previous_counts(self, c4):
        # (1->2) updated together with its feeder (4->1), then re-updated
        sched = make_schedule(c4, "explicit", sets=[{(1, 2), (4, 1)}, {(1, 2)}])
        assert validate_schedule(c4, sched, 2) is None
        # ... but a feeder arriving only simultaneously with the re-update
        # does not help
        sched = make_schedule(c4, "explicit", sets=[{(1, 2)}, {(1, 2), (4, 1)}])
        v = validate_schedule(c4, sched, 2)
        assert v is not None and v.edge == (1, 2)

    def test_foreign_edge_rejected(self, c4):
        with pytest.raises(ScheduleError):
            make_schedule(c4, "explicit", sets=[{(1, 3)}])


def _reference_random_prefix(g, seed, horizon):
    """The random schedule as specified, with set-based windows: the edges
    that cannot be re-updated once, in shuffled order; one shuffled cycle
    over the re-updatable edges; then cycles drawn one edge at a time,
    uniformly from the ready edges in sorted order.  An undrawn edge is
    ready when a feeding edge lies in its window: after it in the last
    cycle, or drawn earlier in this one.  With no re-updatable edge, the
    single updates are followed by empty steps."""
    alive = set(g.directed_edges())
    while True:
        dead = {(i, j) for (i, j) in alive
                if not any((l, i) in alive for l in g.neighbors(i) if l != j)}
        if not dead:
            break
        alive -= dead
    repeat = sorted(alive)
    once = [e for e in g.directed_edges() if e not in alive]

    def feeders(e):
        i, j = e
        return {(l, i) for l in g.neighbors(i) if l != j}

    rng = random.Random(seed)
    out = [frozenset((e,)) for e in sorted(once, key=lambda _: rng.random())]
    cycle = repeat[:]
    rng.shuffle(cycle)
    if not repeat:
        out += [frozenset()] * horizon
    while repeat and len(out) < horizon:
        out += [frozenset((e,)) for e in cycle]
        prev, cycle = cycle, []
        while len(cycle) < len(repeat):
            ready = sorted(e for e in repeat if e not in cycle
                           and feeders(e) & (set(prev[prev.index(e) + 1:]) | set(cycle)))
            cycle.append(ready[rng.randrange(len(ready))])
    return out[:horizon]


# the complete graph on 9 vertices: 72 re-updatable directed edges, each
# fed by 7, so a cycle draws from ready lists of 1 to 64 edges and more
K9 = Graph(9, [1] * 9, [(i, j, (7 * i + 3 * j) % 11 - 5) for i, j in combinations(range(1, 10), 2)])


def _pinned_graphs():
    """The fixtures, six random_instance draws per mode and K9: several have
    vertices of capacity 2, and in non-perfect mode one has an edge that
    is updated only once beside 19 re-updatable ones, and one has six such
    edges and no re-updatable edge."""
    out = [pytest.param(load_fixture(name), id=name)
           for name in ["c4", "k4-appendix", "tri-neg", "tri-half", "p4"]]
    for mode in (PERFECT, NONPERFECT):
        rng = random.Random(0)
        out += [pytest.param(random_instance(rng, 7, mode), id=f"{mode}-{k}")
                for k in range(6)]
    return out + [pytest.param(K9, id="k9")]


@pytest.mark.parametrize("g", _pinned_graphs())
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_random_schedule_is_pinned(g, seed):
    horizon = 10 * len(g.directed_edges())  # at least ten cycles
    got = make_schedule(g, "random", seed=seed).prefix(horizon)
    assert got == _reference_random_prefix(g, seed, horizon)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_random_draws_from_ready_lists_past_64(monkeypatch, seed):
    # the draws after the first cycle's shuffle take k random bits for a
    # ready list of 2^(k-1) to 2^k - 1 edges; K9's cycles take every k up
    # to 7, so the pinned schedules cover lists past 16, 32 and 64
    widths = set()

    class Spy(random.Random):
        drawing = False

        def shuffle(self, x):
            super().shuffle(x)
            self.drawing = True

        def getrandbits(self, k):
            if self.drawing:
                widths.add(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Spy)
    make_schedule(K9, "random", seed=seed).prefix(10 * len(K9.directed_edges()))
    assert {5, 6, 7} <= widths


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_rejection_draw_is_randrange(seed):
    # the random schedule draws each index as randrange does: k =
    # n.bit_length() random bits, drawn again while they name no index
    mine, theirs = random.Random(seed), random.Random(seed)
    for n in [n for n in range(1, 301) for _ in range(3)]:
        k = n.bit_length()
        r = mine.getrandbits(k)
        while r >= n:
            r = mine.getrandbits(k)
        assert r == theirs.randrange(n), n


def test_random_cycles_rarely_repeat_the_previous_order(c4):
    # every directed edge of c4 is re-updatable, so cycles start at step 1
    size = len(c4.directed_edges())
    repeats = 0
    for seed in range(10):
        steps = make_schedule(c4, "random", seed=seed).prefix(30 * size)
        cycles = [steps[k:k + size] for k in range(0, len(steps), size)]
        repeats += sum(a == b for a, b in zip(cycles, cycles[1:]))
    assert repeats < 29  # of 290 boundaries


def _once_by_feeder_counts(g):
    """The directed edges a schedule can update only once, edge by edge:
    each edge counts its feeders still in play, an edge at zero leaves
    play, and its leaving takes one feeder from each edge it feeds."""
    fed_by = {(i, j): sum(1 for l in g.neighbors(i) if l != j) for (i, j) in g.directed_edges()}
    gone = [e for e, c in fed_by.items() if c == 0]
    out = set(gone)
    while gone:
        l, i = gone.pop()
        for k in g.neighbors(i):
            if k != l and (i, k) not in out:
                fed_by[(i, k)] -= 1
                if fed_by[(i, k)] == 0:
                    out.add((i, k))
                    gone.append((i, k))
    return [e for e in g.directed_edges() if e in out]


def _pendant_graph(kind):
    """'paths': 1 100 vertices of average degree 6 and twenty 3-edge
    pendant paths, 6 720 directed edges; 'tail': a triangle with a
    2 000-edge pendant path, which the peel drops one edge per pass."""
    rng = random.Random(28)
    if kind == "tail":
        edges = [(1, 2), (2, 3), (1, 3)] + [(k, k + 1) for k in range(3, 2003)]
        return Graph(2003, [1] * 2003, [(i, j, rng.randint(1, 9)) for i, j in edges])
    n = 1100
    pairs = set()
    while len(pairs) < 3 * n:
        i, j = rng.sample(range(1, n + 1), 2)
        pairs.add((min(i, j), max(i, j)))
    edges = sorted(pairs)
    for v in range(n + 1, n + 61, 3):
        edges += [(rng.randint(1, n), v), (v, v + 1), (v + 1, v + 2)]
    return Graph(n + 60, [1] * (n + 60), [(i, j, rng.randint(1, 9)) for i, j in edges])


@pytest.mark.parametrize("shape, size, single", [("paths", 6720, 60), ("tail", 4006, 2000)])
@pytest.mark.parametrize("kind", ["roundrobin", "random"])
def test_schedule_construction_at_scale(shape, size, single, kind):
    g = _pendant_graph(shape)
    once = _once_by_feeder_counts(g)
    assert len(g.directed_edges()) == size and len(once) >= single
    t0 = time.perf_counter()
    sched = make_schedule(g, kind, seed=5)
    took = time.perf_counter() - t0
    assert list(sched.once) == once
    assert sched.repeats == (None if kind == "random" else (len(once), size - len(once)))
    assert took < 0.5, took
    # the single updates first, then one cycle over every other edge
    steps = [e for s in sched.prefix(size) for e in s]
    assert sorted(steps[:len(once)]) == sorted(once)
    assert sorted(steps[len(once):]) == sorted(set(g.directed_edges()) - set(once))


class TestCoverage:
    def test_full_sync_counts(self, c4):
        assert coverage(c4, make_schedule(c4, "sync"), 7).u == 7

    def test_round_robin_one_cycle(self, c4):
        assert coverage(c4, make_schedule(c4, "roundrobin"), 8).u == 1

    def test_empty_schedule(self, c4):
        sched = make_schedule(c4, "explicit", sets=[])
        assert coverage(c4, sched, 5).u == 0

    def test_u_monotone_and_singleton_steps(self, c4):
        sched = make_schedule(c4, "random", seed=3)
        prev = 0
        for t in range(1, 30):
            u = coverage(c4, sched, t).u
            assert prev <= u <= prev + 1
            prev = u


class TestAsyncRound:
    def test_full_set_equals_sync_round(self, c4):
        rng = random.Random(5)
        for _ in range(10):
            state = MessageState(0, {d: F(rng.randint(-20, 20), rng.randint(1, 4))
                                     for d in c4.directed_edges()})
            full = async_step(c4, state, c4.directed_edges())
            sync = sync_rounds(c4, state)
            assert full.m == sync.m

    def test_empty_set_carries_over(self, c4):
        s0 = init_messages(c4)
        s1 = async_step(c4, s0, [])
        assert s1.t == 1 and s1.m == s0.m

    def test_single_edge_update(self, c4):
        s0 = init_messages(c4)
        s1 = async_step(c4, s0, [(1, 2)])
        assert s1.value(1, 2) == -2
        assert all(s1.value(*d) == s0.value(*d) for d in c4.directed_edges() if d != (1, 2))

    def test_foreign_update_rejected(self, c4):
        with pytest.raises(ScheduleError):
            async_step(c4, init_messages(c4), [(1, 3)])


class TestRunAsync:
    def test_full_sync_schedule_reproduces_sync_run(self, c4):
        sync = run_sync(c4, PERFECT, stop=StopPolicy.budget(6), keep_trace=True)
        asyn = run_async(c4, make_schedule(c4, "sync"),
                         stop=StopPolicy.budget(6), keep_trace=True)
        for a, b in zip(sync.trace, asyn.trace):
            assert a.m == b.m

    @pytest.mark.parametrize("mode", [PERFECT, NONPERFECT])
    @pytest.mark.parametrize("name", ["c4", "k4-appendix", "tri-neg", "tri-half", "p4"])
    def test_pipeline_sync_schedule_is_the_synchronous_run(self, name, mode):
        g = load_fixture(name)

        def report(schedule):
            try:
                return solve_pipeline(g, mode, schedule=schedule, certify=True).to_dict()
            except GraphError as exc:
                return repr(exc)
        assert report(make_schedule(g, "sync")) == report(None)

    def test_round_robin_certified_matches_optimum(self, c4):
        w, opts = brute_force(c4, PERFECT)
        sol, cert = solve_relaxation(c4, PERFECT)
        thr = coverage_threshold(c4, cert)
        res = run_async(c4, make_schedule(c4, "roundrobin"),
                        stop=StopPolicy.coverage(thr))
        assert res.coverage.u > thr
        assert res.estimate.edges == opts[0]

    def test_redundant_schedule_raises_unless_waived(self, c4):
        sched = make_schedule(c4, "explicit", sets=[{(1, 2)}, {(1, 2)}])
        with pytest.raises(RedundantScheduleError):
            run_async(c4, sched, stop=StopPolicy.budget(2))
        res = run_async(c4, sched, stop=StopPolicy.budget(2), check_redundancy=False)
        assert res.iterations == 2

    def test_exhaustion_reported(self, c4):
        sched = make_schedule(c4, "explicit", sets=[{(1, 2)}])
        with pytest.raises(ScheduleExhausted):
            run_async(c4, sched, stop=StopPolicy.budget(5))

    def test_nonperfect_async_runs(self, tri_neg):
        sched = make_schedule(tri_neg, "roundrobin")
        res = run_async(tri_neg, sched, stop=StopPolicy.budget(60), mode=NONPERFECT)
        assert res.estimate.edges == frozenset({(1, 2)})

    def test_seeded_schedules_all_reach_the_optimum(self, k4):
        w, opts = brute_force(k4, PERFECT)
        _, cert = solve_relaxation(k4, PERFECT)
        thr = coverage_threshold(k4, cert)
        for seed in range(20):
            sched = make_schedule(k4, "random", seed=seed)
            res = run_async(k4, sched, stop=StopPolicy.coverage(thr))
            assert res.estimate.edges == opts[0], seed

    @pytest.mark.parametrize("kind, seed", [("roundrobin", None), ("random", 8), ("random", 21)])
    def test_a_coverage_stop_fires_at_the_first_step_past_its_threshold(self, kind, seed):
        # a tight cubic instance on 6 vertices, K3,3; the round-robin run
        # jumps whole periods of a message cycle toward the stop, the random
        # ones step every update
        g = Graph(6, [1] * 6, [(1, 4, 3), (1, 5, 8), (1, 6, 5), (2, 4, 7), (2, 5, 2), (2, 6, 9),
                               (3, 4, 6), (3, 5, 4), (3, 6, 1)])
        assert is_tight(g, PERFECT).tight
        sched = make_schedule(g, kind, seed=seed)
        res = run_async(g, sched, stop=StopPolicy.coverage(90))
        t = res.iterations
        assert res.converged and (kind == "random") == (res.computed == t)
        assert coverage(g, sched, t - 1).u <= 90 < res.coverage.u
        assert res.coverage == coverage(g, sched, t)

    def test_unknown_mode_rejected(self, c4):
        with pytest.raises(GraphError, match="unknown mode"):
            run_async(c4, make_schedule(c4, "roundrobin"), stop=StopPolicy.budget(8),
                      mode="bogus")

    def test_validation_enforced(self, c4):
        # positive weights are invalid in non-perfect mode, as for run_sync
        with pytest.raises(ValidationError):
            run_async(c4, make_schedule(c4, "roundrobin"), stop=StopPolicy.budget(8),
                      mode=NONPERFECT)

    def test_coverage_stop_on_edgeless_graph(self):
        g = Graph(0, (), ())
        res = run_async(g, make_schedule(g, "sync"), stop=StopPolicy.coverage(5))
        assert res.iterations == 0 and res.converged

    @pytest.mark.parametrize("kind,seed", [("roundrobin", None), ("random", 4)])
    def test_unreachable_coverage_stop_rejected_before_the_first_step(self, kind, seed):
        # vertex 4 is a leaf: (4 -> 3) has no feeder, so a single-edge
        # schedule updates it once and u(t) never exceeds 1
        g = Graph(4, [1] * 4, [(1, 2, -3), (2, 3, -2), (1, 3, -1), (3, 4, -5)])
        sched = make_schedule(g, kind, seed=seed)
        assert sched.once == ((4, 3),)
        with pytest.raises(ScheduleError, match=r"\(4, 3\) only once"):
            run_async(g, sched, stop=StopPolicy.coverage(1), mode=NONPERFECT)
        # one update of every edge is within reach
        res = run_async(g, sched, stop=StopPolicy.coverage(F(1, 2)), mode=NONPERFECT)
        assert res.converged and res.coverage.u == 1

    def test_coverage_stop_past_two_hundred_thousand_steps(self):
        # a large init lifts the certified threshold to 80032/3, so the run
        # needs 26 678 round-robin cycles of the 8 directed edges
        g = load_fixture("c4")
        init = MessageInit.constant(10000)
        _, cert = solve_relaxation(g, PERFECT)
        thr = coverage_threshold(g, cert, PERFECT, init)
        assert thr == F(80032, 3)
        res = run_async(g, make_schedule(g, "roundrobin"), init, StopPolicy.coverage(thr))
        assert (res.iterations, res.coverage.u) == (213_424, 26_678)
        assert res.converged and res.estimate.edges == frozenset({(1, 2), (3, 4)})


class TestFiles:
    def test_parse_and_serialize(self, c4):
        text = "1>2 3>4\n\n2>1\n"
        sched = parse_schedule(text, c4)
        assert sched.prefix(3) == [frozenset({(1, 2), (3, 4)}), frozenset(), frozenset({(2, 1)})]
        assert serialize_schedule(sched.prefix(3)) == text

    def test_comment_lines_skipped(self, c4):
        sched = parse_schedule("# step one:\n1>2\n  # no step\n\n2>1\n", c4)
        assert sched.prefix(5) == [frozenset({(1, 2)}), frozenset(), frozenset({(2, 1)})]

    def test_inline_comments_dropped(self, c4):
        # as in graph files; a comment-only line between steps is no step,
        # a blank one an empty step
        sched = parse_schedule("1>2 # first\n2>1 3>4#no space\n\t# only a note\n  \n", c4)
        assert sched.prefix(4) == [frozenset({(1, 2)}), frozenset({(2, 1), (3, 4)}), frozenset()]
        with pytest.raises(ScheduleError, match=r"^line 2: expected 'i>j', got '1-2'$"):
            parse_schedule("1>2\n1-2 # a bad token before a comment\n", c4)

    def test_bad_token(self, c4):
        with pytest.raises(ScheduleError):
            parse_schedule("1-2\n", c4)

    def test_edge_named_twice_on_one_line(self, c4):
        with pytest.raises(ScheduleError, match=r"^line 2: duplicate directed edge \(1, 2\)$"):
            parse_schedule("2>1\n1>2 3>4 1>2\n", c4)

    def test_unknown_edge(self, c4):
        with pytest.raises(ScheduleError):
            parse_schedule("1>3\n", c4)

    def test_empty_graph_sync_schedule_is_degenerate(self):
        g = Graph(0, (), ())
        sched = make_schedule(g, "sync")
        assert sched.prefix(3) == [frozenset(), frozenset(), frozenset()]
