import dataclasses
import random
from fractions import Fraction as F

import pytest

from bpmatch import (Graph, PERFECT, NONPERFECT, MessageInit, StopPolicy,
                     EngineError, init_messages, extract_estimate, run_sync,
                     TrivialVertexError, ValidationError, make_schedule, run_async,
                     validate)
from bpmatch.harness import prepare_instance
from conftest import async_step, load_fixture, sync_rounds, tight_instances


def messages(state, *pairs):
    return [state.value(i, j) for (i, j) in pairs]


class TestInit:
    def test_default_copies_weights(self, c4):
        s = init_messages(c4)
        assert s.t == 0
        assert s.value(1, 2) == 1 and s.value(2, 1) == 1 and s.value(4, 1) == 3

    def test_constant_zero(self, c4):
        s = init_messages(c4, MessageInit.constant(0))
        assert all(v == 0 for v in s.m.values())

    def test_explicit_missing_edge_rejected(self, c4):
        mapping = {d: 1 for d in c4.directed_edges() if d != (2, 1)}
        with pytest.raises(EngineError, match="missing"):
            init_messages(c4, MessageInit.explicit(mapping))

    def test_explicit_unknown_edge_rejected(self, c4):
        # also when the unknown pair takes the place of a directed edge
        for left_out in (None, (2, 1)):
            mapping = {d: 1 for d in c4.directed_edges() if d != left_out}
            mapping[(1, 3)] = 1
            with pytest.raises(EngineError, match="unknown"):
                init_messages(c4, MessageInit.explicit(mapping))


class TestPerfectRound:
    def test_c4_first_round_by_hand(self, c4):
        s1 = sync_rounds(c4, init_messages(c4))
        assert s1.t == 1
        assert s1.value(1, 2) == -2
        assert s1.value(3, 2) == 1
        assert s1.value(4, 3) == -2
        # the full table around the cycle
        assert messages(s1, (2, 3), (3, 4), (4, 1)) == [1, -1, 2]
        assert messages(s1, (2, 1), (4, 3), (1, 4)) == [-1, -2, 2]

    def test_c4_later_rounds_by_hand(self, c4):
        s = sync_rounds(c4, init_messages(c4), rounds=3)
        assert messages(s, (1, 2), (2, 3), (3, 4), (4, 1)) == [-3, 3, -3, 3]
        assert messages(s, (2, 1), (3, 2), (4, 3), (1, 4)) == [-3, 3, -3, 3]

    def test_zero_weights_stay_zero(self):
        g = Graph(4, [1] * 4, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 0)])
        run = run_sync(g, PERFECT, stop=StopPolicy.budget(5), keep_trace=True)
        for s in run.trace[1:]:
            assert all(v == 0 for v in s.m.values())

    def test_k4_first_round_by_hand(self, k4):
        s1 = sync_rounds(k4, init_messages(k4))
        assert s1.value(2, 4) == 0
        assert s1.value(1, 2) == -9 and s1.value(3, 4) == -9
        assert s1.value(2, 1) == 0 and s1.value(4, 3) == 0 and s1.value(4, 2) == 0
        for pair in ((3, 1), (4, 1), (1, 3), (2, 3), (1, 4), (3, 2)):
            assert s1.value(*pair) == 9

    def test_trivial_vertex_rejected(self):
        g = Graph(2, [1, 1], [(1, 2, 1)])
        with pytest.raises(TrivialVertexError):
            sync_rounds(g, init_messages(g))

    def test_round_purity(self, c4):
        s = init_messages(c4)
        before = dict(s.m)
        first = sync_rounds(c4, s)
        second = sync_rounds(c4, s)
        assert first.m == second.m and s.t == 0 and s.m == before

    def test_update_order_is_irrelevant(self, c4):
        # a step computes every new value from the state at t-1 before it
        # writes any: all edges at once give the sync round, and all edges
        # but one give the sync round with that one edge carried over
        rng = random.Random(6)
        s = init_messages(c4)
        for _ in range(4):
            sync = sync_rounds(c4, s)
            assert async_step(c4, s, c4.directed_edges()).m == sync.m
            left = rng.choice(c4.directed_edges())
            partial = async_step(c4, s, [e for e in c4.directed_edges() if e != left])
            assert partial.m == {**sync.m, left: s.m[left]}
            s = sync

    def test_capacity_two_uses_second_minimum(self):
        g = Graph(4, [2, 2, 2, 2],
                  [(1, 2, 1), (1, 3, 10), (1, 4, 10), (2, 3, 10), (2, 4, 1), (3, 4, 1)])
        s1 = sync_rounds(g, init_messages(g))
        # m(1->2) = w12 - 2nd-min(m(3->1), m(4->1)) = 1 - 10
        assert s1.value(1, 2) == -9
        # m(2->1) = w12 - 2nd-min(m(3->2)=10, m(4->2)=1) = 1 - 10
        assert s1.value(2, 1) == -9


class TestNonperfectRound:
    def test_triangle_first_round_by_hand(self, tri_neg):
        s1 = sync_rounds(tri_neg, init_messages(tri_neg), NONPERFECT)
        assert s1.value(1, 2) == -1
        assert messages(s1, (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)) == [-2, 2, 1, 1, -1]

    def test_zero_weights_stay_zero(self):
        g = Graph(3, [1, 1, 1], [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
        run = run_sync(g, NONPERFECT, stop=StopPolicy.budget(4), keep_trace=True)
        for s in run.trace[1:]:
            assert all(v == 0 for v in s.m.values())

    def test_star_center_at_capacity_sends_raw_weights(self):
        g = Graph(4, [3, 1, 1, 1], [(1, 2, -1), (1, 3, -2), (1, 4, -3)])
        run = run_sync(g, NONPERFECT, stop=StopPolicy.budget(4), keep_trace=True)
        for s in run.trace[1:]:
            for leaf in (2, 3, 4):
                assert s.value(1, leaf) == g.weight(1, leaf)
                assert s.value(leaf, 1) == g.weight(1, leaf)


class TestExtract:
    def test_c4_selection_after_one_round(self, c4):
        s1 = sync_rounds(c4, init_messages(c4))
        est = extract_estimate(c4, s1, PERFECT)
        assert est.selected[2] == (1,)
        assert est.edges == frozenset({(1, 2), (3, 4)})
        assert est.ties == frozenset()

    def test_all_equal_messages_tie_everywhere(self, c4):
        s = init_messages(c4, MessageInit.constant(7))
        est = extract_estimate(c4, s, PERFECT)
        assert est.ties == frozenset({1, 2, 3, 4})
        # smallest neighbor label wins
        assert est.selected == {1: (2,), 2: (1,), 3: (2,), 4: (1,)}

    def test_nonperfect_takes_most_negative_up_to_capacity(self, tri_neg):
        s = init_messages(tri_neg)  # all weights negative
        est = extract_estimate(tri_neg, s, NONPERFECT)
        assert est.selected[1] == (2,)  # -3 beats -2, capacity 1
        assert est.edges == frozenset({(1, 2), (1, 3)})

    def test_nonperfect_positive_messages_empty(self):
        g = Graph(3, [1, 1, 1], [(1, 2, -1), (2, 3, -1), (1, 3, -1)])
        s = init_messages(g, MessageInit.constant(2))
        est = extract_estimate(g, s, NONPERFECT)
        assert est.edges == frozenset()

    def test_nonperfect_zero_is_boundary_tie(self):
        g = Graph(3, [1, 1, 1], [(1, 2, -1), (2, 3, -1), (1, 3, -1)])
        s = init_messages(g, MessageInit.constant(0))
        est = extract_estimate(g, s, NONPERFECT)
        assert est.edges == frozenset()
        assert est.ties == frozenset({1, 2, 3})

    def test_nonperfect_zero_past_capacity_is_no_tie(self):
        # vertex 4 (b = 2) takes its two negative messages; the zero lies
        # past the selection boundary
        g = Graph(4, [2, 1, 1, 2], [(1, 2, -14), (1, 3, -17), (1, 4, -15),
                                    (2, 3, -4), (2, 4, -19), (3, 4, -17)])
        m = {d: F(-1) for d in g.directed_edges()}
        m.update({(2, 4): F(-19), (1, 4): F(-15), (3, 4): F(0)})
        est = extract_estimate(g, init_messages(g, MessageInit.explicit(m)), NONPERFECT)
        assert est.selected[4] == (2, 1)
        assert 4 not in est.ties

    def test_nonperfect_selected_positive_weight_raises(self):
        # a graph no run accepts in non-perfect mode: edge 1-2 weighs +3 but
        # its messages are negative, so both ends select it
        g = Graph(3, [1, 1, 1], [(1, 2, 3), (2, 3, -1), (1, 3, -2)])
        m = {d: F(1) for d in g.directed_edges()}
        m.update({(1, 2): F(-1), (2, 1): F(-1)})
        with pytest.raises(EngineError, match=r"selected positive-weight edge \(1, 2\)"):
            extract_estimate(g, init_messages(g, MessageInit.explicit(m)), NONPERFECT)
        # perfect mode takes positive weights as they come
        est = extract_estimate(g, init_messages(g, MessageInit.explicit(m)), PERFECT)
        assert (1, 2) in est.edges

    @pytest.mark.parametrize("mode", [PERFECT, NONPERFECT])
    def test_vertices_below_capacity_select_what_they_have(self, mode):
        # an unvalidated graph: vertex 2 (b = 2) has one neighbor and vertex
        # 3 none, so neither has a b_i-th smallest message
        g = Graph(3, [1, 2, 1], [(1, 2, -1)])
        est = extract_estimate(g, init_messages(g), mode)
        assert est.selected == {1: (2,), 2: (1,), 3: ()}
        assert est.edges == frozenset({(1, 2)})
        assert est.ties == frozenset()


class TestRunSync:
    def test_c4_stabilizes_to_optimum(self, c4):
        res = run_sync(c4, PERFECT)
        assert res.converged
        assert res.estimate.edges == frozenset({(1, 2), (3, 4)})
        assert res.stabilized_at <= res.iterations

    def test_budget_policy_runs_exactly(self, c4):
        res = run_sync(c4, PERFECT, stop=StopPolicy.budget(7))
        assert res.iterations == 7 and len(res.history) == 8

    def test_trace_has_every_state(self, c4):
        res = run_sync(c4, PERFECT, stop=StopPolicy.budget(3), keep_trace=True)
        assert [s.t for s in res.trace] == [0, 1, 2, 3]

    def test_oscillation_detected_on_uniform_triangle(self, tri_half):
        res = run_sync(tri_half, NONPERFECT, stop=StopPolicy.budget(30))
        assert not res.converged
        assert res.period == 2

    def test_triangle_distinct_negative_weights_stabilizes(self, tri_neg):
        res = run_sync(tri_neg, NONPERFECT, stop=StopPolicy.budget(30))
        assert res.converged
        assert res.estimate.edges == frozenset({(1, 2)})
        assert res.stabilized_at == 1
        assert 3 in res.estimate.ties  # two exactly-zero incoming messages

    def test_validation_enforced(self):
        g = Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, -1), (1, 3, -2)])
        with pytest.raises(ValidationError):
            run_sync(g, NONPERFECT)

    def test_empty_graph(self):
        g = Graph(0, (), ())
        res = run_sync(g, PERFECT)
        assert res.estimate.edges == frozenset() and res.converged

    def test_a_graph_that_failed_is_checked_again(self):
        g = Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, -1), (1, 3, -2)])
        for _ in range(2):
            with pytest.raises(ValidationError):
                run_sync(g, NONPERFECT)
        run_sync(g, PERFECT, stop=StopPolicy.budget(1))  # valid in perfect mode
        with pytest.raises(ValidationError):
            run_sync(g, NONPERFECT)


def _instances():
    # (fixture, mode) for every fixture valid in the mode: the non-perfect
    # runs need non-positive weights
    names = ["c4", "k4-appendix", "p4", "tri-half", "tri-neg"]
    return [(name, mode) for name in names for mode in (PERFECT, NONPERFECT)
            if not validate(load_fixture(name), mode)]


class TestDefaultInit:
    """A weights init starts from the scaled weights with no message map;
    it must give what the same messages as an explicit map give."""

    @pytest.mark.parametrize("name, mode", _instances())
    @pytest.mark.parametrize("kind, seed", [("sync", None), ("roundrobin", None),
                                            ("random", 3)])
    @pytest.mark.parametrize("stop", [StopPolicy.budget(12), StopPolicy.window(3)])
    def test_weights_init_is_the_explicit_weight_map(self, name, mode, kind, seed, stop):
        work, _, _ = prepare_instance(load_fixture(name), mode)
        weight_map = {(i, j): work.weight(i, j) for (i, j) in work.directed_edges()}
        for keep_trace in (False, True):
            runs = []
            for init in (None, MessageInit.weights(), MessageInit.explicit(weight_map)):
                if kind == "sync":
                    runs.append(run_sync(work, mode, init, stop, keep_trace))
                else:
                    runs.append(run_async(work, make_schedule(work, kind, seed=seed), init,
                                          stop, mode, keep_trace=keep_trace))
            assert runs[0] == runs[1] == runs[2]
            assert (runs[0].trace is None) == (not keep_trace)


def _traced(g, kind, init, steps):
    # a traced run of `steps` steps under the schedule `kind`; "mixed" is an
    # explicit schedule of several edges, none, one and all edges per step
    if kind == "sync":
        return run_sync(g, PERFECT, init, StopPolicy.budget(steps), keep_trace=True)
    if kind == "mixed":
        dirs = g.directed_edges()
        sets = [dirs[:3], [], [dirs[4]], dirs, dirs[5:9:2]] * (steps // 5 + 1)
        sched = make_schedule(g, "explicit", sets=sets)
    else:
        sched = make_schedule(g, kind, seed=3)
    return run_async(g, sched, init, StopPolicy.budget(steps), PERFECT,
                     check_redundancy=False, keep_trace=True)


class TestMessageTrace:
    """A trace holds a run's step log and reads as the list of its states:
    by index in any order, negative indexes and slices, by iteration, and
    compared with any sequence of states."""

    INITS = [None, MessageInit.constant(F(1, 3)),
             MessageInit.explicit({d: F(k - 5, 2) for k, d in
                                   enumerate(load_fixture("k4-appendix").directed_edges())})]

    @pytest.mark.parametrize("kind", ["sync", "roundrobin", "random", "mixed"])
    @pytest.mark.parametrize("init", INITS, ids=["weights", "constant", "explicit"])
    def test_a_trace_reads_as_its_list_of_states(self, kind, init):
        g = load_fixture("k4-appendix")
        trace = _traced(g, kind, init, 17).trace
        states = list(trace)
        assert len(trace) == len(states) == 18
        assert [s.t for s in states] == list(range(18))
        assert all(list(s.m) == list(g.directed_edges()) for s in states)
        assert states[0] == init_messages(g, init)
        # each index read after a later one, and from the end
        assert [trace[t] for t in range(17, -1, -1)] == states[::-1]
        assert [trace[-k] for k in range(1, 19)] == states[::-1]
        for s in (slice(None), slice(1, None), slice(2, 15, 3), slice(None, None, -2),
                  slice(-3, 1, -4), slice(9, 4), slice(-40, 40, 5)):
            assert trace[s] == states[s]
        for t in (18, -19):
            with pytest.raises(IndexError):
                trace[t]
        assert list(zip(trace, trace)) == list(zip(states, states))

    @pytest.mark.parametrize("kind", ["sync", "roundrobin", "random", "mixed"])
    def test_a_trace_equals_any_sequence_of_its_states(self, kind):
        g = load_fixture("k4-appendix")
        trace = _traced(g, kind, None, 12).trace
        states = [trace[t] for t in range(len(trace))]
        assert trace == states and states == trace and trace == tuple(states)
        assert trace == _traced(g, kind, None, 12).trace
        assert trace != states[:-1] and trace != _traced(g, kind, None, 11).trace
        assert trace != _traced(g, kind, self.INITS[1], 12).trace
        assert trace != states[:-1] + [dataclasses.replace(states[-1], t=99)]
        assert trace != None and not trace == None  # noqa: E711
        assert trace != 12

    def test_a_traced_sync_run_keeps_each_rounds_writes(self):
        # 300 rounds on the planted "pb" instance, 199 vertices and 958 edges
        # once reduced, keep 1 916 scaled ints per round; a dict of 1 916
        # Fractions per round takes over twice the bound
        import tracemalloc
        from bpmatch import parse_graph, reduce_trivial
        from test_scale import planted_instance
        mode, text, _, _ = planted_instance("pb", seed=1)
        g = reduce_trivial(parse_graph(text)).graph
        tracemalloc.start()
        try:
            run = run_sync(g, mode, None, StopPolicy.budget(300), keep_trace=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m, len(run.trace)) == (199, 958, 301)
        assert peak < 30 * 2 ** 20

    def test_a_traced_round_robin_run_keeps_each_steps_write(self):
        # 20 000 one-edge steps on k4-appendix keep one int each, in one flat
        # list beside the list of their plans; a (plan, values) pair per
        # step takes over the bound, a dict of all 12 messages over six times it
        import tracemalloc
        g = load_fixture("k4-appendix")
        tracemalloc.start()
        try:
            run = run_async(g, make_schedule(g, "roundrobin"), None, StopPolicy.budget(20000),
                            keep_trace=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.trace) == 20001 and peak < 2.5 * 2 ** 20


def _spy_select(monkeypatch, g):
    # the labels of the vertices engine._select ranks, in call order
    from bpmatch import engine
    seen = []
    real = engine._select
    # a run passes each vertex's own neighbor tuple, which names it
    label = {id(g.neighbors(i)): i for i in g.vertices()}

    def counting(nbrs, b, vals, mode):
        seen.append(label[id(nbrs)])
        return real(nbrs, b, vals, mode)

    monkeypatch.setattr(engine, "_select", counting)
    return seen


class TestWork:
    """The run loop recomputes a vertex's selection only when one of its
    incoming messages was updated: once per vertex for the initial state,
    then once per head of an updated edge, where a one-edge step counts as
    an update only when it changed its edge's value.  Counts calls, times
    nothing."""

    @pytest.fixture
    def calls(self, monkeypatch, c4):
        return _spy_select(monkeypatch, c4)

    def test_single_edge_steps_recompute_one_head(self, c4, calls):
        # every one-edge step on c4 changes its edge's value
        from bpmatch import make_schedule, run_async
        steps = 37
        res = run_async(c4, make_schedule(c4, "roundrobin"), stop=StopPolicy.budget(steps))
        assert res.iterations == steps
        assert len(calls) == c4.n + steps

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_random_single_edge_steps_recompute_one_head(self, c4, calls, seed):
        from bpmatch import make_schedule, run_async
        steps = 53
        res = run_async(c4, make_schedule(c4, "random", seed=seed), stop=StopPolicy.budget(steps))
        assert res.iterations == res.computed == steps
        assert len(calls) == c4.n + steps

    @pytest.mark.parametrize("keep_trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("kind, seed", [("roundrobin", None), ("random", 3), ("random", 8)])
    def test_a_one_edge_step_reranks_its_head_only_when_its_message_changed(
            self, k4, monkeypatch, kind, seed, keep_trace):
        # on k4-appendix 9 of the first 60 round-robin steps and 21 of the
        # first 60 random ones (seed 3) write the value their edge holds
        steps = 60
        states = list(run_async(k4, make_schedule(k4, kind, seed=seed), None,
                                StopPolicy.budget(steps), keep_trace=True).trace)
        heads = [j for s, t in zip(states, states[1:])
                 for (i, j), v in t.m.items() if s.m[(i, j)] != v]
        assert steps - len(heads) >= 9
        calls = _spy_select(monkeypatch, k4)
        res = run_async(k4, make_schedule(k4, kind, seed=seed), None, StopPolicy.budget(steps),
                        keep_trace=keep_trace)
        assert res.iterations == res.computed == steps
        assert calls == list(k4.vertices()) + heads

    def test_mixed_steps_recompute_each_distinct_head_once(self, c4, calls):
        from bpmatch import make_schedule, run_async
        # steps of several edges, listed out of order, some sharing a head
        sets = [[(3, 2), (1, 2), (2, 3)], [(4, 1), (3, 4), (2, 1), (1, 4)],
                [(4, 3), (1, 2), (2, 3)]]
        run_async(c4, make_schedule(c4, "explicit", sets=sets), stop=StopPolicy.budget(3),
                  check_redundancy=False)
        assert calls == [1, 2, 3, 4] + [2, 3] + [1, 4] + [2, 3]

    def test_sync_rounds_recompute_every_vertex(self, c4, calls):
        rounds = 9
        run_sync(c4, PERFECT, stop=StopPolicy.budget(rounds))
        assert len(calls) == c4.n * (rounds + 1)


class TestKernelPaths:
    """The run loop updates a one-edge step itself, as one value; _round
    computes only empty steps and steps of two or more edges.  Records the
    size of each update set _round computes, times nothing."""

    @pytest.fixture
    def kernel(self, monkeypatch):
        from bpmatch import engine
        seen = []
        real = engine._round

        def counting(msgs, mode, plan, *args):
            seen.append(len(plan.ids))
            return real(msgs, mode, plan, *args)

        monkeypatch.setattr(engine, "_round", counting)
        return seen

    @pytest.mark.parametrize("kind, seed", [("roundrobin", None), ("random", 5)])
    @pytest.mark.parametrize("name, mode", [("k4-appendix", PERFECT), ("tri-neg", NONPERFECT)])
    def test_single_edge_schedules_never_call_round(self, name, mode, kind, seed, kernel):
        g = load_fixture(name)
        for stop in (StopPolicy.budget(300), StopPolicy.coverage(0)):
            res = run_async(g, make_schedule(g, kind, seed=seed), stop=stop, mode=mode)
            assert res.computed > 0 and kernel == []

    @pytest.mark.parametrize("kind, seed", [("roundrobin", None), ("random", 5), ("random", 9)])
    def test_single_edge_schedules_compile_each_edge_once(self, kind, seed, kernel, monkeypatch):
        # one _Plan, inside one one-edge record, per distinct directed edge
        from bpmatch import engine
        g = load_fixture("k4-appendix")
        compiled = []
        real = engine._Plan

        def spy(ids, *args):
            compiled.append(tuple(ids))
            return real(ids, *args)

        monkeypatch.setattr(engine, "_Plan", spy)
        for keep_trace in (False, True):
            compiled.clear()
            res = run_async(g, make_schedule(g, kind, seed=seed), stop=StopPolicy.budget(500),
                            keep_trace=keep_trace)
            assert res.computed > 0 and kernel == []
            assert sorted(compiled) == [(k,) for k in range(len(g.directed_edges()))]

    @pytest.mark.parametrize("name, mode", [("k4-appendix", PERFECT), ("tri-half", NONPERFECT)])
    def test_sync_runs_call_round_once_per_computed_round(self, name, mode, kernel):
        g = load_fixture(name)
        stop = StopPolicy.budget(300)
        res = run_sync(g, mode, stop=stop)
        assert res.computed > 0 and kernel == [2 * g.m] * res.computed
        kernel.clear()
        res = run_async(g, make_schedule(g, "sync"), stop=stop, mode=mode)
        assert res.computed > 0 and kernel == [2 * g.m] * res.computed

    def test_mixed_steps_call_round_for_empty_and_multi_edge_steps(self, k4, kernel):
        # one-edge, empty, all-edges and two-edge steps, in turn
        every = k4.directed_edges()
        sets = [[(3, 1)], [], every, [(1, 2), (2, 1)], [(2, 4)]] * 4
        res = run_async(k4, make_schedule(k4, "explicit", sets=sets),
                        stop=StopPolicy.budget(len(sets)), check_redundancy=False)
        assert res.computed == len(sets)
        assert kernel == [0, len(every), 2] * 4


# messages reach a fixed point: the messages after round 3 equal those after
# round 2
FIXED = Graph(3, [1, 2, 1], [(1, 2, -3), (1, 3, -21), (2, 3, -22)])
# the messages cycle with period 2 from round 8 on, under a constant estimate
STEADY = Graph(6, [1, 2, 1, 1, 1, 1],
               [(1, 2, -10), (1, 3, -4), (1, 4, -21), (1, 5, -29), (1, 6, -19), (2, 3, -18),
                (2, 4, -27), (2, 5, -15), (2, 6, -15), (3, 4, -1), (3, 5, -24), (3, 6, -24),
                (4, 5, -26), (4, 6, -22), (5, 6, -7)])
# perfect mode, messages cycling with period 4 from round 4 on; the estimate
# changes at rounds 5, 6, 9, 10, ...: cyclic gaps of 1 and 3 rounds
GAPS = Graph(4, [1, 1, 1, 1], [(1, 2, 16), (1, 3, 4), (1, 4, 9), (2, 3, 14), (2, 4, 30),
                               (3, 4, 7)])

# Translations, m(t + 4) = m(t) + d_(t mod 4), found at round T and ended
# by a flip in period k after T.  On a 4-cycle with b = 1 each message is
# its weight less the one other message into its tail, so the messages
# drift for ever and only the rankings, and so the estimate, flip.  TWICE:
# from T = 8 vertex 2 ranks m(3 -> 2) = -8 + k before m(1 -> 2) = 1 - k at
# phase 3, until k = 5; a second translation follows from round 32
TWICE = (Graph(4, [1, 1, 1, 1], [(1, 2, 0), (1, 4, 0), (2, 3, -1), (3, 4, -2)]),
         MessageInit.explicit({(1, 2): -11, (1, 4): 3, (2, 1): 11, (2, 3): -5, (3, 2): 9,
                               (3, 4): -1, (4, 1): -12, (4, 3): -11}))
# from T = 8 vertex 3 ranks m(4 -> 3) = -8 + k before m(2 -> 3) = -k at
# phase 3; they tie at k = 4, where the smaller label 2 goes first
TIE = (Graph(4, [1, 1, 1, 1], [(1, 2, -1), (1, 4, -1), (2, 3, 0), (3, 4, 1)]),
       MessageInit.explicit({(1, 2): -12, (1, 4): -12, (2, 1): -10, (2, 3): 9, (3, 2): 11,
                             (3, 4): -2, (4, 1): 5, (4, 3): -9}))
# the chord 1-3 makes d differ from phase to phase
CHORD = (Graph(4, [1, 1, 1, 1], [(1, 2, -1), (1, 3, 2), (1, 4, -3), (2, 3, 1), (3, 4, 1)]),
         MessageInit.explicit({(1, 2): 17, (1, 3): -11, (1, 4): 7, (2, 1): 20, (2, 3): -22,
                               (3, 1): 20, (3, 2): 21, (3, 4): -20, (4, 1): -9, (4, 3): 10}))
# non-perfect: from T = 12, m(4 -> 1) = -7 + k at phase 2, negative until
# k = 7; the messages then reach a fixed point
RISE = (Graph(4, [1, 2, 1, 2], [(1, 2, -11), (1, 3, -3), (1, 4, -11), (2, 3, -26), (2, 4, -18),
                                (3, 4, -27)]), None)
# a path: a round-robin schedule updates each directed edge once, then
# takes empty steps; its first two steps leave the messages as they are,
# and its last two change the estimate
PREFIX = (Graph(3, [1, 1, 1], [(1, 2, -1), (2, 3, -2)]),
          MessageInit.explicit({(1, 2): -1, (2, 1): -1, (2, 3): 7, (3, 2): 5}))


class TestCycleJump:
    """A run without a trace under a repeating schedule (all edges or
    round-robin) skips whole periods of an exact message cycle or of a
    translation; it must give what stepping every update gives.  Each case
    pins the run's stop values, the cycle found and the steps computed,
    which RunResult.computed reports and the `rounds` fixture counts as a
    cross-check."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        # the run loop draws one update set for each step it computes, on
        # either kernel path, and none for the steps a jump skips
        from bpmatch import engine, schedule
        seen = []
        real = engine._run

        def counting(g, mode, init, stop, steps, *args, **kwargs):
            def drawn():
                for updates in steps:
                    seen.append(None)
                    yield updates
            return real(g, mode, init, stop, drawn(), *args, **kwargs)

        monkeypatch.setattr(engine, "_run", counting)
        monkeypatch.setattr(schedule, "_run", counting)
        return seen

    @pytest.mark.parametrize("g, mode, stop, want", [
        # (iterations, stabilized_at, converged, period, cycle, rounds computed)
        (FIXED, NONPERFECT, StopPolicy.window(), (4, 1, True, None, (2, 1), 3)),
        (FIXED, NONPERFECT, StopPolicy.window(None, 3), (3, 1, False, 1, (2, 1), 3)),
        (FIXED, NONPERFECT, StopPolicy.budget(9), (9, 1, True, None, (2, 1), 3)),
        # constant estimate over the cycle: one period skipped, one round left
        (STEADY, NONPERFECT, StopPolicy.window(), (13, 7, True, None, (8, 2), 11)),
        # the estimate alternates every round: only the limit stops the run
        ("tri-half", NONPERFECT, StopPolicy.window(), (100, 100, False, 2, (2, 2), 4)),
        ("tri-half", NONPERFECT, StopPolicy.window(None, 9), (9, 9, False, 2, (2, 2), 5)),
        ("tri-half", NONPERFECT, StopPolicy.budget(7), (7, 7, False, 2, (2, 2), 5)),
        # the longest gap equals the window: the window never holds
        (GAPS, PERFECT, StopPolicy.window(3, 60), (60, 58, False, 1, (4, 4), 8)),
        (GAPS, PERFECT, StopPolicy.window(), (100, 98, False, 1, (4, 4), 8)),
        # the longest gap exceeds the window: no jump
        (GAPS, PERFECT, StopPolicy.window(2, 60), (8, 6, True, None, (4, 4), 8)),
    ])
    def test_jump_equals_stepping(self, g, mode, stop, want, rounds):
        self._check(g, None, mode, stop, want, rounds)

    # (graph, init), mode, stop and (iterations, stabilized_at, converged,
    # period, cycle, rounds computed)
    DRIFTS = [
        # a translation from round 8 that holds to the budget
        (("c4", None), PERFECT, StopPolicy.budget(400), (400, 0, True, None, (8, 4), 16)),
        (("k4-appendix", None), PERFECT, StopPolicy.budget(100),
         (100, 1, True, None, (8, 4), 16)),
        # a translation ended by a flip, then another
        (TWICE, PERFECT, StopPolicy.budget(45), (45, 45, False, 4, (32, 4), 33)),
        # messages of different slopes tie, and the label decides
        (TIE, PERFECT, StopPolicy.budget(25), (25, 25, False, 4, (8, 4), 21)),
        (CHORD, PERFECT, StopPolicy.budget(112), (112, 40, True, None, (52, 4), 56)),
        # a message crossing 0 ends it, and an exact cycle follows
        (RISE, NONPERFECT, StopPolicy.budget(280), (280, 2, True, None, (53, 1), 38)),
    ]

    @pytest.mark.parametrize("start, mode, stop, want", DRIFTS)
    def test_translation_jump_equals_stepping(self, start, mode, stop, want, rounds):
        self._check(*start, mode, stop, want, rounds)

    # (graph, init), mode, a budget of schedule periods and (iterations,
    # stabilized_at, converged, period, cycle, steps computed) of a
    # round-robin run
    ROUNDROBIN = [
        (("c4", None), PERFECT, 400, (3200, 0, True, None, (56, 24), 104)),
        (("k4-appendix", None), PERFECT, 100, (1200, 6, True, None, (72, 24), 120)),
        (TWICE, PERFECT, 45, (360, 137, True, None, (160, 24), 216)),
        (TIE, PERFECT, 25, (200, 107, True, None, None, 200)),
        (CHORD, PERFECT, 112, (1120, 55, True, None, (190, 30), 250)),
        (RISE, NONPERFECT, 280, (3360, 108, True, None, (3348, 12), 516)),
        # the cycle is sought from the end of the prefix on: sought from
        # step 0, no-op step 2 would close a cycle, and the jump would skip
        # steps 3 and 4
        (PREFIX, NONPERFECT, 10, (10, 3, True, None, (5, 1), 6)),
    ]

    @pytest.mark.parametrize("start, mode, periods, want", ROUNDROBIN)
    def test_roundrobin_jump_equals_stepping(self, start, mode, periods, want, rounds):
        g, init = start
        if isinstance(g, str):
            g = load_fixture(g)
        sched = make_schedule(g, "roundrobin")
        stop = StopPolicy.budget(periods * sched.repeats[1])
        run = run_async(g, sched, init, stop, mode)
        assert run.computed == len(rounds)
        stepped = run_async(g, sched, init, stop, mode, keep_trace=True)
        for name in ("estimate", "iterations", "stabilized_at", "stable_for", "converged",
                     "period", "history", "coverage"):
            assert getattr(run, name) == getattr(stepped, name), name
        assert (run.iterations, run.stabilized_at, run.converged, run.period, run.cycle,
                run.computed) == want

    @pytest.mark.parametrize("kind", ["sync", "roundrobin"])
    @pytest.mark.parametrize("start, mode, stop, want", DRIFTS)
    def test_a_translation_lasts_as_the_stepped_orders(self, start, mode, stop, want, kind,
                                                        monkeypatch):
        # _lasting, on each translation a run finds, against the orders of
        # the stepped run: the last period in which every step ranks each
        # vertex's incoming messages (and, in non-perfect mode, sees their
        # signs) as its phase did in the first.  A round-robin run gets a
        # schedule period for each round of the budget
        from bpmatch import engine
        g, init = start
        if isinstance(g, str):
            g = load_fixture(g)
        sched = make_schedule(g, kind)
        s, length = sched.repeats
        found = []
        real = engine._lasting

        def spy(log, middle, *args):
            found.append((log.start, len(log.plans) // 2, real(log, middle, *args)))
            return found[-1][2]

        monkeypatch.setattr(engine, "_lasting", spy)
        steps = stop.iterations * length
        run_async(g, sched, init, StopPolicy.budget(steps), mode)
        assert found
        net = engine._Net(g, (init or MessageInit.weights()).build(g).values())
        # stepped past the stop, so that the flips just beyond it show
        trace = run_async(g, sched, init, StopPolicy.budget(steps + 40 * length), mode,
                          keep_trace=True).trace
        msgs = [net.up([state.m[d] for d in net.dirs]) for state in trace]

        def orders(m):
            # each vertex's neighbors by (incoming message, label), and in
            # non-perfect mode which of those messages are negative
            return [([j for _, j in sorted(zip(net.gin[i](m), g.neighbors(i)))],
                     mode != PERFECT and [v < 0 for v in net.gin[i](m)])
                    for i in g.vertices()]

        for first, p, lasting in found:
            # the translation starts at a period boundary
            at = next(t for t in range(s, len(msgs), length) if msgs[t] == first)
            seen = [orders(m) for m in msgs[at:]]
            flip = next((r for r in range(p, len(seen)) if seen[r] != seen[r % p]), None)
            if flip is None:
                assert lasting is None
            elif flip >= 3 * p:
                # the orders hold through period flip // p - 1, two of them seen
                assert lasting == flip // p - 3
            else:
                assert lasting < 0

    @staticmethod
    def _check(g, init, mode, stop, want, rounds):
        if isinstance(g, str):
            g = load_fixture(g)
        sync = run_sync(g, mode, init, stop)
        assert sync.computed == len(rounds)
        asyn = run_async(g, make_schedule(g, "sync"), init, stop, mode)
        for name in ("estimate", "iterations", "stabilized_at", "stable_for", "converged",
                     "period", "history"):
            assert getattr(sync, name) == getattr(asyn, name), name
        assert (sync.iterations, sync.stabilized_at, sync.converged, sync.period, sync.cycle,
                sync.computed) == want
        # the all-edges schedule repeats with period 1, so run_async seeks
        # and jumps the cycles run_sync does
        assert (asyn.cycle, asyn.computed) == (sync.cycle, sync.computed)

    @pytest.mark.parametrize("mode, seed, want", [
        # (runs, iterations, rounds computed, runs ending on a translation)
        (PERFECT, 101, (210, 12997, 5197, 120)),
        (NONPERFECT, 202, (140, 19287, 1695, 0)),
    ])
    def test_the_certified_runs_of_a_sweep_compute(self, mode, seed, want, monkeypatch):
        # the work of the acceptance sweeps' certified runs: stepping every
        # round they compute the iterations, and jumping exact cycles alone
        # 12 997 and 1 910 rounds
        from bpmatch import harness
        runs = []

        def recording(g, mode, init=None, stop=None, keep_trace=False):
            runs.append((g, init, run_sync(g, mode, init, stop, keep_trace)))
            return runs[-1][2]

        monkeypatch.setattr(harness, "run_sync", recording)
        harness.sweep(mode, instances=220, n_max=6, seed=seed)
        translations = 0
        for g, init, res in runs:
            if res.cycle is not None and res.computed < res.iterations:
                mark_t, p = res.cycle
                trace = run_sync(g, mode, init, StopPolicy.budget(mark_t + p),
                                 keep_trace=True).trace
                translations += trace[mark_t + p].m != trace[mark_t].m
        assert (len(runs), sum(res.iterations for _, _, res in runs),
                sum(res.computed for _, _, res in runs), translations) == want

    def test_the_certified_async_runs_compute(self):
        # the work of the acceptance suite's certified round-robin runs:
        # (runs, iterations, steps computed, runs ending on a translation);
        # stepping every update they compute the iterations
        from bpmatch import coverage_threshold, solve_relaxation
        runs = []
        for g in tight_instances():
            _, cert = solve_relaxation(g, PERFECT)
            sched = make_schedule(g, "roundrobin")
            stop = StopPolicy.coverage(coverage_threshold(g, cert))
            runs.append((g, sched, run_async(g, sched, stop=stop)))
        translations = 0
        for g, sched, res in runs:
            if res.cycle is not None and res.computed < res.iterations:
                mark_t, p = res.cycle
                trace = run_async(g, sched, stop=StopPolicy.budget(mark_t + p),
                                  keep_trace=True).trace
                translations += trace[mark_t + p].m != trace[mark_t].m
        assert (len(runs), sum(res.iterations for _, _, res in runs),
                sum(res.computed for _, _, res in runs), translations) == (21, 15660, 8156, 13)

    def test_drifting_draws_jump_as_they_step(self, monkeypatch):
        # perfect-mode draws prone to translations that a flip ends: a
        # 4-cycle, a 4-cycle with a chord and K4, b = 1, weights in -3..3
        # and explicit inits in -30..30, run for 80 schedule periods under
        # both repeating schedules.  Each jumped run gives what its traced
        # run gives, and the counts of runs in which a flip cut a jump short
        # (_lasting bounding it below _periods) are pinned
        from bpmatch import engine
        from bpmatch.engine import RunResult
        shapes = [[(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)],
                  [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
        calls = []
        real_lasting, real_periods = engine._lasting, engine._periods

        def lasting(*args):
            calls.append(("lasting", real_lasting(*args)))
            return calls[-1][1]

        def periods(*args):
            calls.append(("periods", real_periods(*args)))
            return calls[-1][1]

        monkeypatch.setattr(engine, "_lasting", lasting)
        monkeypatch.setattr(engine, "_periods", periods)
        rng = random.Random(2024)
        cut = {"sync": 0, "roundrobin": 0}
        for n in range(240):
            g = Graph(4, [1] * 4, [(i, j, rng.randint(-3, 3)) for i, j in shapes[n % 3]])
            init = MessageInit.explicit({d: rng.randint(-30, 30) for d in g.directed_edges()})
            for kind in cut:
                sched = make_schedule(g, kind)
                stop = StopPolicy.budget(80 * sched.repeats[1])
                calls.clear()
                run = run_async(g, sched, init, stop)
                cut[kind] += any(a == "lasting" and x is not None and 0 <= x < y
                                 for (a, x), (_, y) in zip(calls, calls[1:]))
                stepped = run_async(g, sched, init, stop, keep_trace=True)
                for f in dataclasses.fields(RunResult):
                    if f.name not in ("trace", "cycle", "computed"):
                        assert getattr(run, f.name) == getattr(stepped, f.name), (n, kind, f.name)
        assert cut == {"sync": 33, "roundrobin": 14}

    def test_a_long_period_records_only_what_each_step_wrote(self, monkeypatch):
        # a round-robin run on a planted bipartite graph of 200 vertices and
        # 1 586 directed edges finds a translation of 3 schedule periods at
        # period 19 and records two of them: 9 516 steps, each keeping the
        # one value it wrote, not a copy of every message
        import tracemalloc
        from bpmatch import engine, parse_graph
        from test_scale import planted_instance
        mode, text, _, _ = planted_instance("p1", seed=1)
        g = parse_graph(text)
        sched = make_schedule(g, "roundrobin")
        assert sched.repeats == (0, 1586)
        recorded = []
        real = engine._lasting

        def spy(log, middle, *args):
            recorded.append(len(log.plans))
            return real(log, middle, *args)

        monkeypatch.setattr(engine, "_lasting", spy)
        tracemalloc.start()
        try:
            run = run_async(g, sched, None, StopPolicy.budget(25 * 1586), mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recorded == [2 * 3 * 1586] and run.cycle == (19 * 1586, 3 * 1586)
        assert peak < 20 * 2 ** 20

    def test_a_trace_steps_every_round(self, rounds):
        g = load_fixture("tri-half")
        res = run_sync(g, NONPERFECT, stop=StopPolicy.budget(30), keep_trace=True)
        assert res.cycle is None and len(rounds) == 30 == res.computed == len(res.trace) - 1
