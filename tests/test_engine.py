import random
from fractions import Fraction as F

import pytest

from bpmatch import (Graph, PERFECT, NONPERFECT, MessageInit, StopPolicy,
                     EngineError, init_messages, extract_estimate, run_sync,
                     TrivialVertexError, ValidationError)
from conftest import async_step, sync_rounds


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


class TestWork:
    """The run loop recomputes a vertex's selection only when one of its
    incoming messages was updated: once per vertex for the initial state,
    then once per head of an updated edge.  Counts calls, times nothing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from bpmatch import engine
        seen = []
        real = engine._select

        def counting(g, i, vals, mode):
            seen.append(i)
            return real(g, i, vals, mode)

        monkeypatch.setattr(engine, "_select", counting)
        return seen

    def test_single_edge_steps_recompute_one_head(self, c4, calls):
        from bpmatch import make_schedule, run_async
        steps = 37
        res = run_async(c4, make_schedule(c4, "roundrobin"), stop=StopPolicy.budget(steps))
        assert res.iterations == steps
        assert len(calls) == c4.n + steps

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
