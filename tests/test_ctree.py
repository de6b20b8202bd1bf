import random
import sys
from fractions import Fraction as F

import pytest

from bpmatch import (Graph, PERFECT, MessageInit, StopPolicy, TreeError, TreeSizeError,
                     DegenerateTreeError, GCTBuilder, build_tree,
                     tree_bmatching_dp, tree_depth, tree_size,
                     dump_tree, make_schedule, coverage, run_sync,
                     init_messages)
from bpmatch.ctree import TreeNode
from bpmatch.harness import tree_verify, random_instance
from conftest import corrupt_message, sync_rounds


class TestBuildBalanced:
    def test_level_zero_children_are_neighbors(self, c4):
        tree = build_tree(c4, 1, 0)
        assert tree.root.label == 1
        assert [c.label for c in tree.root.children] == [2, 4]
        assert tree_depth(tree) == 1

    def test_level_one_excludes_parent(self, c4):
        tree = build_tree(c4, 1, 1)
        node2 = tree.root.children[0]
        assert node2.label == 2 and [c.label for c in node2.children] == [3]

    def test_edge_weights_copied(self, c4):
        tree = build_tree(c4, 1, 1)
        node2 = tree.root.children[0]
        assert node2.edge_weight == 1 and node2.children[0].edge_weight == 2

    def test_uniform_leaf_depth(self, k4):
        for t in range(4):
            tree = build_tree(k4, 2, t)
            depths = set()

            def walk(node, d):
                if not node.children:
                    depths.add(d)
                for c in node.children:
                    walk(c, d + 1)
            walk(tree.root, 0)
            assert depths == {t + 1}

    def test_tree_graph_unrolls_to_itself(self):
        # on an acyclic graph the unrolled tree just reproduces the graph
        g = Graph(4, [1, 2, 1, 1], [(1, 2, 3), (2, 3, 4), (2, 4, 5)])
        tree = build_tree(g, 1, 5)
        assert tree_size(tree) == 4
        labels = sorted(leaf.label for leaf in _leaves(tree.root))
        assert labels == [3, 4]

    def test_size_cap(self, k4, monkeypatch):
        from bpmatch import ctree
        monkeypatch.setattr(ctree, "DEFAULT_NODE_CAP", 100)
        with pytest.raises(TreeSizeError):
            build_tree(k4, 1, 10)

    def test_deep_tree_is_walkable_without_recursion(self, c4):
        # 2000 levels, twice the default recursion limit: built, sized,
        # solved and dumped without using a frame per level
        t = 2000
        assert sys.getrecursionlimit() <= 1000
        tree = build_tree(c4, 1, t)
        assert tree_size(tree) == 2 * t + 3 and tree_depth(tree) == t + 1
        assert tree_bmatching_dp(tree).total is not None
        assert dump_tree(tree).count("\n") == 2 * t + 3

    def test_nodes_compare_by_identity(self, c4):
        # no generated __eq__/__hash__ walking 2000 levels of children
        a = build_tree(c4, 1, 2000).root
        b = build_tree(c4, 1, 2000).root
        assert a != b
        assert a == a and hash(a) == hash(a)
        assert len({a, b, a}) == 2


def _leaves(node):
    if not node.children:
        return [node]
    out = []
    for c in node.children:
        out.extend(_leaves(c))
    return out


class TestBuildGct:
    def test_time_zero_branch_is_single_edge(self, c4):
        sched = make_schedule(c4, "roundrobin")
        tree = GCTBuilder(c4, sched, 0).branch((1, 2), 0)
        assert tree.root.label == 2
        assert [c.label for c in tree.root.children] == [1]
        assert tree.root.children[0].children == ()
        assert tree_depth(tree) == 1

    def test_full_sync_branch_equals_balanced_branch(self, c4):
        sched = make_schedule(c4, "sync")
        for t in range(4):
            branch = GCTBuilder(c4, sched, t).branch((2, 1), t)
            balanced = build_tree(c4, 1, t)
            bal_branch = next(c for c in balanced.root.children if c.label == 2)
            assert _shape(branch.root.children[0]) == _shape(bal_branch)

    def test_never_updated_edge_stays_single(self, c4):
        sets = [{(3, 4)}] * 6
        sched = make_schedule(c4, "explicit", sets=sets)
        tree = GCTBuilder(c4, sched, 6).branch((1, 2), 6)
        assert tree_size(tree) == 2

    def test_empty_schedule_gct_is_star(self, c4):
        sched = make_schedule(c4, "explicit", sets=[set()] * 3)
        tree = GCTBuilder(c4, sched, 3).gct(1, 3)
        assert tree_depth(tree) == 1
        assert [c.label for c in tree.root.children] == [2, 4]

    def test_full_sync_gct_equals_balanced(self, c4):
        sched = make_schedule(c4, "sync")
        for t in range(4):
            assert _shape(GCTBuilder(c4, sched, t).gct(1, t).root) == _shape(build_tree(c4, 1, t).root)

    def test_round_robin_depth_grows_with_cycles(self, c4):
        sched = make_schedule(c4, "roundrobin")
        cycle = len(c4.directed_edges())
        depths = [tree_depth(GCTBuilder(c4, sched, k * cycle).gct(1, k * cycle)) for k in range(4)]
        assert depths == sorted(depths)
        for k in range(4):
            u = coverage(c4, sched, k * cycle).u
            assert depths[k] >= u


def _shape(node):
    return (node.label, node.edge_weight, tuple(_shape(c) for c in node.children))


class TestTreeDP:
    def test_single_edge_branch_base_case(self, c4):
        sched = make_schedule(c4, "roundrobin")
        tree = GCTBuilder(c4, sched, 0).branch((1, 2), 0)
        dp = tree_bmatching_dp(tree)
        assert dp.branches[1].w_plus == 1 and dp.branches[1].w_minus == 0
        assert dp.branches[1].n == 1

    def test_c4_level_one_matches_message(self, c4):
        tree = build_tree(c4, 1, 1)
        dp = tree_bmatching_dp(tree)
        assert dp.branches[2].n == -1
        s1 = sync_rounds(c4, init_messages(c4))
        assert s1.value(2, 1) == -1

    def test_zero_weights_tie_everywhere(self):
        g = Graph(4, [1] * 4, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 0)])
        dp = tree_bmatching_dp(build_tree(g, 1, 2))
        assert all(v.w_plus == 0 and v.w_minus == 0 for v in dp.branches.values())
        assert 1 in dp.ties

    def test_ties_below_the_root_children_are_collected(self):
        # the only non-strict threshold is at the label-3 nodes, two levels
        # down; a memo shared across times still reports it at every t
        g = Graph(5, [1] * 5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0)])
        builder, memo = GCTBuilder(g, make_schedule(g, "sync"), 4), {}
        for t, want in enumerate([set(), set(), {3}, {3}, {3}]):
            assert tree_bmatching_dp(build_tree(g, 1, t)).ties == want
            assert tree_bmatching_dp(builder.gct(1, t), None, memo).ties == want

    def test_root_selection_size(self, k4):
        dp = tree_bmatching_dp(build_tree(k4, 1, 2))
        assert dp.selection is not None and len(dp.selection) == k4.cap(1)

    def test_degenerate_tree_rejected(self):
        g = Graph(3, [1, 2, 1], [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        # hand-build a branch whose internal node (capacity 2) has 1 child
        from bpmatch.ctree import TreeNode, LabeledTree
        leaf = TreeNode(3, F(1), ())
        inner = TreeNode(2, F(1), (leaf,))
        tree = LabeledTree(TreeNode(1, None, (inner,)), g)
        with pytest.raises(DegenerateTreeError):
            tree_bmatching_dp(tree)

    def test_edge_value_off_the_scale_rejected(self, c4):
        # the DP's scale covers the graph's weights and the init values only
        from bpmatch.ctree import TreeNode, LabeledTree
        leaves = (TreeNode(2, F(1, 3), ()), TreeNode(4, F(3), ()))
        tree = LabeledTree(TreeNode(1, None, leaves), c4)
        with pytest.raises(TreeError, match="1/3 is neither a graph weight nor an init value"):
            tree_bmatching_dp(tree)
        assert tree_bmatching_dp(tree, {(2, 1): F(1), (4, 1): F(1, 3)}).total == F(1, 3)

    def test_dump_format(self, c4):
        text = dump_tree(build_tree(c4, 1, 0))
        lines = text.strip().splitlines()
        assert lines[0] == "0 label=1"
        assert lines[1].strip().startswith("1 label=2 w=")


class TestEquivalence:
    def test_balanced_matches_engine_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(8):
            g = random_instance(rng, n_max=6, mode=PERFECT)
            rows, ok, first = tree_verify(g, 4)
            assert ok, first

    def test_gct_matches_engine_under_schedules(self):
        rng = random.Random(22)
        for _ in range(5):
            g = random_instance(rng, n_max=5, mode=PERFECT)
            for kind, seed, tm in (("sync", None, 3), ("roundrobin", None, 8), ("random", 7, 8)):
                rows, ok, first = tree_verify(g, tm, kind, seed)
                assert ok, (kind, first)

    def test_branch_depth_at_least_update_count(self, c4):
        for kind, seed in (("roundrobin", None), ("random", 13)):
            sched = make_schedule(c4, kind, seed=seed)
            for t in (0, 5, 9, 17, 24):
                u = coverage(c4, sched, t).u
                for (i, j) in c4.directed_edges():
                    d = tree_depth(GCTBuilder(c4, sched, t).branch((i, j), t))
                    assert d >= u

    def test_arbitrary_init_equals_dp_with_leaf_values(self, c4):
        rng = random.Random(23)
        init = MessageInit.explicit({d: F(rng.randint(-6, 6)) for d in c4.directed_edges()})
        imap = init.build(c4)
        run = run_sync(c4, PERFECT, init, StopPolicy.budget(3), keep_trace=True)
        for t in range(4):
            for root in c4.vertices():
                dp = tree_bmatching_dp(build_tree(c4, root, t), imap)
                for r in c4.neighbors(root):
                    assert dp.branches[r].n == run.trace[t].value(r, root)

    def test_perturbing_one_leaf_init_changes_only_that_base(self, c4):
        base = {d: c4.weight(*d) for d in c4.directed_edges()}
        tweaked = dict(base)
        tweaked[(3, 2)] = F(100)
        tree = build_tree(c4, 1, 1)  # leaf edge (3,2) sits at the bottom layer
        plain = tree_bmatching_dp(tree, base)
        bent = tree_bmatching_dp(tree, tweaked)
        assert plain.branches[2].n != bent.branches[2].n
        assert plain.branches[4].n == bent.branches[4].n


class TestVerifyFails:
    """tree_verify reports the first (root, t) where the engine and the tree
    DP disagree: one corrupted message fails the rows of its head from its
    step until the edge is written again, one corrupted root selection the
    rows of that root until one of its in-edges changes again; a tree one
    level short of u(t) fails exactly that row."""

    @pytest.mark.parametrize("delta", [F(1), F(1, 7)])
    def test_a_wrong_message_fails_its_row(self, c4, monkeypatch, delta):
        # F(1, 7) leaves a denominator the DP's scale does not fit; the
        # round-robin schedule writes 4 -> 1 at steps 7, 15, ..., so the wrong
        # value written at step 3 lasts through t_max = 5
        from bpmatch import harness
        real = harness.run_async

        def corrupted(*args, **kwargs):
            run = real(*args, **kwargs)
            corrupt_message(run.trace, 3, (4, 1), delta)
            return run

        monkeypatch.setattr(harness, "run_async", corrupted)
        rows, ok, first = tree_verify(c4, 5, "roundrobin")
        assert not ok
        assert (first["root"], first["t"], first["messages"]) == (1, 3, False)
        assert [(r["root"], r["t"]) for r in rows if not r["messages"]] == [(1, 3), (1, 4), (1, 5)]

    def test_a_wrong_message_no_step_wrote_fails_its_row(self, c4, monkeypatch):
        # round-robin step 4 writes 2 -> 3 only, so the wrong value on 4 -> 1,
        # one more write of step 4, is what marks root 1 for a check there;
        # 4 -> 1 is written again at step 7
        from bpmatch import harness
        real = harness.run_async

        def corrupted(*args, **kwargs):
            run = real(*args, **kwargs)
            corrupt_message(run.trace, 4, (4, 1), F(1))
            return run

        monkeypatch.setattr(harness, "run_async", corrupted)
        rows, ok, first = tree_verify(c4, 8, "roundrobin")
        assert not ok
        assert (first["root"], first["t"], first["messages"]) == (1, 4, False)
        assert [(r["root"], r["t"]) for r in rows if not r["messages"]] == [(1, 4), (1, 5), (1, 6)]

    def test_a_wrong_selection_fails_its_row(self, c4, monkeypatch):
        # tree_verify asks _select at a root at t = 0 and then only at the
        # steps that change one of its in-edges: at root 2, the round-robin
        # schedule writes 1 -> 2 at t = 1 and 3 -> 2 at t = 5, so its second
        # call is t = 1, where it now picks the other edge, and the wrong
        # flag lasts until t = 5, as a wrong message lasts until rewritten
        from bpmatch import harness
        real, calls = harness._select, []

        def corrupted(nbrs, b, vals, mode):
            chosen, *rest = real(nbrs, b, vals, mode)
            if nbrs is c4.neighbors(2):  # root 2, by its own neighbor tuple
                calls.append(2)
                if len(calls) == 2:
                    chosen = tuple(j for j in nbrs if j not in chosen)
            return (chosen, *rest)

        monkeypatch.setattr(harness, "_select", corrupted)
        rows, ok, first = tree_verify(c4, 5, "roundrobin")
        assert not ok
        assert first == {"root": 2, "t": 1, "messages": True, "selection": False,
                         "depth": True}
        assert [(r["root"], r["t"]) for r in rows if not r["selection"]] == [
            (2, 1), (2, 2), (2, 3), (2, 4)]
        assert len(calls) == 3

    @pytest.mark.parametrize("depth", [1, 0])
    def test_a_tree_short_of_u_fails_its_depth_row(self, c4, monkeypatch, depth):
        # round-robin c4 reaches u = 2 at t = 16, when root 1's shallowest
        # branch is that of (2 -> 1), grown two levels deep at t = 11; at
        # depth 1 root 1's tree is exactly u(16) deep and passes, at depth 0
        # it is one level short and fails there alone
        from bpmatch import harness
        real = harness.GCTBuilder

        def shortened(*args):
            builder = real(*args)
            object.__setattr__(builder.grown[11][(2, 1)], "depth", depth)
            return builder

        monkeypatch.setattr(harness, "GCTBuilder", shortened)
        rows, ok, first = tree_verify(c4, 16, "roundrobin")
        short = [(r["root"], r["t"]) for r in rows if not r["depth"]]
        if depth:
            assert ok and short == []
        else:
            assert first == {"root": 1, "t": 16, "messages": True, "selection": True,
                             "depth": False}
            assert short == [(1, 16)]


class TestWork:
    """tree_verify solves each distinct branch node once, however many
    (root, t) trees share it.  A builder makes 2m leaf nodes and one node
    per update of each step.  Counts the integer pass's node solves, each of
    which scales its node's edge value once; times nothing."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from bpmatch import ctree
        seen = []
        real = ctree._up

        def counting(v, scale):
            seen.append(v)
            return real(v, scale)

        monkeypatch.setattr(ctree, "_up", counting)
        return seen

    @pytest.mark.parametrize("kind, seed", [("sync", None), ("roundrobin", None), ("random", 5)])
    def test_one_value_per_distinct_branch_node(self, c4, solves, kind, seed):
        t_max = 100
        nodes = 2 * c4.m + sum(len(s) for s in make_schedule(c4, kind, seed=seed).prefix(t_max))
        assert nodes <= 2 * c4.m * (t_max + 1)
        rows, ok, first = tree_verify(c4, t_max, kind, seed)
        assert ok, first
        assert len(rows) == c4.n * (t_max + 1)
        assert len(solves) == nodes

    @pytest.mark.parametrize("kind, seed", [("sync", None), ("roundrobin", None),
                                            ("random", 3), ("random", 8)])
    @pytest.mark.parametrize("name", ["c4", "k4"])
    def test_a_root_is_ranked_again_only_when_an_in_edge_changes(
            self, request, monkeypatch, name, kind, seed):
        # every root at t = 0, then the head of each edge a step updates:
        # one root per one-edge step, every root per all-edges step (whose
        # balanced k4 trees outgrow the node cap past t = 15)
        from bpmatch import harness
        g = request.getfixturevalue(name)
        real, calls = harness._select, []

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(harness, "_select", counting)
        t_max = 8 if kind == "sync" else 3 * 2 * g.m
        rows, ok, first = tree_verify(g, t_max, kind, seed)
        assert ok, first
        assert len(rows) == g.n * (t_max + 1)
        assert len(calls) == (g.n * (t_max + 1) if kind == "sync" else g.n + t_max)

    def test_the_node_cap_is_checked_before_any_row(self, k4, monkeypatch):
        # unrolled sizes never shrink with t, so the check at t_max alone
        # raises exactly when some tree at some t <= t_max is over the cap:
        # the balanced k4 trees fit at t = 15 and not at t = 16
        from bpmatch import harness
        rows, ok, first = tree_verify(k4, 15)
        assert ok and len(rows) == 4 * 16
        calls = []
        monkeypatch.setattr(harness, "_select", lambda *args: calls.append(args))
        with pytest.raises(TreeSizeError, match="tree exceeds 200000 nodes"):
            tree_verify(k4, 16)
        assert calls == []


class TestBuilder:
    def test_schedule_shorter_than_t_max_continues_with_empty_steps(self, c4):
        sched = make_schedule(c4, "explicit", sets=[{(1, 2), (3, 4)}, {(2, 3)}])
        builder = GCTBuilder(c4, sched, 5)
        # step 2 grows (2 -> 3) over the (1 -> 2) that step 1 grew
        assert tree_size(builder.branch((2, 3), 2)) == 4
        for root in c4.vertices():
            at_two = dump_tree(builder.gct(root, 2))
            for t in range(3, 6):
                assert dump_tree(builder.gct(root, t)) == at_two
        for e in c4.directed_edges():
            at_two = dump_tree(builder.branch(e, 2))
            assert all(dump_tree(builder.branch(e, t)) == at_two for t in range(3, 6))

    def test_a_single_edge_schedule_holds_one_branch_per_update(self, c4):
        # the 2m single-node branches plus one per update, not 2m per step;
        # counted in the builder's own containers, not inside the nodes
        t_max = 1200
        builder = GCTBuilder(c4, make_schedule(c4, "roundrobin"), t_max)

        def held(obj):
            if isinstance(obj, TreeNode):
                return 1
            if isinstance(obj, dict):
                return sum(map(held, obj.values()))
            if isinstance(obj, (list, tuple)):
                return sum(map(held, obj))
            return 0

        assert sum(held(v) for v in vars(builder).values()) == 2 * c4.m + t_max
        for t in (0, 1, 7, 8, 600, t_max):
            for root in c4.vertices():
                assert dump_tree(builder.gct(root, t)) == dump_tree(
                    GCTBuilder(c4, make_schedule(c4, "roundrobin"), t).gct(root, t))

    def test_out_of_range_requests_rejected(self, c4):
        builder = GCTBuilder(c4, make_schedule(c4, "sync"), 3)
        with pytest.raises(TreeError, match="vertex 5 out of range"):
            builder.gct(5, 1)
        with pytest.raises(TreeError, match="vertex 0 out of range"):
            builder.gct(0, 1)
        with pytest.raises(TreeError, match=r"within 0\.\.3"):
            builder.gct(1, 4)
        with pytest.raises(TreeError, match=r"within 0\.\.3"):
            builder.branch((1, 2), 4)
        with pytest.raises(TreeError, match=r"\(1,3\) is not an edge"):
            builder.branch((1, 3), 1)
        with pytest.raises(TreeError, match="t must be >= 0"):
            build_tree(c4, 1, -1)
        with pytest.raises(TreeError, match="t must be >= 0"):
            GCTBuilder(c4, make_schedule(c4, "sync"), -1)
