import random
from decimal import Decimal
from fractions import Fraction

import pytest

from bpmatch import (Graph, Matching, PERFECT, NONPERFECT, GraphError,
                     GraphParseError, parse_graph, serialize_graph,
                     validate, reduce_trivial, brute_force, InfeasibleError)
from bpmatch.graph import parse_rational
from conftest import random_graph_any


class TestParse:
    def test_c4_from_text(self):
        g = parse_graph("4 4\n1 1 1 1\n1 2 1\n2 3 2\n3 4 1\n4 1 3\n")
        assert g.n == 4 and g.m == 4
        assert g.capacities() == (1, 1, 1, 1)
        assert g.weight(4, 1) == 3
        assert g.neighbors(1) == (2, 4)

    def test_smallest_valid_file(self):
        g = parse_graph("2 1\n1 1\n1 2 5\n")
        assert g.n == 2 and g.edges() == ((1, 2),) and g.weight(1, 2) == 5

    def test_comments_and_blank_lines(self):
        g = parse_graph("# hello\n2 1\n\n1 1  # caps\n1 2 3/2\n")
        assert g.weight(1, 2) == Fraction(3, 2)

    def test_rational_and_decimal_weights(self):
        g = parse_graph("2 1\n1 1\n1 2 -2.5\n")
        assert g.weight(1, 2) == Fraction(-5, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_graph("2 1\n1 1\n1 1 3\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("2 2\n1 1\n1 2 3\n2 1 4\n")

    def test_capacity_line_length(self):
        with pytest.raises(GraphParseError, match="capacity line"):
            parse_graph("3 1\n1 1\n1 2 3\n")

    def test_error_reports_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("2 1\n1 1\n1 2 oops\n")
        assert err.value.line == 3

    def test_roundtrip_identity(self):
        rng = random.Random(0)
        for _ in range(25):
            g = random_graph_any(rng, n_max=7)
            assert parse_graph(serialize_graph(g)) == g

    def test_adjacency_is_sorted_whatever_the_edge_order(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph_any(rng, n_max=8)
            edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w)
                     for (i, j), w in g.weights().items()]
            rng.shuffle(edges)
            text = "\n".join([f"{g.n} {len(edges)}", " ".join(map(str, g.capacities()))]
                             + [f"{i} {j} {w}" for i, j, w in edges])
            for h in (Graph(g.n, g.capacities(), edges), parse_graph(text)):
                assert h == g
                assert h.edges() == tuple(sorted(g.weights()))
                assert h.directed_edges() == tuple(sorted(
                    [*h.edges(), *[(j, i) for (i, j) in h.edges()]]))
                for i in h.vertices():
                    assert h.neighbors(i) == tuple(sorted(
                        j for e in h.edges() if i in e for j in e if j != i))

    def test_empty_graph_roundtrip(self):
        g = Graph(0, (), ())
        assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize("token, value", [
        ("1_000", 1000), ("+5", 5), ("-0", 0), ("\u0663", 3), ("007", 7),
        ("-2.5", Fraction(-5, 2)), ("3/6", Fraction(1, 2)), ("1e3", 1000)])
    def test_rational_token_accepted(self, token, value):
        got = parse_rational(token)
        assert type(got) is Fraction and got == value == Fraction(token)

    @pytest.mark.parametrize("token", ["\u00b2", "0x10", "-3/-4", "1__0", "+-1", "1/0"])
    def test_rational_token_rejected(self, token):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(token)
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(token)
        with pytest.raises(GraphParseError, match="bad weight"):
            parse_graph(f"2 1\n1 1\n1 2 {token}\n")


# (file text, str(error), .line, .field) for every error parse_graph raises;
# where a line has two faults, the first check in reading order names it
READER_ERRORS = [
    ("", "empty graph file", None, None),
    ("# only a comment\n\n", "empty graph file", None, None),
    ("2 1 0\n", "line 1: header must be 'n m'", 1, None),
    ("two 1\n", "line 1, field 1: expected integer vertex count, got 'two'", 1, 1),
    ("2 1.0\n", "line 1, field 2: expected integer edge count, got '1.0'", 1, 2),
    ("2 -1\n", "line 1: n and m must be non-negative", 1, None),
    ("2 1\n", "line 1: missing capacity line", 1, None),
    ("3 1\n1 1\n1 2 3\n", "line 2: capacity line has 2 entries, expected 3", 2, None),
    ("2 1\n1 b\n1 2 3\n", "line 2, field 2: expected integer capacity, got 'b'", 2, 2),
    ("2 1\n1 -2\n1 2 3\n", "line 2, field 2: capacity must be positive, got -2", 2, 2),
    ("2 1\n0 b\n1 2 3\n", "line 2, field 1: capacity must be positive, got 0", 2, 1),
    ("2 1\n1 1\n1 2\n", "line 3: edge line must be 'i j w'", 3, None),
    ("2 1\n1 1\nx 2 w\n", "line 3, field 1: expected integer vertex id, got 'x'", 3, 1),
    ("2 1\n1 1\n1 2.0 3\n", "line 3, field 2: expected integer vertex id, got '2.0'", 3, 2),
    ("2 1\n1 1\n0 2 3\n", "line 3: vertex id out of range 1..2", 3, None),
    ("2 1\n1 1\n1 3 3\n", "line 3: vertex id out of range 1..2", 3, None),
    ("2 1\n1 1\n2 2 w\n", "line 3: self-loop at vertex 2", 3, None),
    ("2 2\n1 1\n1 2 3\n2 1 w\n", "line 4: duplicate edge (1, 2)", 4, None),
    ("2 1\n1 1\n1 2 w\n", "line 3, field 3: bad weight 'w'", 3, 3),
    ("2 1\n1 1\n1 2 1/0\n", "line 3, field 3: bad weight '1/0'", 3, 3),
    ("3 2\n1 1 1\n1 2 3\n", "expected 2 edge lines, found 1", None, None),
    ("3 1\n1 1 1\n1 2 3\n2 3 4\n", "line 4: expected 1 edge lines, found 2", 4, None),
    ("# c\n2 1\n\n1 1 # caps\n1 1 3  # x\n", "line 5: self-loop at vertex 1", 5, None),
]


@pytest.mark.parametrize("text, message, line, field", READER_ERRORS)
def test_every_reader_error(text, message, line, field):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert (str(err.value), err.value.line, err.value.field) == (message, line, field)


class TestWeights:
    @pytest.mark.parametrize("w", [0.1, 2.0, True, False])
    def test_float_and_bool_weights_rejected(self, w):
        with pytest.raises(GraphError, match=r"edge \(1, 2\)"):
            Graph(3, [1, 1, 1], [(2, 3, 1), (2, 1, w)])

    @pytest.mark.parametrize("w, value", [
        (3, 3), (Fraction(1, 3), Fraction(1, 3)), (Decimal("0.1"), Fraction(1, 10)),
        ("-7/4", Fraction(-7, 4)), ("0.1", Fraction(1, 10))])
    def test_exact_weights_accepted(self, w, value):
        got = Graph(2, [1, 1], [(1, 2, w)]).weight(1, 2)
        assert type(got) is Fraction and got == value

    def test_fraction_weight_kept(self):
        w = Fraction(5, 6)
        assert Graph(2, [1, 1], [(1, 2, w)]).weight(1, 2) is w


class TestValidate:
    def test_capacity_over_degree(self):
        g = Graph(2, [2, 2], [(1, 2, 1)])
        kinds = {v.kind for v in validate(g, PERFECT)}
        assert kinds == {"capacity_exceeds_degree"}

    def test_nonperfect_ok(self, tri_neg):
        assert validate(tri_neg, NONPERFECT) == []

    def test_positive_weight_flagged_nonperfect(self):
        g = Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, -1), (1, 3, -2)])
        kinds = {v.kind for v in validate(g, NONPERFECT)}
        assert kinds == {"positive_weight"}
        assert validate(g, PERFECT) == []


class TestMatching:
    def test_weight_is_exact_sum(self, c4):
        m = Matching.from_edges(c4, [(1, 2), (3, 4)], PERFECT)
        assert m.weight == 2 and m.is_valid(c4)

    def test_degree_violations(self, c4):
        m = Matching.from_edges(c4, [(1, 2)], PERFECT)
        assert not m.is_valid(c4)
        assert Matching.from_edges(c4, [(1, 2)], NONPERFECT).is_valid(c4)

    def test_unknown_edge_rejected(self, c4):
        with pytest.raises(GraphError):
            Matching.from_edges(c4, [(1, 3)], PERFECT)


class TestReduce:
    def test_k2_both_trivial(self):
        g = Graph(2, [1, 1], [(1, 2, 5)])
        red = reduce_trivial(g)
        assert red.graph.n == 0 and red.forced == {(1, 2)} and not red.infeasible

    def test_p4_cascade(self, p4):
        red = reduce_trivial(p4)
        assert red.forced == {(1, 2), (3, 4)}
        assert red.graph.n == 0 and not red.infeasible

    def test_c4_identity(self, c4):
        red = reduce_trivial(c4)
        assert red.is_identity and red.graph is c4
        assert red.vertex_map == {i: i for i in c4.vertices()}
        some = [(1, 2), (4, 3)]
        assert red.to_original(some) == {(1, 2), (3, 4)}
        init = {d: Fraction(k, 3) for k, d in enumerate(c4.directed_edges())}
        assert red.to_reduced(init) == init

    def test_one_trivial_vertex(self):
        # vertex 2 has degree = capacity 1: its edge is forced, vertex 3's
        # capacity drops to 1, and vertices 1, 3, 4, 5 become 1, 2, 3, 4
        g = Graph(5, [1, 1, 2, 1, 1], [(1, 3, 4), (1, 4, Fraction(1, 2)), (1, 5, -1),
                                       (2, 3, 9), (3, 4, 2), (3, 5, 3), (4, 5, 7)])
        red = reduce_trivial(g)
        assert not red.infeasible and not red.is_identity
        assert red.forced == {(2, 3)}
        assert red.vertex_map == {1: 1, 2: 3, 3: 4, 4: 5}
        assert red.graph == Graph(4, [1, 1, 1, 1], [(1, 2, 4), (1, 3, Fraction(1, 2)),
                                                    (1, 4, -1), (2, 3, 2), (2, 4, 3),
                                                    (3, 4, 7)])
        assert red.to_original([(1, 3), (2, 4)]) == {(1, 4), (3, 5), (2, 3)}
        assert red.to_reduced({(1, 3): 5, (2, 3): 6, (3, 2): 7}) == {(1, 2): 5}

    def test_p3_infeasible(self):
        g = Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, 1)])
        assert reduce_trivial(g).infeasible

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph_any(rng, n_max=7)
            red = reduce_trivial(g)
            if red.infeasible:
                continue
            again = reduce_trivial(red.graph)
            assert again.is_identity and again.graph == red.graph

    def test_forced_edges_compose_with_reduced_optimum(self):
        # Solving the reduced instance and re-inserting forced edges must give
        # exactly the optima of the original instance, with matching weight.
        rng = random.Random(2)
        checked = 0
        for _ in range(60):
            g = random_graph_any(rng, n_max=8, weight_lo=-5, weight_hi=9)
            if g.m > 26:
                continue
            red = reduce_trivial(g)
            if red.infeasible:
                with pytest.raises(InfeasibleError):
                    brute_force(g, PERFECT)
                continue
            try:
                w_orig, opt_orig = brute_force(g, PERFECT)
            except InfeasibleError:
                # Infeasibility with no local witness: reduced instance must
                # also be infeasible.
                with pytest.raises(InfeasibleError):
                    brute_force(red.graph, PERFECT)
                continue
            w_red, opt_red = brute_force(red.graph, PERFECT)
            forced_w = sum((g.weight(*e) for e in red.forced), Fraction(0))
            assert w_red + forced_w == w_orig
            assert {red.to_original(o) for o in opt_red} == set(opt_orig)
            checked += 1
        assert checked >= 15
