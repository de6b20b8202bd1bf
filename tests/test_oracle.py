import random
from fractions import Fraction as F

import pytest

from bpmatch import (Graph, PERFECT, NONPERFECT, MessageInit, StopPolicy,
                     fixture_path, parse_graph, brute_force, solve_relaxation,
                     build_certificate, dual_objective, check_cs, is_tight,
                     tightness_by_enumeration, iteration_bound, coverage_threshold,
                     OracleError, InfeasibleError, GuardExceeded, CertificateError,
                     LPSolution, parse_certificate, serialize_certificate,
                     run_sync)
from bpmatch import harness, oracle
from bpmatch.cli import main
from bpmatch.harness import certify_instance
from conftest import lower_vertex_prices, naive_optima, random_graph_any


class TestBruteForce:
    def test_c4(self, c4):
        w, opts = brute_force(c4, PERFECT)
        assert w == 2 and opts == [frozenset({(1, 2), (3, 4)})]

    def test_k4(self, k4):
        w, opts = brute_force(k4, PERFECT)
        assert w == 2 and opts == [frozenset({(1, 2), (3, 4)})]

    def test_triangle_nonperfect(self, tri_neg):
        w, opts = brute_force(tri_neg, NONPERFECT)
        assert w == -3 and opts == [frozenset({(1, 2)})]

    def test_infeasible(self):
        g = Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        with pytest.raises(InfeasibleError):
            brute_force(g, PERFECT)

    def test_lightest_edges_first_by_exact_weight(self, monkeypatch):
        # 2/3 < 3/4 < 1/1 although the numerators run the other way round
        g = Graph(4, [1] * 4, [(1, 2, 1), (3, 4, F(3, 4)), (1, 3, F(2, 3)), (2, 4, 3)])
        orders = []
        real = oracle._min_points

        def spy(g, mode, edges, values, minimum=None):
            orders.append(list(edges))
            return real(g, mode, edges, values, minimum)

        monkeypatch.setattr(oracle, "_min_points", spy)
        brute_force(g, NONPERFECT)
        assert orders == [[(1, 3), (3, 4), (1, 2), (2, 4)]]

    def test_guard(self, c4, monkeypatch):
        monkeypatch.setattr(oracle, "BRUTE_FORCE_GUARD", 3)
        with pytest.raises(GuardExceeded):
            brute_force(c4, PERFECT)

    def test_matches_reference_enumeration(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_graph_any(rng, n_max=5, weight_lo=-6, weight_hi=6)
            if g.m > 10:
                continue
            for mode in (PERFECT, NONPERFECT):
                want = naive_optima(g, mode)
                if mode == PERFECT and want[0] is None:
                    with pytest.raises(InfeasibleError):
                        brute_force(g, mode)
                    continue
                assert brute_force(g, mode) == want


class TestRelaxation:
    def test_c4_integral_optimum(self, c4):
        sol, _ = solve_relaxation(c4, PERFECT)
        assert sol.objective == 2 and sol.integral
        assert sol.x[(1, 2)] == 1 and sol.x[(2, 3)] == 0

    def test_uniform_triangle_fractional_vertex(self, tri_half):
        sol, _ = solve_relaxation(tri_half, NONPERFECT)
        assert sol.objective == F(-3, 2)
        assert sol.x == {(1, 2): F(1, 2), (1, 3): F(1, 2), (2, 3): F(1, 2)}
        assert not sol.integral

    def test_empty_graph(self):
        g = Graph(0, (), ())
        sol, _ = solve_relaxation(g, PERFECT)
        assert sol.objective == 0 and sol.x == {}

    def test_relaxation_never_beats_matching(self):
        rng = random.Random(12)
        for _ in range(25):
            g = random_graph_any(rng, n_max=6, allow_trivial=False)
            for mode in (PERFECT, NONPERFECT):
                if mode == NONPERFECT and any(g.weight(*e) > 0 for e in g.edges()):
                    continue
                try:
                    w, _ = brute_force(g, mode)
                except InfeasibleError:
                    continue
                assert solve_relaxation(g, mode)[0].objective <= w

    def test_relaxation_hands_the_simplex_the_int_weights(self, monkeypatch):
        g = Graph(4, [1] * 4, [(1, 2, F(1, 2)), (2, 3, F(2, 3)), (3, 4, F(5, 6)),
                               (1, 4, F(1, 3))])
        costs = []
        real = oracle.solve_lp

        def spy(A, b, c):
            costs.append(c)
            return real(A, b, c)

        monkeypatch.setattr(oracle, "solve_lp", spy)
        sol, cert = solve_relaxation(g, PERFECT)
        [c] = costs
        assert all(type(v) is int for v in c)
        assert c[:g.m] == [3, 2, 4, 5] and g.scale == 6  # (1, 2), (1, 4), (2, 3), (3, 4)
        assert sol.objective == 1 and dual_objective(g, cert) == sol.objective

    def test_strong_duality_violation_has_its_own_error(self, c4, monkeypatch):
        lower_vertex_prices(monkeypatch)
        with pytest.raises(oracle.StrongDualityError, match="strong duality violated"):
            solve_relaxation(c4, PERFECT)

    def test_infeasible_relaxation(self):
        # on the path, the middle vertex cannot satisfy both endpoints
        g = Graph(3, [1, 1, 1], [(1, 2, 1), (2, 3, 1)])
        with pytest.raises(InfeasibleError):
            solve_relaxation(g, PERFECT)


class TestDual:
    def test_strong_duality_everywhere(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph_any(rng, n_max=6, allow_trivial=False, weight_lo=-8, weight_hi=8)
            for mode in (PERFECT, NONPERFECT):
                if mode == NONPERFECT and any(g.weight(*e) > 0 for e in g.edges()):
                    continue
                try:
                    sol, cert = solve_relaxation(g, mode)
                except InfeasibleError:
                    continue
                assert dual_objective(g, cert) == sol.objective
                assert check_cs(g, sol, cert).ok

    def test_k4_hand_certificate(self, k4):
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        assert cert.S == frozenset({(1, 3), (1, 4), (2, 3)})
        assert (2, 4) not in cert.S
        assert cert.epsilon == 9 and cert.L == F(1, 2)

    def test_infeasible_certificate_rejected(self, k4):
        with pytest.raises(CertificateError):
            build_certificate(k4, {i: F(100) for i in k4.vertices()}, {}, PERFECT)

    def test_gap_case_epsilon_undefined(self):
        # every edge exactly meets its dual bound: S empty
        g = Graph(2, [1, 1], [(1, 2, 4)])
        cert = build_certificate(g, {1: F(2), 2: F(2)}, {}, PERFECT)
        assert cert.S == frozenset() and cert.epsilon is None and cert.L == 2

    def test_certificate_file_roundtrip(self, k4):
        _, cert = solve_relaxation(k4, PERFECT)
        text = serialize_certificate(cert)
        back = parse_certificate(text, k4, PERFECT)
        assert back.y == cert.y and back.lam == cert.lam
        assert back.S == cert.S and back.epsilon == cert.epsilon

    def test_certificate_parse_errors(self, k4):
        with pytest.raises(CertificateError):
            parse_certificate("y 9 1/2\n", k4, PERFECT)
        with pytest.raises(CertificateError):
            parse_certificate("lambda 1 3 x\n", k4, PERFECT)


# (fixture, mode, y, lam, str(error), dual file text or None, the certify
# command's error line for that file).  Entries are checked in order, y
# first, before dual feasibility; feasibility problems are listed in the
# order negative lambda, negative y (non-perfect mode), infeasible edges.
# A float or bool has no dual-file form: a file token is read exactly.
INFEASIBLE = "dual infeasible: "
CERTIFICATE_ERRORS = [
    ("c4", PERFECT, {}, {(1, 2): F(-1)}, INFEASIBLE + "lambda(1, 2) = -1 < 0",
     "lambda 1 2 -1\n", None),
    ("tri-neg", NONPERFECT, {1: F(3), 2: F(3), 3: F(-1, 2)}, {},
     INFEASIBLE + "y[3] = -1/2 < 0 in non-perfect mode", "y 1 3\ny 2 3\ny 3 -1/2\n", None),
    ("c4", PERFECT, {1: F(2)}, {}, INFEASIBLE + "edge (1, 2): w + lambda = 1 < 2",
     "y 1 2\n", None),
    ("tri-neg", NONPERFECT, {2: F(-3)}, {(1, 2): F(-1)},
     INFEASIBLE + "lambda(1, 2) = -1 < 0; y[2] = -3 < 0 in non-perfect mode; "
     "edge (1, 2): w + lambda = -4 < 3; edge (1, 3): w + lambda = -2 < 0; "
     "edge (2, 3): w + lambda = -1 < 3", "lambda 1 2 -1\ny 2 -3\n", None),
    ("c4", PERFECT, {1: F(1, 2), 9: F(7)}, {(2, 1): F(-5)}, "y[9]: not a vertex of the graph",
     "y 1 1/2\ny 9 7\n", "line 2: vertex 9 out of range"),
    ("c4", PERFECT, {}, {(2, 1): F(-5)}, "lambda(2, 1): not an edge (i, j), i < j, of the graph",
     "lambda 2 1 -5\n", INFEASIBLE + "lambda(1, 2) = -5 < 0; edge (1, 2): w + lambda = -4 < 0"),
    ("c4", PERFECT, {}, {(1, 3): 0}, "lambda(1, 3): not an edge (i, j), i < j, of the graph",
     "lambda 1 3 0\n", "line 1: edge (1, 3) not in graph"),
    ("c4", PERFECT, {1: 0.1}, {},
     "y[1]: value 0.1 is a float; use an int, Fraction, Decimal or rational string", None, None),
    ("c4", PERFECT, {}, {(1, 2): True},
     "lambda(1, 2): value True is a bool; use an int, Fraction, Decimal or rational string",
     None, None),
    ("tri-neg", NONPERFECT, {3: False}, {},
     "y[3]: value False is a bool; use an int, Fraction, Decimal or rational string", None, None),
]


@pytest.mark.parametrize("fixture, mode, y, lam, message, text, file_message",
                         CERTIFICATE_ERRORS,
                         ids=["negative-lambda", "negative-y-nonperfect", "infeasible-edge",
                              "several", "stray-vertex", "reversed-edge-key", "non-edge-key",
                              "float", "bool-lambda", "bool-y"])
def test_every_certificate_error(capsys, tmp_path, fixture, mode, y, lam, message, text,
                                 file_message):
    g = parse_graph(fixture_path(fixture).read_text())
    with pytest.raises(CertificateError) as err:
        build_certificate(g, y, lam, mode)
    assert str(err.value) == message
    if text is None:
        return
    path = tmp_path / "dual.txt"
    path.write_text(text)
    code = main(["certify", str(fixture_path(fixture)), "--mode", mode, "--dual-file", str(path)])
    out, errors = capsys.readouterr()
    assert (code, out, errors) == (2, "", f"error: {file_message or message}\n")


class TestCheckCS:
    def test_k4_appendix_pair_passes(self, k4):
        w, opts = brute_force(k4, PERFECT)
        primal = LPSolution.from_matching(k4, opts[0], PERFECT)
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        assert check_cs(k4, primal, cert).ok

    def test_feasible_but_suboptimal_pair_fails(self, k4):
        primal = LPSolution.from_matching(k4, [(1, 3), (2, 4)], PERFECT)
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        report = check_cs(k4, primal, cert)
        assert not report.ok
        assert any(c.name == "edge_slack_product" and not c.ok for c in report.checks)

    def test_unsaturated_vertex_with_nonzero_price_fails(self, tri_neg):
        primal = LPSolution.from_matching(tri_neg, [(1, 2)], NONPERFECT)
        cert = build_certificate(tri_neg, {1: F(3), 2: F(0), 3: F(1)},
                                 {(1, 2): F(0), (2, 3): F(0), (1, 3): F(0)}, NONPERFECT)
        report = check_cs(tri_neg, primal, cert)
        assert any(c.name == "vertex_slack_product" and not c.ok for c in report.checks)


class TestTightness:
    def test_k4_tight(self, k4):
        rep = is_tight(k4, PERFECT)
        assert rep.tight and rep.witness is None

    def test_uniform_triangle_loose_with_exact_witness(self, tri_half):
        rep = is_tight(tri_half, NONPERFECT)
        assert not rep.tight
        assert rep.witness == {(1, 2): F(1, 2), (1, 3): F(1, 2), (2, 3): F(1, 2)}

    def test_tied_cycle_not_tight(self):
        g = Graph(4, [1] * 4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
        rep = is_tight(g, PERFECT)
        assert not rep.tight and rep.reason == "multiple_integral_optima"
        # convex-combination witness
        assert all(v == F(1, 2) for v in rep.witness.values())

    def test_equal_value_fractional_point_detected(self, tri_neg):
        # integral optimum unique, but a fractional point of equal value exists
        rep = is_tight(tri_neg, NONPERFECT)
        assert not rep.tight and rep.reason == "optimal_face_has_positive_dimension"
        w = rep.witness
        assert any(v not in (0, 1) for v in w.values())
        load = {i: sum(w[e] for e in tri_neg.edges() if i in e) for i in tri_neg.vertices()}
        assert all(load[i] <= tri_neg.cap(i) for i in tri_neg.vertices())
        value = sum(w[e] * tri_neg.weight(*e) for e in tri_neg.edges())
        assert value == -3

    @pytest.mark.parametrize("mode, g, witness", [
        # tri-neg: the cycle p1 -> q2 -> p3 -> p1 runs through vertex 3,
        # which M = {1-2} leaves unsaturated (q3 = p3)
        (NONPERFECT, parse_graph(fixture_path("tri-neg").read_text()),
         {(1, 2): F(3, 4), (1, 3): F(1, 4), (2, 3): F(1, 4)}),
        # a 5-cycle through vertex 5, which M = {1-2, 3-4} leaves unsaturated
        (NONPERFECT, Graph(5, [1] * 5, [(1, 2, -3), (3, 4, -3), (2, 3, -2), (4, 5, -2),
                                        (1, 5, -2)]),
         {(1, 2): F(3, 4), (1, 5): F(1, 4), (2, 3): F(1, 4), (3, 4): F(3, 4),
          (4, 5): F(1, 4)}),
        # M = {1-2, 3-4} saturates vertex 1 at price zero: the cycle sheds
        # both units of 1-2 at vertex 1 through the arc q1 -> p1
        (NONPERFECT, Graph(4, [1] * 4, [(1, 2, -1), (2, 3, -3), (2, 4, -3), (3, 4, -4)]),
         {(1, 2): F(1, 2), (2, 3): F(1, 4), (2, 4): F(1, 4), (3, 4): F(3, 4)}),
        # two unit triangles joined by 3-4: the cycle runs 3-4 both ways
        (PERFECT, Graph(6, [1] * 6, [(1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1),
                                     (4, 5, 1), (4, 6, 1), (5, 6, 1)]),
         {(1, 2): F(3, 4), (1, 3): F(1, 4), (2, 3): F(1, 4), (3, 4): F(1, 2),
          (4, 5): F(1, 4), (4, 6): F(1, 4), (5, 6): F(3, 4)}),
    ], ids=["tri-neg", "unsaturated-vertex", "zero-price-vertex", "edge-twice"])
    def test_face_cycle_witness(self, mode, g, witness):
        sol, _ = solve_relaxation(g, mode)
        assert sol.integral
        rep = is_tight(g, mode)
        assert (rep.tight, rep.reason, rep.bf_count) == (
            False, "optimal_face_has_positive_dimension", 1)
        assert rep.witness == witness
        assert sum(v * g.weight(*e) for e, v in witness.items()) == sol.objective

    @pytest.mark.parametrize("mode, g", [
        # y = (2, 0, 0): perfect mode has no vertex arc at 2 or 3
        (PERFECT, Graph(3, [1, 2, 1], [(1, 2, 2), (2, 3, 0)])),
        # y = (4, 0, 0) and M = {1-2}: an arc q2 -> p2, none at vertex 1
        (NONPERFECT, Graph(3, [1, 1, 2], [(1, 2, -4)])),
    ], ids=["perfect", "positive-price"])
    def test_no_face_cycle_without_a_vertex_arc(self, mode, g):
        rep = is_tight(g, mode)
        assert rep.tight and rep.reason == "unique_integral_optimum"

    def test_enumeration_agrees_with_probing(self):
        rng = random.Random(14)
        checked = 0
        for _ in range(90):
            g = random_graph_any(rng, n_max=6, allow_trivial=False, weight_lo=-9, weight_hi=9)
            for mode in (PERFECT, NONPERFECT):
                if mode == NONPERFECT and any(g.weight(*e) > 0 for e in g.edges()):
                    continue
                try:
                    rep = is_tight(g, mode)
                except InfeasibleError:
                    continue
                enum_tight, _ = tightness_by_enumeration(g, mode, rep.lp_objective)
                assert enum_tight == rep.tight, (mode, g.edges())
                checked += 1
        assert checked >= 30

    def test_enumeration_rejects_an_objective_below_the_minimum(self, tri_neg, c4):
        # the least half-integral weights are -3 (tri-neg) and 2 (c4)
        with pytest.raises(OracleError, match="no optimal half-integral point"):
            tightness_by_enumeration(tri_neg, NONPERFECT, F(-7, 2))
        with pytest.raises(OracleError, match="no optimal half-integral point"):
            tightness_by_enumeration(c4, PERFECT, F(1))

    def test_enumeration_rejects_an_objective_above_the_minimum(self, tri_neg, c4):
        # tri-neg has the integral point {1-3} and the fractional point
        # (1/2, 1/2, 1/2) at -3 below -2: neither level is optimal
        with pytest.raises(OracleError, match="weighs less than -2"):
            tightness_by_enumeration(tri_neg, NONPERFECT, F(-2))
        with pytest.raises(OracleError, match="weighs less than 5/2"):
            tightness_by_enumeration(c4, PERFECT, F(5, 2))

    def test_enumeration_rejects_an_objective_no_half_integral_point_has(self, c4):
        with pytest.raises(OracleError, match="not the weight"):
            tightness_by_enumeration(c4, PERFECT, F(7, 3))


def _counting(monkeypatch, name, *modules):
    # count calls through every module that binds the function
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


class TestTightnessWork:
    def test_certify_instance_runs_each_oracle_once(self, monkeypatch, k4):
        bf = _counting(monkeypatch, "brute_force", oracle, harness)
        relax = _counting(monkeypatch, "solve_relaxation", oracle, harness)
        lps = _counting(monkeypatch, "solve_lp", oracle)
        c = certify_instance(k4, PERFECT)
        assert c.tight
        assert len(bf) == 1 and len(relax) == 1 and len(lps) == 1

    def test_is_tight_alone_solves_one_lp(self, monkeypatch, tri_neg):
        lps = _counting(monkeypatch, "solve_lp", oracle)
        rep = is_tight(tri_neg, NONPERFECT)
        assert rep.reason == "optimal_face_has_positive_dimension"
        assert len(lps) == 1

    @pytest.mark.parametrize("fixture, mode", [("tri-neg", NONPERFECT), ("k4-appendix", PERFECT)])
    def test_is_tight_solves_no_lp_past_the_relaxation(self, monkeypatch, fixture, mode):
        g = parse_graph(fixture_path(fixture).read_text())
        optima, relaxation = brute_force(g, mode), solve_relaxation(g, mode)
        lps = _counting(monkeypatch, "solve_lp", oracle)
        is_tight(g, mode, optima=optima, relaxation=relaxation)
        assert lps == []

    def test_certify_instance_solves_one_lp(self, monkeypatch, tri_neg, k4):
        lps = _counting(monkeypatch, "solve_lp", oracle)
        certify_instance(tri_neg, NONPERFECT)
        assert len(lps) == 1
        certify_instance(k4, PERFECT)
        assert len(lps) == 2


class TestIterationBound:
    def test_k4_appendix_value(self, k4):
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        assert iteration_bound(k4, cert) == 1

    def test_zero_init_contributes_nothing(self, k4):
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        assert iteration_bound(k4, cert, MessageInit.constant(0)) == 1

    def test_arbitrary_init_raises_bound(self, k4):
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        init = MessageInit.constant(9)
        # L grows to 1/2 + 9; ceil(2*4*(19/2)/9) = ceil(76/9) = 9
        assert iteration_bound(k4, cert, init) == 9

    def test_threshold_rejects_a_certificate_of_the_other_mode(self, k4):
        cert = build_certificate(k4, {i: F(1, 2) for i in k4.vertices()}, {}, PERFECT)
        assert coverage_threshold(k4, cert, PERFECT, MessageInit.constant(9)) == F(76, 9)
        with pytest.raises(OracleError):
            coverage_threshold(k4, cert, NONPERFECT)

    def test_empty_gap_set_gives_n_plus_one(self):
        g = Graph(2, [1, 1], [(1, 2, 4)])
        cert = build_certificate(g, {1: F(2), 2: F(2)}, {}, PERFECT)
        assert iteration_bound(g, cert) == 3

    def test_scaling_invariance(self):
        rng = random.Random(15)
        scanned = 0
        for _ in range(20):
            g = random_graph_any(rng, n_max=5, allow_trivial=False, weight_lo=1, weight_hi=9)
            try:
                rep = is_tight(g, PERFECT)
            except InfeasibleError:
                continue
            if not rep.tight:
                continue
            sol, cert = solve_relaxation(g, PERFECT)
            if cert.epsilon is None:
                continue
            c = F(7, 3)
            scaled = Graph(g.n, g.capacities(),
                           [(i, j, c * g.weight(i, j)) for (i, j) in g.edges()])
            sol2, cert2 = solve_relaxation(scaled, PERFECT)
            assert cert2.epsilon == c * cert.epsilon and cert2.L == c * cert.L
            assert iteration_bound(scaled, cert2) == iteration_bound(g, cert)
            assert brute_force(scaled, PERFECT)[1] == brute_force(g, PERFECT)[1]
            scanned += 1
        assert scanned >= 5


class TestModifiedSlacknessConsequence:
    def test_member_and_nonmember_dual_inequalities_on_tight_instances(self):
        # on tight perfect instances: member edges sit at or below the price
        # sum, non-members at or above (equality allowed on either side)
        rng = random.Random(17)
        seen = 0
        for _ in range(60):
            g = random_graph_any(rng, n_max=6, allow_trivial=False, weight_lo=1, weight_hi=15)
            try:
                rep = is_tight(g, PERFECT)
            except InfeasibleError:
                continue
            if not rep.tight:
                continue
            _, cert = solve_relaxation(g, PERFECT)
            _, opts = brute_force(g, PERFECT)
            member = opts[0]
            for (i, j) in g.edges():
                price = cert.y[i] + cert.y[j]
                if (i, j) in member:
                    assert g.weight(i, j) <= price
                else:
                    assert g.weight(i, j) >= price
            seen += 1
        assert seen >= 10


class TestEndToEndCertified:
    def test_capacity_two_cycle_optimum(self, k4):
        # same weights, capacity 2 everywhere: the optimum is the light cycle
        g = Graph(4, [2] * 4, [(i, j, k4.weight(i, j)) for (i, j) in k4.edges()])
        w, opts = brute_force(g, PERFECT)
        assert w == 13
        assert opts == [frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})]
        rep = is_tight(g, PERFECT)
        assert rep.tight
        _, cert = solve_relaxation(g, PERFECT)
        res = run_sync(g, PERFECT, stop=StopPolicy.budget(iteration_bound(g, cert)))
        assert res.estimate.edges == opts[0]

    def test_certified_runs_match_brute_force(self):
        # up to eight vertices, i.e. beyond the sizes the sweeps cover
        rng = random.Random(16)
        hits = 0
        for _ in range(45):
            g = random_graph_any(rng, n_max=8, allow_trivial=False, weight_lo=1, weight_hi=20)
            if g.m > 26:
                continue
            try:
                rep = is_tight(g, PERFECT)
            except InfeasibleError:
                continue
            if not rep.tight:
                continue
            _, cert = solve_relaxation(g, PERFECT)
            w, opts = brute_force(g, PERFECT)
            bound = iteration_bound(g, cert)
            res = run_sync(g, PERFECT, stop=StopPolicy.budget(bound))
            assert res.estimate.edges == opts[0]
            hits += 1
        assert hits >= 8
