from fractions import Fraction as F

import pytest

from bpmatch.simplex import solve_lp, LPInfeasible, LPUnbounded


def test_simple_bounded_minimum():
    # min -x - y  s.t.  x + s1 = 1, y + s2 = 1
    A = [[1, 0, 1, 0], [0, 1, 0, 1]]
    b = [1, 1]
    c = [-1, -1, 0, 0]
    res = solve_lp(A, b, c)
    assert res.objective == -2
    assert res.x[:2] == [1, 1]


def test_equality_with_artificials_and_duals():
    # min x1 + 2 x2  s.t.  x1 + x2 = 2 (needs an artificial)
    A = [[1, 1]]
    b = [2]
    c = [1, 2]
    res = solve_lp(A, b, c)
    assert res.objective == 2 and res.x == [2, 0]
    # dual price on the row: c1 = 1 binds it
    assert res.dual == [1]


def test_infeasible_detected():
    # x1 + x2 = -1 with x >= 0 after sign normalization is -x1 - x2 = 1
    A = [[1, 1]]
    b = [-1]
    c = [1, 1]
    with pytest.raises(LPInfeasible):
        solve_lp(A, b, c)


def test_unbounded_detected():
    # min -x  s.t.  0x = 0 row only
    A = [[0]]
    b = [0]
    c = [-1]
    with pytest.raises(LPUnbounded):
        solve_lp(A, b, c)


def test_redundant_row_dropped_with_zero_price():
    # duplicated equality; the dropped copy gets price zero
    A = [[1, 1, 0], [1, 1, 0], [0, 1, 1]]
    b = [2, 2, 1]
    c = [3, 1, 0]
    res = solve_lp(A, b, c)
    assert res.objective == 4  # x1 = 1, x2 = 1
    assert res.x[0] == 1 and res.x[1] == 1
    assert res.dual[0] == 0 or res.dual[1] == 0
    # prices still certify the objective: pi . b == c . x
    assert sum(p * v for p, v in zip(res.dual, b)) == res.objective


def test_fractional_vertex_exact():
    # the classic half-integral triangle system
    A = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    b = [1, 1, 1]
    c = [-1, -1, -1]
    res = solve_lp(A, b, c)
    assert res.objective == F(-3, 2)
    assert res.x == [F(1, 2), F(1, 2), F(1, 2)]


def test_duals_certify_objective_exactly():
    A = [[2, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    c = [-1, -2, 0, 0]
    res = solve_lp(A, b, c)
    assert sum(p * v for p, v in zip(res.dual, b)) == res.objective
    # dual feasibility: reduced costs of all columns are non-negative
    for j in range(4):
        reduced = c[j] - sum(res.dual[i] * A[i][j] for i in range(2))
        assert reduced >= 0


def test_redundant_row_drops_the_artificials_own_row():
    # Perfect relaxation of a 6-vertex graph plus the row c.x = OPT = 38.
    # Phase one leaves an artificial basic on a redundant row whose tableau
    # position differs from the original row it belongs to.
    from bpmatch import Graph, PERFECT
    from bpmatch.oracle import _degree_lp
    g = Graph(6, [1] * 6, [(1, 3, 28), (1, 4, 27), (1, 6, 16), (2, 3, 28), (2, 4, 3),
                           (2, 6, 19), (3, 5, 19), (4, 5, 5), (5, 6, 14)])
    A, b, c, idx = _degree_lp(g, PERFECT, {e: g.weight(*e) for e in g.edges()})
    A, b = A + [list(c)], b + [38]
    optimum = {(1, 6), (2, 4), (3, 5)}
    for cost, objective in (([0] * len(c), 0), (c, 38)):
        res = solve_lp(A, b, cost)
        assert res.objective == objective
        assert {e for e, k in idx.items() if res.x[k] == 1} == optimum
        assert all(res.x[k] == 0 for e, k in idx.items() if e not in optimum)
        assert all(sum(a * v for a, v in zip(row, res.x)) == rhs for row, rhs in zip(A, b))
        assert len(res.dual) == len(A)
        # the prices certify the objective and are dual feasible
        assert sum(p * v for p, v in zip(res.dual, b)) == objective
        for j in range(len(cost)):
            assert cost[j] - sum(res.dual[i] * A[i][j] for i in range(len(A))) >= 0
    assert solve_lp(A, b, [0] * len(c)).dual == [0] * len(A)
