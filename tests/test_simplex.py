import random
from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bpmatch import NONPERFECT, PERFECT, InfeasibleError, is_tight, oracle, solve_relaxation
from bpmatch.harness import random_instance
from bpmatch.simplex import solve_lp, LPError, LPInfeasible, LPUnbounded

import _fraction_simplex as reference

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


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


@pytest.mark.parametrize("A, b, row", [
    ([[1, 1], [1, F(1, 2)]], [1, 1], 1),
    ([[1, 1], [1, 0]], [F(3, 2), 1], 0),
    ([[1, 0.5]], [1], 0),
])
def test_non_integral_a_or_b_is_rejected_naming_the_row(A, b, row):
    with pytest.raises(LPError, match=f"row {row}:"):
        solve_lp(A, b, [1, 1])


def test_integral_fractions_in_a_and_b_and_rational_costs_are_accepted():
    res = solve_lp([[F(1), F(2, 1)]], [F(4)], [F(1, 3), F(3, 4)])
    assert res.x == [4, 0] and res.objective == F(4, 3) and res.dual == [F(1, 3)]


@pytest.mark.parametrize("cost", [0.5, Decimal("0.5"), "1/2"])
def test_a_cost_that_is_no_int_or_fraction_is_rejected(cost):
    with pytest.raises(LPError, match="c must hold ints or Fractions"):
        solve_lp([[1, 1]], [1], [1, cost])


def _outcome(solve, A, b, c):
    """The result of `solve`, or the class of the LPError it raised."""
    try:
        return solve(A, b, c)
    except LPError as exc:
        return type(exc)


def _same_as_reference(A, b, c):
    """solve_lp's outcome, checked against the Fraction-tableau reference:
    the same x, objective, dual and basis (types included), or the same
    exception class."""
    got = _outcome(solve_lp, A, b, c)
    assert repr(got) == repr(_outcome(reference.solve_lp, A, b, c))
    if isinstance(got, type):
        raise got("as the reference")
    return got


@st.composite
def small_lps(draw):
    """Small integer LPs: A in -2..2, b in -3..3 (negative rows included),
    rational costs, and up to two redundant rows, each the sum or difference
    of two earlier rows (a zero row when a row meets its own negation).  No
    rows at all is a case too.  Half the draws take b = A x0 for a 0/1 point
    x0, so that feasible LPs are not rare."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    A = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2 if A else 0))):
        i, j = draw(st.integers(0, len(A) - 1)), draw(st.integers(0, len(A) - 1))
        s = draw(st.sampled_from([-1, 1]))
        A.append([u + s * v for u, v in zip(A[i], A[j])])
        b.append(b[i] + s * b[j])
    c = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    return A, b, c


@SETTINGS
@given(small_lps())
@example(([[1, 1]], [-1], [1, 1]))                             # infeasible
@example(([[1, -1]], [0], [-1, -1]))                           # unbounded
@example(([[1, 1, 0], [1, 1, 0], [0, 1, 1]], [2, 2, 1], [3, 1, 0]))  # redundant
@example(([[2, 1], [-1, 1]], [-3, 2], [F(1, 2), F(-1, 3)]))    # negative row
@example(([[-1]], [0], [-2]))                                  # zero-level artificial driven out
@example(([[1, 2]], [1], [2, -2]))                             # seeded slack leaves, priced
def test_integer_simplex_matches_the_fraction_simplex(lp):
    try:
        _same_as_reference(*lp)
    except LPError:
        pass


@SETTINGS
@given(small_lps(), st.integers(1, 7))
def test_costs_times_k_give_the_same_vertex_and_k_times_the_prices(lp, k):
    # Bland's rule reads only the signs of the reduced costs, so the pivots
    # do not change; the oracle hands its costs over this way, times g.scale
    A, b, c = lp
    base = _outcome(solve_lp, A, b, c)
    scaled = _outcome(solve_lp, A, b, [k * v for v in c])
    if isinstance(base, type):
        assert scaled is base
        return
    assert scaled.x == base.x and scaled.basis == base.basis
    assert scaled.objective == k * base.objective
    assert scaled.dual == [k * p for p in base.dual]


@settings(SETTINGS, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from([PERFECT, NONPERFECT]))
def test_degree_lps_match_the_fraction_simplex(seed, mode):
    # every relaxation and optimal-face LP the oracle solves on a draw
    g = random_instance(random.Random(seed), n_max=6, mode=mode)
    with mock.patch.object(oracle, "solve_lp", _same_as_reference):
        try:
            is_tight(g, mode, relaxation=solve_relaxation(g, mode))
        except InfeasibleError:
            pass
