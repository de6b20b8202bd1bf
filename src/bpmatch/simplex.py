"""Exact two-phase primal simplex on a fraction-free integer tableau.

Solves  min c.x  subject to  A x = b, x >= 0  with Bland's smallest-index
pivoting rule, which rules out cycling, so termination is guaranteed.  A and
b must be integral (ints, or values such as Fraction(1) equal to one); a
non-integral entry raises LPError naming its row, never truncated.  c may be
any rational.  There are no tolerances anywhere.

The tableau is an integer matrix M, right-hand side last, over one positive
common denominator d (tableau = M/d, from A with d = 1); the costs are scaled
to ints by their least common denominator.  A pivot on (r, col) with
p = M[r][col] keeps row r, turns every other row, the reduced-cost row too,
into (row*p - row[col]*M[r]) // d and makes p the new denominator (Bareiss,
Math. Comp. 1968).  The division is exact, the entries being minors of A.
M is negated when p < 0, which only driving out artificials can cause, so d
stays positive; the ratio test cross-multiplies.  Pivots, basis and values
are those of the same simplex on fractions.

Besides an optimal basic solution the solver returns exact dual prices, one
per constraint row, read off the final reduced-cost row: each row starts with
a unit column (a seeded slack, or its phase-one artificial, kept through
phase two at cost zero but never allowed to enter), whose reduced cost is its
cost minus the row's price.  A redundant row dropped in phase one gets price
zero.  Fractions appear only in the LPResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


class LPError(Exception):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


@dataclass
class LPResult:
    x: list
    objective: Fraction
    dual: list          # one price per original row
    basis: list


def _pivot(M, d, r, col):
    """Pivot M/d on (r, col); returns the new denominator."""
    p = M[r][col]
    pr = M[r]
    # with p == d a row changes only where the pivot row is nonzero, and not
    # at all when its own pivot-column entry is zero
    nz = [(k, w) for k, w in enumerate(pr) if w] if p == d else None
    for i, row in enumerate(M):
        f = row[col]
        if i == r or (nz and not f):
            continue
        if nz:
            for k, w in nz:
                row[k] -= f * w // d
        elif f:
            M[i] = [(v * p - f * w) // d for v, w in zip(row, pr)]
        else:
            M[i] = [v * p // d for v in row]
    if p < 0:
        M[:] = [[-v for v in row] for row in M]
        p = -p
    return p


def _bland(M, d, basis, cost, allowed):
    """Run Bland-rule pivots until optimal; returns the final denominator and
    reduced-cost row (times it), raises LPUnbounded.  `cost` is integral, with
    a 0 for the rhs column."""
    # the reduced costs times d, pivoted as one more row of M
    z = [d * cj for cj in cost]
    for row, bv in zip(M, basis):
        cb = cost[bv]
        if cb:
            z = [a - cb * v for a, v in zip(z, row)]
    M.append(z)
    m = len(M) - 1
    while True:
        z = M[m]
        enter = next((j for j in allowed if z[j] < 0), None)
        if enter is None:
            return d, M.pop()
        leave = None
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                rhs = M[i][-1]
                if leave is None or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, rhs, a
        if leave is None:
            raise LPUnbounded("improving direction with no binding row")
        d = _pivot(M, d, leave, enter)
        basis[leave] = enter


def _integral(values, i):
    out = [int(v) for v in values]
    if any(a != v for a, v in zip(out, values)):
        raise LPError(f"row {i}: A and b must be integral")
    return out


def solve_lp(A, b, c) -> LPResult:
    """Exact optimum of min c.x s.t. A x = b, x >= 0."""
    m = len(A)
    n = len(c)
    sign = [1] * m
    M = []
    for i in range(m):
        row = _integral(list(A[i]) + [b[i]], i)
        if row[-1] < 0:
            row = [-v for v in row]
            sign[i] = -1
        M.append(row)
    cost = [Fraction(v) for v in c]
    scale = lcm(*(v.denominator for v in cost))
    cost = [v.numerator * (scale // v.denominator) for v in cost]

    # Seed the basis with unit columns where they exist.
    basis = [-1] * m
    for j in range(n):
        hit = None
        for i in range(m):
            v = M[i][j]
            if v == 0:
                continue
            if v != 1 or hit is not None:
                break
            hit = i
        else:
            if hit is not None and basis[hit] == -1:
                basis[hit] = j

    art_rows = [i for i in range(m) if basis[i] == -1]
    for k, i in enumerate(art_rows):
        basis[i] = n + k
    unit = list(basis)  # each row's unit column, whose reduced cost prices it
    cost += [0] * len(art_rows) + [0]
    M = [row[:n] + [int(r == i) for i in art_rows] + row[n:] for r, row in enumerate(M)]
    d, _ = _bland(M, 1, basis, [0] * n + [1] * len(art_rows) + [0], range(n + len(art_rows)))
    if sum(M[i][-1] for i in range(m) if basis[i] >= n) != 0:
        raise LPInfeasible("phase one optimum is positive")
    # Drive leftover zero-level artificials out, or drop redundant rows:
    # a tableau row with no original entry left.  The original row whose
    # artificial is basic there keeps a zero column, so its price is zero.
    drop = set()
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if M[i][j] != 0), None)
            if col is None:
                drop.add(i)
            else:
                d = _pivot(M, d, i, col)
                basis[i] = col
    M = [M[i] for i in range(m) if i not in drop]
    basis = [basis[i] for i in range(m) if i not in drop]

    d, z = _bland(M, d, basis, cost, range(n))

    x = [ZERO] * n
    for row, bv in zip(M, basis):
        x[bv] = Fraction(row[-1], d)
    objective = Fraction(sum(cost[bv] * row[-1] for row, bv in zip(M, basis)), d * scale)
    dual = [Fraction(sign[i] * (cost[u] * d - z[u]), d * scale) for i, u in enumerate(unit)]
    return LPResult(x, objective, dual, list(basis))
