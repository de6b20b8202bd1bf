"""Exact two-phase primal simplex on a fraction-free integer tableau.

Solves  min c.x  subject to  A x = b, x >= 0  with Bland's smallest-index
pivoting rule, which rules out cycling, so termination is guaranteed.  A and
b must be integral (ints, or values such as Fraction(1) equal to one); a
non-integral entry raises LPError naming its row, never truncated.  c holds
ints or Fractions.  There are no tolerances anywhere.

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
zero.  Fractions appear only in the LPResult: x, the objective, and the
prices as `dual`, built on first read from the ints over one common
denominator that it carries as `scaled_dual`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


class LPError(Exception):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


class LPResult:
    """An optimal basic solution x, its objective and basis, and one dual
    price per original row.  solve_lp gives the prices as scaled_dual, (d,
    [price * d]) over one positive common denominator d, and `dual` lists
    them as Fractions, built from scaled_dual on first read when no list
    was given."""

    def __init__(self, x, objective, dual, basis, scaled_dual=None):
        self.x = x
        self.objective = objective
        self._dual = dual
        self.basis = basis
        self.scaled_dual = scaled_dual

    @property
    def dual(self) -> list:
        if self._dual is None:
            d, prices = self.scaled_dual
            self._dual = [Fraction(p, d) for p in prices]
        return self._dual

    def _key(self):
        return self.x, self.objective, self.dual, self.basis

    def __repr__(self):
        return "LPResult(x={!r}, objective={!r}, dual={!r}, basis={!r})".format(*self._key())


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
    # the ints of oracle._degree_lp pass as they are; bools and integral
    # Fractions are converted, any other value must equal its int
    if set(map(type, values)) == {int}:
        return values
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
    try:
        scale = lcm(*{v.denominator for v in c})
    except AttributeError:
        raise LPError("c must hold ints or Fractions") from None
    cost = [v.numerator * (scale // v.denominator) for v in c]

    # Seed the basis with unit columns where they exist.
    basis = [-1] * m
    for j, col in zip(range(n), zip(*M)):
        if col.count(0) == m - 1 and 1 in col:
            i = col.index(1)
            if basis[i] == -1:
                basis[i] = j

    art_rows = [i for i in range(m) if basis[i] == -1]
    for row in M:
        row[n:n] = [0] * len(art_rows)
    for k, i in enumerate(art_rows):
        M[i][n + k] = 1
        basis[i] = n + k
    unit = list(basis)  # each row's unit column, whose reduced cost prices it
    cost += [0] * len(art_rows) + [0]
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
        if row[-1]:
            x[bv] = Fraction(row[-1], d)
    objective = Fraction(sum(cost[bv] * row[-1] for row, bv in zip(M, basis)), d * scale)
    prices = [sign[i] * (cost[u] * d - z[u]) for i, u in enumerate(unit)]
    return LPResult(x, objective, None, list(basis), (d * scale, prices))
