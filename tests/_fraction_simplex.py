"""The reference solver for the integer simplex of `bpmatch.simplex`.

The same two-phase Bland simplex on a tableau of `Fraction`s: the same
seeding, artificials, ratio test and redundant-row dropping, every value an
exact rational.  Its dual prices come another way: from solving
pi^T B = c_B on the optimal basis, not from the final reduced costs.  Tests
compare `bpmatch.simplex.solve_lp` with `solve_lp` here, result for result
and exception for exception.
"""

from __future__ import annotations

from fractions import Fraction

from bpmatch.simplex import LPResult, LPUnbounded, LPInfeasible

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(T, rhs, basis, r, col):
    piv = T[r][col]
    if piv != ONE:
        inv = ONE / piv
        T[r] = [v * inv for v in T[r]]
        rhs[r] *= inv
    row_r = T[r]
    for i in range(len(T)):
        if i == r:
            continue
        f = T[i][col]
        if f != ZERO:
            row_i = T[i]
            T[i] = [a - f * br for a, br in zip(row_i, row_r)]
            rhs[i] -= f * rhs[r]
    basis[r] = col


def _reduced_costs(T, basis, cost):
    out = list(cost)
    for i, bv in enumerate(basis):
        cb = cost[bv]
        if cb != ZERO:
            row = T[i]
            for j in range(len(out)):
                if row[j] != ZERO:
                    out[j] -= cb * row[j]
    return out


def _bland(T, rhs, basis, cost, allowed):
    """Run Bland-rule pivots until optimal; raises LPUnbounded."""
    reduced = _reduced_costs(T, basis, cost)
    while True:
        enter = None
        for j in allowed:
            if reduced[j] < ZERO:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best = None
        for i in range(len(T)):
            a = T[i][enter]
            if a > ZERO:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise LPUnbounded("improving direction with no binding row")
        _pivot(T, rhs, basis, leave, enter)
        # the objective row pivots like any other row: exactly the reduced
        # costs of the new basis, without rebuilding them
        f = reduced[enter]
        reduced = [r - f * t if t else r for r, t in zip(reduced, T[leave])]


def solve_lp(A, b, c) -> LPResult:
    """Exact optimum of min c.x s.t. A x = b, x >= 0."""
    m = len(A)
    n = len(c)
    if m == 0:
        if any(cj < ZERO for cj in c):
            raise LPUnbounded("unconstrained variable with negative cost")
        return LPResult([ZERO] * n, ZERO, [], [])

    sign = [ONE] * m
    T = []
    rhs = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < ZERO:
            row = [-v for v in row]
            bi = -bi
            sign[i] = -ONE
        T.append(row)
        rhs.append(bi)
    cost = [Fraction(v) for v in c]
    A0 = [row[:] for row in T]  # normalized original columns, for dual recovery

    # Seed the basis with unit columns where they exist.
    basis = [-1] * m
    for j in range(n):
        hit = None
        ok = True
        for i in range(m):
            v = T[i][j]
            if v == ZERO:
                continue
            if v != ONE or hit is not None:
                ok = False
                break
            hit = i
        if ok and hit is not None and basis[hit] == -1 and rhs[hit] >= ZERO:
            basis[hit] = j

    art_rows = [i for i in range(m) if basis[i] == -1]
    total = n + len(art_rows)
    for k, i in enumerate(art_rows):
        col = n + k
        for r in range(m):
            T[r].append(ONE if r == i else ZERO)
        basis[i] = col

    if art_rows:
        phase1 = [ZERO] * n + [ONE] * len(art_rows)
        _bland(T, rhs, basis, phase1, range(total))
        infeas = sum((rhs[i] for i in range(m) if basis[i] >= n), ZERO)
        if infeas != ZERO:
            raise LPInfeasible("phase one optimum is positive")
        # Drive leftover zero-level artificials out, or drop redundant rows.
        # A tableau row with no original entry left is redundant; the
        # original row to drop is the one whose artificial is basic there.
        drop, redundant = set(), set()
        for i in range(m):
            if basis[i] >= n:
                col = next((j for j in range(n) if T[i][j] != ZERO), None)
                if col is None:
                    drop.add(i)
                    redundant.add(art_rows[basis[i] - n])
                else:
                    _pivot(T, rhs, basis, i, col)
        keep = [i for i in range(m) if i not in drop]
        T = [T[i] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]
        kept_rows = [i for i in range(m) if i not in redundant]
        A0 = [A0[i] for i in kept_rows]
        sign = [sign[i] for i in kept_rows]
        for row in T:
            del row[n:]
    else:
        kept_rows = list(range(m))

    _bland(T, rhs, basis, cost, range(n))

    x = [ZERO] * n
    for i, bv in enumerate(basis):
        x[bv] = rhs[i]
    objective = sum((cost[j] * x[j] for j in range(n) if x[j] != ZERO), ZERO)

    pi = _dual_from_basis(A0, basis, cost)
    dual = [ZERO] * m
    for pos, row in enumerate(kept_rows):
        dual[row] = sign[pos] * pi[pos]
    return LPResult(x, objective, dual, list(basis))


def _dual_from_basis(A0, basis, cost):
    """Solve pi^T B = c_B exactly, B being the basis columns of A0."""
    k = len(basis)
    # Build B^T augmented with c_B and eliminate.
    M = [[A0[i][basis[col]] for i in range(k)] + [cost[basis[col]]] for col in range(k)]
    for col in range(k):
        p = next(r for r in range(col, k) if M[r][col] != ZERO)
        M[col], M[p] = M[p], M[col]
        piv = M[col][col]
        if piv != ONE:
            inv = ONE / piv
            M[col] = [v * inv for v in M[col]]
        for r in range(k):
            if r != col and M[r][col] != ZERO:
                f = M[r][col]
                M[r] = [a - f * bcol for a, bcol in zip(M[r], M[col])]
    return [M[r][k] for r in range(k)]
