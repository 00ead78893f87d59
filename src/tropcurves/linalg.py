"""Exact linear algebra over the rationals and a small simplex solver.

Elimination (`mat_rank`, `solve_affine`) is exact integer arithmetic;
Fractions appear only in what it is given and returns.  The simplex works
over `fractions.Fraction` with Bland's rule, so it terminates on every
input and its answers are exact certificates (feasible point, unbounded
ray, or infeasibility).  No float enters any computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def _integer_row(row):
    """The row times the lcm of its denominators, as Python ints."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _reduce(m, ncols):
    """Integer Gauss-Jordan elimination of the first ncols columns, in place.

    Returns the pivot columns.  Row i < rank is then a nonzero multiple of
    row i of the reduced row echelon form; later rows are zero in the
    first ncols columns.  Each row update divides out the gcd of its two
    multipliers, then the content (gcd of all entries) of the new row.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        p = prow[col]
        for r, row in enumerate(m):
            a = row[col]
            if a and r != rank:
                k = gcd(p, a)
                pk, ak = p // k, a // k
                row = [pk * x - ak * y for x, y in zip(row, prow)]
                k = gcd(*row)
                m[r] = [x // k for x in row] if k > 1 else row
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def mat_rank(rows):
    """Rank of a matrix given as an iterable of coefficient rows."""
    m = [_integer_row(row) for row in rows]
    return len(_reduce(m, len(m[0]))) if m else 0


def solve_affine(rows, rhs):
    """Solve ``A x = b`` exactly.

    Returns ``(particular, basis)`` where ``basis`` spans the kernel of A,
    or ``None`` when the system is inconsistent.  Both come from the
    reduced row echelon form, which is unique, with the free variables
    set to zero in the particular solution.
    """
    m = [_integer_row(list(row) + [b]) for row, b in zip(rows, rhs)]
    nc = len(rows[0]) if rows else 0
    pivots = _reduce(m, nc)
    if any(row[nc] for row in m[len(pivots):]):
        return None
    particular = [ZERO] * nc
    for row, col in zip(m, pivots):
        particular[col] = Fraction(row[nc], row[col])
    basis = []
    for fcol in sorted(set(range(nc)) - set(pivots)):
        vec = [ZERO] * nc
        vec[fcol] = ONE
        for row, col in zip(m, pivots):
            vec[col] = Fraction(-row[fcol], row[col])
        basis.append(vec)
    return particular, basis


class LPResult:
    """Outcome of an exact LP solve."""

    __slots__ = ("status", "value", "point", "ray")

    def __init__(self, status, value=None, point=None, ray=None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.value = value
        self.point = point
        self.ray = ray

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


def _tableau(A, b, n):
    """Phase-1 tableau ``[A | I | b]`` with every row signed so that b >= 0.

    A holds Fraction rows of width n; the basis starts on the artificial
    columns n .. n+m-1 and the last column is the right-hand side.
    """
    m = len(A)
    tab = []
    for i, (row, bi) in enumerate(zip(A, b)):
        if bi < 0:
            row, bi = [-x for x in row], -bi
        tab.append(row + [ONE if j == i else ZERO for j in range(m)] + [bi])
    return tab, list(range(n, n + m))


def _pivot(tab, basis, row, col):
    pv = tab[row][col]
    prow = tab[row] = [x / pv for x in tab[row]]
    for r, tr in enumerate(tab):
        f = tr[col]
        if r != row and f != 0:
            tab[r] = [a - f * p for a, p in zip(tr, prow)]
    basis[row] = col


def _phase1_reduced(tab, basis, n):
    """Reduced costs of the sum of artificials: minus the column sums of
    the rows whose basic variable is artificial (plain sums, no products)."""
    red = [ZERO] * n
    for row, k in zip(tab, basis):
        if k >= n:
            for j in range(n):
                if row[j]:
                    red[j] -= row[j]
    return red


def _phase2_reduced(c):
    """Reduced-cost rule of the objective c on the structural columns."""

    def reduced(tab, basis, n):
        red = list(c)
        for row, k in zip(tab, basis):
            if k < n and c[k]:
                ck = c[k]
                for j in range(n):
                    if row[j]:
                        red[j] -= ck * row[j]
        return red

    return reduced


def _bland(tab, basis, n, reduced):
    """Pivot by Bland's rule until no structural column (index < n) has a
    negative reduced cost.

    Returns None at an optimum, or the entering column when no row bounds
    it (the objective is unbounded along that column).
    """
    while True:
        red = reduced(tab, basis, n)
        enter = next((j for j in range(n) if red[j] < 0), None)
        if enter is None:
            return None
        leave = best = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            return enter
        _pivot(tab, basis, leave, enter)


def _phase1(A, b, n):
    """Minimise the sum of artificials over ``A x = b, x >= 0``.

    Only structural columns enter.  Returns the final (tableau, basis), or
    None when the system is infeasible.
    """
    tab, basis = _tableau(A, b, n)
    _bland(tab, basis, n, _phase1_reduced)
    if any(row[-1] for row, k in zip(tab, basis) if k >= n):
        return None
    return tab, basis


def _simplex_standard(c, A, b):
    """min c.x  s.t.  A x = b, x >= 0, by two-phase tableau simplex.

    Returns None when infeasible, else ``(point, ray)`` where ray is None
    at an optimum and certifies unboundedness otherwise.
    """
    n = len(c)
    phase1 = _phase1(A, b, n)
    if phase1 is None:
        return None
    tab, basis = phase1
    # drive artificials out of the basis; a row with no structural entry
    # is redundant and keeps its artificial basic at value 0
    for r, row in enumerate(tab):
        if basis[r] >= n:
            j = next((j for j in range(n) if row[j]), None)
            if j is not None:
                _pivot(tab, basis, r, j)
    enter = _bland(tab, basis, n, _phase2_reduced(c))
    point = [ZERO] * n
    for row, k in zip(tab, basis):
        if k < n:
            point[k] = row[-1]
    if enter is None:
        return point, None
    ray = [ZERO] * n
    ray[enter] = ONE
    for row, k in zip(tab, basis):
        if k < n:
            ray[k] = -row[enter]
    return point, ray


def feasible_nonneg(rows, rhs, width):
    """Feasibility of {A x = b, x >= 0}: phase 1 of the simplex only.

    rows: list of {col: coeff} dicts; returns True/False.  This is the
    hot path of the incidence scans; it avoids the Polyhedron wrapper.
    """
    A = []
    for row in rows:
        dense = [ZERO] * width
        for j, a in row.items():
            dense[j] = Fraction(a)
        A.append(dense)
    return _phase1(A, [Fraction(r) for r in rhs], width) is not None


class Polyhedron:
    """A polyhedron ``{x : A x = b, x >= 0}`` in standard form."""

    def __init__(self, n_vars):
        self.n = n_vars
        self.rows = []
        self.rhs = []

    def add_eq(self, coeffs, rhs):
        """Add a row given as {var_index: coeff}."""
        row = [ZERO] * self.n
        for j, a in coeffs.items():
            row[j] += Fraction(a)
        self.rows.append(row)
        self.rhs.append(Fraction(rhs))

    def feasible_point(self):
        return self.optimize({}).point

    def optimize(self, objective, sense="min"):
        """Optimize a linear functional given as {var: coeff}."""
        c = [ZERO] * self.n
        sign = ONE if sense == "min" else -ONE
        for i, a in objective.items():
            c[i] += sign * Fraction(a)
        res = _simplex_standard(c, self.rows, self.rhs)
        if res is None:
            return LPResult("infeasible")
        point, ray = res
        if ray is not None:
            return LPResult("unbounded", point=point, ray=ray)
        value = sum(Fraction(a) * point[i] for i, a in objective.items())
        return LPResult("optimal", value=value, point=point)

    def strict_point(self):
        """A point with every variable strictly positive, or None.

        One slack LP: maximize t subject to x_i - t - s_i = 0, t <= 1.
        """
        n = self.n
        t_var = n
        Q = Polyhedron(2 * n + 2)
        for row, rhs in zip(self.rows, self.rhs):
            Q.rows.append(list(row) + [ZERO] * (n + 2))
            Q.rhs.append(rhs)
        for i in range(n):
            Q.add_eq({i: 1, t_var: -1, t_var + 1 + i: -1}, 0)
        # t + cap = 1 keeps the LP bounded
        Q.add_eq({t_var: 1, 2 * n + 1: 1}, 1)
        res = Q.optimize({t_var: 1}, sense="max")
        if res.status != "optimal" or res.value <= 0:
            return None
        return res.point[:n]

    def implicit_zero_vars(self):
        """Variables that vanish identically on the polyhedron."""
        if self.strict_point() is not None:
            return []
        return self._maximized_at_zero()

    def _maximized_at_zero(self):
        out = []
        for i in range(self.n):
            res = self.optimize({i: 1}, sense="max")
            if res.status == "optimal" and res.value == 0:
                out.append(i)
        return out

    def dim(self):
        """Dimension of the polyhedron (-1 when empty)."""
        if not self.rows:
            return self.n  # the nonnegative orthant: no LP needed
        zero = []
        if self.strict_point() is None:
            if self.feasible_point() is None:
                return -1
            zero = self._maximized_at_zero()
        rows = list(self.rows)
        for i in zero:
            row = [ZERO] * self.n
            row[i] = ONE
            rows.append(row)
        return self.n - mat_rank(rows)

    def interior_point(self):
        """A point in the relative interior (non-implicit variables positive)."""
        strict = self.strict_point()
        if strict is not None:
            return strict
        pts = []
        base = self.feasible_point()
        if base is None:
            return None
        pts.append(base)
        for i in range(self.n):
            res = self.optimize({i: 1}, sense="max")
            if res.status == "unbounded":
                # move a bounded amount along the ray from its base point
                pts.append([p + r for p, r in zip(res.point, res.ray)])
            elif res.status == "optimal" and res.value > 0:
                pts.append(res.point)
        k = Fraction(1, len(pts))
        return [sum(p[j] for p in pts) * k for j in range(self.n)]
