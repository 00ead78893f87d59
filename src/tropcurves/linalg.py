"""Exact linear algebra over the rationals and a small simplex solver.

Both kernels, elimination (`mat_rank`, `solve_affine`) and the simplex,
run over Python ints: each row is cleared of denominators once, stays a
nonzero multiple of its rational row, and sheds its content after every
update.  Fractions are built only from what the kernels are given and
what they return.  The simplex pivots by Bland's rule, so it terminates
on every input and its answers are exact certificates (feasible point,
unbounded ray, or infeasibility).  No float enters any computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def _integer_row(row):
    """The row times the lcm of its denominators, as Python ints."""
    if all(type(x) is int for x in row):
        return row  # as it is: the kernels replace rows, never write into one
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(m, prow, col):
    """Clear column col of every row of m but prow, in place.

    Each row becomes ``p·row − a·prow`` over gcd(p, a), where p and a are
    the column's entries in prow and the row, and then sheds its content
    (the gcd of its entries).  With p > 0 every row stays a positive
    multiple of its rational counterpart.
    """
    p = prow[col]
    for r, row in enumerate(m):
        a = row[col]
        if a and row is not prow:
            k = gcd(p, a)
            pk, ak = p // k, a // k
            row = [pk * x - ak * y for x, y in zip(row, prow)]
            k = gcd(*row)
            m[r] = [x // k for x in row] if k > 1 else row


def _reduce(m, ncols):
    """Integer Gauss-Jordan elimination of the first ncols columns, in place.

    Returns the pivot columns.  Row i < rank is then a nonzero multiple of
    row i of the reduced row echelon form; later rows are zero in the
    first ncols columns.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate(m, m[rank], col)
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


def _pivot(tab, basis, row, col):
    """Pivot on tab[row][col], negating the row first if the entry is
    negative; every other row of tab, the objective rows too, is updated."""
    if tab[row][col] < 0:
        tab[row] = [-x for x in tab[row]]
    _eliminate(tab, tab[row], col)
    basis[row] = col


def _bland(tab, basis, n):
    """Minimise the objective row tab[len(basis)] by Bland's rule until no
    structural column (index < n) has a negative reduced cost.

    Returns None at an optimum, or the entering column when no row bounds
    it (the objective is unbounded along that column).
    """
    m = len(basis)
    while True:
        obj = tab[m]
        enter = next((j for j in range(n) if obj[j] < 0), None)
        if enter is None:
            return None
        leave, num, den = None, 1, 0  # best ratio so far is num/den; 1/0 is +inf
        for r, (row, k) in enumerate(zip(tab, basis)):
            a = row[enter]
            if a > 0:
                diff = row[-1] * den - num * a  # sign of row[-1]/a - num/den
                if diff < 0 or (diff == 0 and k < basis[leave]):
                    leave, num, den = r, row[-1], a
        if leave is None:
            return enter
        _pivot(tab, basis, leave, enter)


def _phase1(A, b, n, carried=()):
    """Minimise the sum of artificials over ``A x = b, x >= 0``.

    Each row [A | 1 | b] is cleared of denominators, so its artificial
    column holds the row's multiplier, and signed so that b >= 0.  The
    artificial columns are then dropped: none enters, and only the phase-1
    objective row (minus the sum of the rational rows) needs them.  The
    integer tableau is the constraint rows, that objective row, then the
    carried rows, which every pivot updates too.  Returns (tableau, basis)
    without the phase-1 row, or None when the system is infeasible.
    """
    tab, mults = [], []
    for row, bi in zip(A, b):
        *row, mult, bi = _integer_row([*row, 1, bi])
        tab.append([*row, bi] if bi >= 0 else [-x for x in row] + [-bi])
        mults.append(mult)
    scale = lcm(*mults)
    obj = [0] * (n + 1)
    for row, mult in zip(tab, mults):
        f = scale // mult
        obj = [o - f * x for o, x in zip(obj, row)]
    basis = list(range(n, n + len(tab)))
    tab += [obj, *carried]
    _bland(tab, basis, n)
    if tab.pop(len(basis))[-1]:  # minus a multiple of the sum of artificials
        return None
    return tab, basis


def _simplex_standard(c, A, b):
    """min c.x  s.t.  A x = b, x >= 0, by two-phase tableau simplex.

    The objective row of c rides through phase 1.  Returns None when
    infeasible, else ``(point, ray)`` where ray is None at an optimum and
    certifies unboundedness otherwise.
    """
    n = len(c)
    phase1 = _phase1(A, b, n, [_integer_row([*c, 0])])
    if phase1 is None:
        return None
    tab, basis = phase1
    # drive artificials out of the basis; a row with no structural entry
    # is redundant and keeps its artificial basic at value 0
    for r in range(len(basis)):
        if basis[r] >= n:
            j = next((j for j in range(n) if tab[r][j]), None)
            if j is not None:
                _pivot(tab, basis, r, j)
    enter = _bland(tab, basis, n)
    point = [ZERO] * n
    for row, k in zip(tab, basis):
        if k < n:
            point[k] = Fraction(row[-1], row[k])
    if enter is None:
        return point, None
    ray = [ZERO] * n
    ray[enter] = ONE
    for row, k in zip(tab, basis):
        if k < n:
            ray[k] = Fraction(-row[enter], row[k])
    return point, ray


def feasible_nonneg(rows, rhs, width):
    """Feasibility of {A x = b, x >= 0}: phase 1 of the simplex only.

    rows: list of {col: coeff} dicts with int or Fraction coefficients;
    returns True/False.  The coefficients go straight into the integer
    tableau.  This is the hot path of the incidence scans; it avoids the
    Polyhedron wrapper.
    """
    A = []
    for row in rows:
        dense = [0] * width
        for j, a in row.items():
            dense[j] = a
        A.append(dense)
    return _phase1(A, rhs, width) is not None


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
