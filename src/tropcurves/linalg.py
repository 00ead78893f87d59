"""Exact linear algebra over the rationals and a small simplex solver.

Every entry point takes rows in one form, {col: coeff} dicts of ints
and Fractions over a stated width, with their right-hand sides; a
column outside 0..width-1 is a ValueError.  Both kernels, elimination
(`mat_rank`, `solve_affine`) and the simplex, run over Python ints:
`_int_rows`, the one place a row is cleared of denominators, takes a
row of ints as given and clears any other once; it stays a nonzero
multiple of its rational row and sheds its content after every
update.  `solve_affine` answers on ints too, each vector times the lcm
of its denominators; Fractions are built only from what the kernels are
given and for the simplex's answers.  The simplex pivots by Bland's
rule, so it terminates on every input and its answers are exact
certificates (feasible point, unbounded ray, or infeasibility).  Every solve is cold: phase 1 starts
from the artificial basis of the system it is given, and
`feasible_nonneg` runs phase 1 alone.  No float enters any computation.

`Polyhedron(n, rows, rhs)` holds the row lists it is given, and
`optimize` answers with a frozen `LPResult`.  The polyhedron asks two
kinds of question: `feasible_point` and `optimize` solve the system as
given, and `interior_point` solves the single LP of Freund, Roundy and
Todd (1985) for a relative-interior point.  `strict_point`,
`implicit_zero_vars` and `dim` read their answers off that point.

No code in this package calls `feasible_point`, `strict_point` or
`implicit_zero_vars`.  They stay because `perfbench/tracer.py` wraps each
one by name, through `cls.__dict__[meth]`: without `feasible_point`,
`perfbench/selfcheck.py`, a CI step, fails with `KeyError:
'feasible_point'`.  They go when the benchmark reads counters instead
(ROADMAP item 1b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = {int}


def clear_denominators(values):
    """(L, the values times L as ints), L the lcm of the denominators of
    the given ints and Fractions."""
    scale = lcm(*[x.denominator for x in values])
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _int_rows(rows, rhs, width):
    """[A | m | b] as ints for each {col: coeff} row over width columns and
    its right-hand side b, m times the rational row: m = 1 for a row and b
    of ints, taken as given, else the lcm of their denominators.  The one
    place a row is cleared of denominators.  A column outside 0..width-1
    is a ValueError naming its row; one range check covers all the rows."""
    if outside := set().union(*rows).difference(range(width)):
        r, j = next((r, j) for r, row in enumerate(rows) for j in row if j in outside)
        raise ValueError(f"row {r}: column {j} is out of range 0..{width - 1}")
    out = []
    for row, b in zip(rows, rhs):
        mult = 1
        if type(b) is not int or not _INT.issuperset(map(type, row.values())):
            mult = lcm(b.denominator, *[a.denominator for a in row.values()])
            row = {j: a.numerator * (mult // a.denominator) for j, a in row.items()}
            b = b.numerator * (mult // b.denominator)
        dense = [0] * width + [mult, b]
        for j, a in row.items():
            dense[j] = a
        out.append(dense)
    return out


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
        if rank == len(m):
            break
        for piv in range(rank, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate(m, m[rank], col)
        pivots.append(col)
    return pivots


def mat_rank(rows, width):
    """Rank of a matrix given as {col: coeff} rows over width columns."""
    return len(_reduce([row[:width] for row in _int_rows(rows, [0] * len(rows), width)], width))


def _cleared(width, entries):
    """(L, ints): the vector with num / den at each (col, num, den) of
    entries and 0 elsewhere, times L, the lcm of its denominators in
    lowest terms, as `clear_denominators` clears its Fractions."""
    entries = [(col, num // (k := gcd(num, den)), den // k) for col, num, den in entries]
    scale = lcm(*[den for _col, _num, den in entries])
    vec = [0] * width
    for col, num, den in entries:
        vec[col] = num * (scale // den)
    return scale, vec


def solve_affine(rows, rhs, width):
    """Solve ``A x = b`` exactly, A given as {col: coeff} rows over width columns.

    Returns ``(particular, basis)`` where ``basis`` spans the kernel of A,
    or ``None`` when the system is inconsistent.  Both come from the
    reduced row echelon form, which is unique, with the free variables
    set to zero in the particular solution.  Each vector is ``(D, ints)``,
    on ints: times D, the lcm of its denominators (`_cleared`).
    """
    m = [[*row[:width], row[-1]] for row in _int_rows(rows, rhs, width)]
    pivots = _reduce(m, width)
    if any(row[width] for row in m[len(pivots):]):
        return None
    particular = _cleared(width, [(col, row[width], row[col]) for row, col in zip(m, pivots)])
    basis = [
        _cleared(width, [(fcol, 1, 1), *[(col, -row[fcol], row[col]) for row, col in zip(m, pivots)]])
        for fcol in sorted(set(range(width)) - set(pivots))
    ]
    return particular, basis


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: list | None = None
    ray: list | None = None


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


def _phase1(rows, n, carried=()):
    """Minimise a positive combination of the artificials of ``A x = b``
    over ``x >= 0``.

    Each row is [A | m | b] from `_int_rows`, n + 2 ints, so the
    artificial column holds the row's multiplier m.  Each row is signed
    so that b >= 0, which makes the artificials a feasible basis.  The
    artificial columns are dropped: none enters, and only the
    phase-1 objective row needs them.  That row, the sum of the
    artificials times the lcm of the multipliers, is minus the sum of the
    rows each over its multiplier, times that lcm.  The integer tableau
    is the constraint rows, that objective row, then the carried rows,
    which every pivot updates too.  Returns (tableau, basis) without the
    phase-1 row, or None when the system is infeasible.
    """
    new = [[*row[:n], row[n + 1]] for row in rows]
    mults = [row[n] for row in rows]
    new = [row if row[-1] >= 0 else [-x for x in row] for row in new]
    scale = lcm(*mults)
    obj = [0] * (n + 1)
    for row, mult in zip(new, mults):
        f = scale // mult
        obj = [o - f * x for o, x in zip(obj, row)]
    basis = list(range(n, n + len(new)))
    tab = [*new, obj, *carried]
    _bland(tab, basis, n)
    if tab.pop(len(basis))[-1]:  # minus a multiple of the sum of artificials
        return None
    return tab, basis


def _drive_out(tab, basis, n):
    """Pivot every artificial still basic after a feasible phase 1 (at
    value 0) out of the basis, on the first structural nonzero of its row;
    a row with none is zero and is dropped, rhs included.

    Left basic, such an artificial is no longer in any objective, so a
    phase-2 pivot on a negative entry of its row would lift it above zero
    unseen, and the point returned would not solve the system.
    """
    zero = []
    for r in range(len(basis)):
        if basis[r] >= n:
            j = next((j for j in range(n) if tab[r][j]), None)
            if j is None:
                zero.append(r)
            else:
                _pivot(tab, basis, r, j)
    for r in reversed(zero):
        del tab[r], basis[r]


def feasible_nonneg(rows, rhs, width):
    """Feasibility of {A x = b, x >= 0}: phase 1 of the simplex only.

    rows: list of {col: coeff} dicts with int or Fraction coefficients
    over width columns; returns True/False.  The rows go straight into
    the integer tableau, with no Polyhedron wrapper: the incidence scan's
    placement LPs and `cones.is_realizable` call it directly.
    """
    return _phase1(_int_rows(rows, rhs, width), width) is not None


@dataclass(eq=False)
class Polyhedron:
    """A polyhedron ``{x : A x = b, x >= 0}`` in standard form over n
    variables, built from all its rows at once: {col: coeff} dicts with
    their right-hand sides, kept as given, not copied."""

    n: int
    rows: list
    rhs: list

    def feasible_point(self):
        return self.optimize({}).point

    def optimize(self, objective, sense="min"):
        """Optimize a linear functional given as {var: coeff} by two-phase
        tableau simplex: the objective row, cleared with the constraint
        rows, rides through phase 1.  An unbounded result carries a ray."""
        n = self.n
        c = objective if sense == "min" else {i: -a for i, a in objective.items()}
        obj, *rows = _int_rows([c, *self.rows], [0, *self.rhs], n)
        phase1 = _phase1(rows, n, [[*obj[:n], 0]])
        if phase1 is None:
            return LPResult("infeasible")
        tab, basis = phase1
        _drive_out(tab, basis, n)
        enter = _bland(tab, basis, n)
        point = [ZERO] * n
        for row, k in zip(tab, basis):
            if k < n:
                point[k] = Fraction(row[-1], row[k])
        if enter is not None:
            ray = [ZERO] * n
            ray[enter] = ONE
            for row, k in zip(tab, basis):
                if k < n:
                    ray[k] = Fraction(-row[enter], row[k])
            return LPResult("unbounded", point=point, ray=ray)
        value = sum(Fraction(a) * point[i] for i, a in objective.items())
        return LPResult("optimal", value=value, point=point)

    def interior_point(self):
        """A relative-interior point, positive exactly off the variables
        that vanish identically, or None when the polyhedron is empty.

        One LP (Freund, Roundy and Todd, MIT Sloan WP 1674-85, 1985): with
        x = y + s and lambda = 1 + mu, maximize sum(y) subject to
        A (y + s) = lambda b and y <= 1, all variables >= 0.  A large
        lambda lifts every coordinate that can be positive to 1, so the
        optimum has y_i = 1 exactly there, and x / lambda is the point.
        Columns: y, s, mu, then the slacks of y <= 1.
        """
        n = self.n
        rows = [{**row, **{n + j: a for j, a in row.items()}, 2 * n: -b} for row, b in zip(self.rows, self.rhs)]
        rows += [{i: 1, 2 * n + 1 + i: 1} for i in range(n)]
        Q = Polyhedron(3 * n + 1, rows, self.rhs + [1] * n)
        res = Q.optimize(dict.fromkeys(range(n), 1), sense="max")
        if res.status != "optimal":
            return None
        x, lam = res.point, 1 + res.point[2 * n]
        return [(x[i] + x[n + i]) / lam for i in range(n)]

    def strict_point(self):
        """A point with every variable strictly positive, or None."""
        point = self.interior_point()
        return point if point is not None and all(point) else None

    def implicit_zero_vars(self):
        """Variables that vanish identically on the polyhedron ([] when it
        is empty): the zeros of `interior_point`."""
        point = self.interior_point()
        return [i for i, x in enumerate(point or ()) if not x]

    def dim(self):
        """Dimension of the polyhedron (-1 when empty): n minus the rank of
        its rows and a unit row for each identically-zero variable."""
        if not self.rows:
            return self.n  # the nonnegative orthant: no LP needed
        point = self.interior_point()
        if point is None:
            return -1
        return self.n - mat_rank(self.rows + [{i: 1} for i, x in enumerate(point) if not x], self.n)
