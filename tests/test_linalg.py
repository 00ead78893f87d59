import hashlib
import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from tropcurves.linalg import LPResult, Polyhedron, clear_denominators, feasible_nonneg, mat_rank, solve_affine

MU = 12**12 * 40  # the stretch ratio (3d)^(3d) * x_max at d = 4, x_max = 40


def test_rank_basic():
    assert mat_rank([{0: 1}, {1: 1}], 2) == 2
    assert mat_rank([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 1
    assert mat_rank([], 0) == 0
    assert mat_rank([{}], 3) == 0
    assert mat_rank([{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}, {1: 1}], 2) == 2


def test_solve_affine():
    sol = solve_affine([{0: 1, 1: 1}, {0: 1, 1: -1}], [3, 1], 2)
    assert sol is not None
    part, basis = sol
    assert part == (1, [2, 1])
    assert basis == []
    assert solve_affine([{0: 1, 1: 1}, {0: 1, 1: 1}], [0, 1], 2) is None
    (scale, part), basis = solve_affine([{0: 1, 1: 1, 2: 1}], [6], 3)
    assert len(basis) == 2
    assert sum(part) == 6 * scale
    # x0 = 1/3 - x1/3: each vector comes back over the lcm of its denominators
    assert solve_affine([{0: 3, 1: 1}], [1], 2) == ((3, [1, 0]), [(3, [-1, 3])])


def test_lp_feasible_and_optimal():
    # x + y = 4, x,y >= 0: minimize x -> 0, maximize x -> 4
    P = Polyhedron(2, [{0: 1, 1: 1}], [4])
    res = P.optimize({0: 1}, sense="min")
    assert res.status == "optimal" and res.value == 0
    res = P.optimize({0: 1}, sense="max")
    assert res.status == "optimal" and res.value == 4
    assert P.dim() == 1


def test_lp_infeasible():
    P = Polyhedron(2, [{0: 1, 1: 1}], [-1])
    assert P.feasible_point() is None
    assert P.dim() == -1


def test_lp_unbounded_ray():
    # x - y = 0 with x,y >= 0 is a ray
    P = Polyhedron(2, [{0: 1, 1: -1}], [0])
    res = P.optimize({0: 1}, sense="max")
    assert res.status == "unbounded"
    assert res.ray[0] == res.ray[1] > 0
    assert P.dim() == 1


def test_lp_result_is_a_frozen_value():
    P = Polyhedron(2, [{0: 1, 1: 1}], [4])
    res = P.optimize({0: 1})
    for name in ("status", "value", "point", "ray"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(res, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(res, name)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'foo'$"):
        res.foo = 1
    assert res == P.optimize({0: 1}) == LPResult("optimal", value=0, point=[0, 4])
    assert res != ("optimal", 0, [0, 4], None) and res != "optimal"
    # a result holding no point hashes; one with a point list does not
    empty = Polyhedron(1, [{0: 1}], [-1]).optimize({})
    assert empty == LPResult("infeasible") and hash(empty) == hash(LPResult("infeasible"))


def test_implicit_equalities_and_interior():
    # x + y = 0, x,y >= 0 forces x = y = 0
    P = Polyhedron(2, [{0: 1, 1: 1}], [0])
    assert P.implicit_zero_vars() == [0, 1]
    assert P.dim() == 0
    # interior point of the segment x + y = 1
    Q = Polyhedron(2, [{0: 1, 1: 1}], [1])
    p = Q.interior_point()
    assert p[0] > 0 and p[1] > 0 and p[0] + p[1] == 1


def test_degenerate_cycling_guard():
    # A classic degenerate instance; Bland's rule must terminate.
    rows = [{0: Fraction(1, 4), 1: -8, 2: -1, 3: 9}, {0: Fraction(1, 2), 1: -12, 2: -Fraction(1, 2), 3: 3}]
    P = Polyhedron(4, rows, [0, 0])
    res = P.optimize({0: -Fraction(3, 4), 1: 150, 2: -Fraction(1, 50), 3: 6}, sense="min")
    assert res.status in ("optimal", "unbounded")


# --- the simplex against an independent vertex-enumeration oracle ---------


def _oracle_unique_solution(cols, b):
    """The unique x with sum_k x_k * cols[k] = b, or None when the columns
    are dependent or the system is inconsistent (Gauss-Jordan over Q)."""
    m, k = len(b), len(cols)
    aug = [[Fraction(col[i]) for col in cols] + [Fraction(b[i])] for i in range(m)]
    for c in range(k):
        piv = next((i for i in range(c, m) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(m):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    if any(aug[i][k] != 0 for i in range(k, m)):
        return None
    return [aug[i][k] for i in range(k)]


def _oracle_vertices(A, b, n):
    """All basic feasible solutions of A x = b, x >= 0."""
    out = []
    for size in range(min(len(A), n) + 1):
        for support in itertools.combinations(range(n), size):
            sol = _oracle_unique_solution([[row[j] for row in A] for j in support], b)
            if sol is not None and all(x >= 0 for x in sol):
                x = [Fraction(0)] * n
                for j, v in zip(support, sol):
                    x[j] = v
                out.append(x)
    return out


def _dot(c, x):
    return sum(Fraction(a) * v for a, v in zip(c, x))


def _oracle_extremes(A, b, n):
    """(vertices, extreme rays) of A x = b, x >= 0; the rays are the
    vertices of A r = 0, sum r = 1, r >= 0, listed only when there is a
    vertex."""
    vertices = _oracle_vertices(A, b, n)
    rays = _oracle_vertices(A + [[1] * n], [0] * len(A) + [1], n) if vertices else []
    return vertices, rays


def _oracle_min(extremes, c):
    """(status, value) of min c.x over the polyhedron of `_oracle_extremes`.

    A nonempty polyhedron without lines has a vertex; it is unbounded below
    iff an extreme ray descends.
    """
    vertices, rays = extremes
    if not vertices:
        return "infeasible", None
    if any(_dot(c, r) < 0 for r in rays):
        return "unbounded", None
    return "optimal", min(_dot(c, v) for v in vertices)


def _random_systems(count):
    """Small integer systems, then as many in the incidence scanner's shape:
    edge-length columns, one tau and its slack with the row
    {edge: 1, tau: -1, slack: -1}, and x/y rows with fraction coefficients
    and right-hand sides at the stretch scale."""
    rng = random.Random(2005)
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        yield A, b, c
    for _ in range(count):
        ne = rng.randint(1, 3)
        n = ne + 2
        slack_row = [0] * n
        slack_row[rng.randrange(ne)], slack_row[ne], slack_row[ne + 1] = 1, -1, -1
        A = [slack_row]
        for _ in range(rng.randint(1, 2)):
            xy = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ne)]
            A.append(xy + [rng.randint(-2, 2), 0])
        x = [rng.choice((0, rng.randint(1, MU))) for _ in range(n)]
        b = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]
        if rng.random() < 0.3:
            b[rng.randrange(1, len(A))] += rng.randint(-MU, MU)
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        yield A, b, c


def _satisfies(A, b, x):
    return all(v >= 0 for v in x) and all(_dot(row, x) == bi for row, bi in zip(A, b))


def test_simplex_matches_vertex_oracle():
    seen = set()
    for A, b, c in _random_systems(300):
        n = len(c)
        extremes = _oracle_extremes(A, b, n)
        feasible = extremes[0] != []
        rows = [{j: a for j, a in enumerate(row) if a} for row in A]
        assert feasible_nonneg(rows, b, n) == feasible
        P = Polyhedron(n, rows, b)
        point = P.feasible_point()
        assert (point is not None) == feasible
        if point is not None:
            assert _satisfies(A, b, point)
        # the relative-interior point is positive exactly where some
        # feasible point is: where -x_i is unbounded below or goes negative
        interior = P.interior_point()
        assert (interior is not None) == feasible
        if interior is not None:
            assert _satisfies(A, b, interior)
            for i in range(n):
                status, value = _oracle_min(extremes, [-1 if j == i else 0 for j in range(n)])
                assert (interior[i] > 0) == (status == "unbounded" or value < 0)
        objective = dict(enumerate(c))
        for sense, sign in (("min", 1), ("max", -1)):
            status, value = _oracle_min(extremes, [sign * a for a in c])
            res = P.optimize(objective, sense=sense)
            seen.add(status)
            assert res.status == status
            if status == "optimal":
                assert res.value == sign * value
                assert _satisfies(A, b, res.point) and _dot(c, res.point) == res.value
            elif status == "unbounded":
                assert _satisfies(A, b, res.point)
                assert _satisfies(A, [0] * len(A), res.ray)
                assert sign * _dot(c, res.ray) < 0
    assert seen == {"infeasible", "optimal", "unbounded"}


# sha256 of repr(_lp_outputs) over _frozen_systems(210), computed with the
# Fraction tableau the integer kernel replaced
SIMPLEX_SHA256 = "4f9866ecc6b6a8c3d4f7d7c64253d0c4030d980c9eb653795f7362aa17760a1a"


def _frozen_systems(count):
    """Seeded (A, b, objective) of three kinds: fraction entries, small
    integer rows with right-hand sides at the stretch scale, and degenerate
    systems (a row repeating a multiple of another, a zero row).  Most
    right-hand sides come from a point with some zero coordinates, so many
    vertices are degenerate; some are pushed off it."""
    rng = random.Random(1968)
    for index in range(count):
        kind = ("fraction", "stretch", "degenerate")[index % 3]
        m, n = rng.randint(2, 5), rng.randint(3, 6)

        def entry():
            if rng.random() < 0.3:
                return 0
            if kind == "fraction":
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            return rng.randint(-4, 4)

        scale = MU if kind == "stretch" else 6
        A = [[entry() for _ in range(n)] for _ in range(m)]
        x = [rng.choice((0, 0, rng.randint(1, scale))) for _ in range(n)]
        b = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]
        if kind == "degenerate":
            j = rng.randrange(m)
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            A += [[k * a for a in A[j]], [0] * n]
            b += [k * b[j], 0]
        elif rng.random() < 0.25:
            b[rng.randrange(m)] += rng.randint(-scale, scale)
        objective = {j: entry() for j in range(n) if rng.random() < 0.7}
        yield A, b, objective


def _lp_outputs(A, b, objective):
    P = Polyhedron(len(A[0]), [{j: a for j, a in enumerate(row) if a} for row in A], b)
    out = []
    for sense in ("min", "max"):
        res = P.optimize(objective, sense=sense)
        out.append((res.status, res.value, res.point, res.ray))
    return out + [P.feasible_point(), P.strict_point(), P.implicit_zero_vars(), P.dim()]


def test_simplex_outputs_frozen():
    # statuses, values, points and rays pinned byte for byte: the kernel
    # must take the same pivot path and build the same Fractions
    outputs = [_lp_outputs(*system) for system in _frozen_systems(210)]
    statuses = {res[0] for out in outputs for res in out[:2]}
    assert statuses == {"infeasible", "optimal", "unbounded"}
    assert any(out[3] is None and out[4] for out in outputs)  # implicit zeros
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == SIMPLEX_SHA256


# --- elimination against an independent Fraction oracle --------------------


def _oracle_rref(rows, ncols):
    """(reduced rows, pivot columns) over Q for the first ncols columns:
    forward elimination to echelon form, then back substitution."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(r):
            f = m[i][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
    return m, pivots


def _oracle_solve(A, b, n):
    m, pivots = _oracle_rref([list(row) + [bi] for row, bi in zip(A, b)], n)
    if any(row[n] != 0 for row in m[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        particular[c] = row[n]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, c in zip(m, pivots):
            vec[c] = -row[f]
        basis.append(vec)
    return particular, basis


def _random_elimination_systems(count):
    """Seeded systems of four kinds: small integers, fractions, integers at
    the stretch scale, and small integer rows with right-hand sides at that
    scale (the shape of the walk's fiber systems).  Some rows repeat a
    combination of others, some rows and columns are zero."""
    rng = random.Random(1968)
    for index in range(count):
        kind = ("int", "fraction", "big", "walk")[index % 4]
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)

        def entry(big):
            if rng.random() < 0.35:
                return 0
            if big:
                return rng.randint(-MU, MU)
            if kind == "fraction":
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            return rng.randint(-4, 4)

        A = [[entry(kind == "big") for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.5:
            i, j, k = rng.randrange(nr), rng.randrange(nr), rng.randrange(nr)
            a, c = rng.randint(-3, 3), rng.randint(-3, 3)
            A[i] = [a * x + c * y for x, y in zip(A[j], A[k])]
        if rng.random() < 0.2:
            A[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.2:
            col = rng.randrange(nc)
            for row in A:
                row[col] = 0
        big_rhs = kind in ("big", "walk")
        if rng.random() < 0.5:
            x = [entry(big_rhs) for _ in range(nc)]
            b = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]
        else:
            b = [entry(big_rhs) for _ in range(nr)]
        yield A, b


def _dict_rows(A):
    """Dense rows as {col: coeff} rows of their nonzeros."""
    return [{j: a for j, a in enumerate(row) if a} for row in A]


def test_elimination_matches_fraction_oracle():
    stats = {"inconsistent": 0, "deficient": 0, "big": 0, "fraction": 0}
    for A, b in _random_elimination_systems(400):
        n = len(A[0])
        expected = _oracle_solve(A, b, n)
        rows = _dict_rows(A)
        got = solve_affine(rows, b, n)
        assert (got is None) == (expected is None)
        if got is not None:
            # the int answer divided out is the oracle's, and each vector is
            # cleared by the lcm of its denominators, as clear_denominators does
            vectors, want = [got[0], *got[1]], [expected[0], *expected[1]]
            assert [[Fraction(x, scale) for x in vec] for scale, vec in vectors] == want
            assert vectors == [clear_denominators(vec) for vec in want]
            assert all(type(x) is int for scale, vec in vectors for x in (scale, *vec))
        rank = len(_oracle_rref(A, n)[1])
        assert mat_rank(rows, n) == rank
        assert mat_rank(_dict_rows([list(row) + [bi] for row, bi in zip(A, b)]), n + 1) == len(
            _oracle_rref([list(row) + [bi] for row, bi in zip(A, b)], n + 1)[1]
        )
        stats["inconsistent"] += got is None
        stats["deficient"] += rank < min(len(A), n)
        stats["big"] += any(abs(Fraction(x)) >= 1 << 40 for x in b)
        stats["fraction"] += any(type(x) is Fraction for row in A for x in row)
    assert min(stats.values()) >= 40, stats


def test_elimination_edge_cases():
    assert solve_affine([], [], 0) == ((1, []), [])
    assert solve_affine([{}], [0], 2) == ((1, [0, 0]), [(1, [1, 0]), (1, [0, 1])])
    assert solve_affine([{}], [Fraction(1, 3)], 2) is None
    assert solve_affine([{0: -2, 2: 4}], [MU], 3) == ((1, [-MU // 2, 0, 0]), [(1, [0, 1, 0]), (1, [2, 0, 1])])
    assert solve_affine([{0: -2, 2: 4}], [MU + 1], 3) == ((2, [-MU - 1, 0, 0]), [(1, [0, 1, 0]), (1, [2, 0, 1])])
    assert mat_rank([{}, {}], 2) == 0
    assert mat_rank([{0: MU, 1: 1}, {0: MU * MU, 1: MU}], 2) == 1


@pytest.mark.parametrize(
    "call, row, column",
    [
        (lambda: solve_affine([{2: 1}], [5], 2), 0, 2),
        (lambda: solve_affine([{0: 1}, {-1: 1}], [5, 1], 2), 1, -1),
        (lambda: mat_rank([{2: 1}], 2), 0, 2),
        (lambda: feasible_nonneg([{3: 1}], [5], 2), 0, 3),
    ],
)
def test_columns_outside_the_width_are_refused(call, row, column):
    # a column of width landed on the row's multiplier, one of -1 on its
    # right-hand side, and the answers came back wrong without a word
    with pytest.raises(ValueError, match=rf"^row {row}: column {column} is out of range 0\.\.1$"):
        call()
