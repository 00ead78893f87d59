import itertools
import random
from fractions import Fraction

from tropcurves.linalg import Polyhedron, feasible_nonneg, mat_rank, solve_affine


def test_rank_basic():
    assert mat_rank([[1, 0], [0, 1]]) == 2
    assert mat_rank([[1, 2], [2, 4]]) == 1
    assert mat_rank([]) == 0
    assert mat_rank([[0, 0, 0]]) == 0
    assert mat_rank([[Fraction(1, 2), 1], [1, 2], [0, 1]]) == 2


def test_solve_affine():
    sol = solve_affine([[1, 1], [1, -1]], [3, 1])
    assert sol is not None
    part, basis = sol
    assert part == [2, 1]
    assert basis == []
    assert solve_affine([[1, 1], [1, 1]], [0, 1]) is None
    part, basis = solve_affine([[1, 1, 1]], [6])
    assert len(basis) == 2
    assert sum(part) == 6


def test_lp_feasible_and_optimal():
    # x + y = 4, x,y >= 0: minimize x -> 0, maximize x -> 4
    P = Polyhedron(2, nonneg=[0, 1])
    P.add_eq({0: 1, 1: 1}, 4)
    res = P.optimize({0: 1}, sense="min")
    assert res.status == "optimal" and res.value == 0
    res = P.optimize({0: 1}, sense="max")
    assert res.status == "optimal" and res.value == 4
    assert P.dim() == 1


def test_lp_infeasible():
    P = Polyhedron(2, nonneg=[0, 1])
    P.add_eq({0: 1, 1: 1}, -1)
    assert P.feasible_point() is None
    assert P.dim() == -1


def test_lp_unbounded_ray():
    # x - y = 0 with x,y >= 0 is a ray
    P = Polyhedron(2, nonneg=[0, 1])
    P.add_eq({0: 1, 1: -1}, 0)
    res = P.optimize({0: 1}, sense="max")
    assert res.status == "unbounded"
    assert res.ray[0] == res.ray[1] > 0
    assert P.dim() == 1


def test_free_variables():
    # z free, x >= 0, constraint z = x - 5: dim 1, z can be negative
    P = Polyhedron(2, nonneg=[0])
    P.add_eq({1: 1, 0: -1}, -5)
    res = P.optimize({1: 1}, sense="min")
    assert res.status == "optimal" and res.value == -5
    res = P.optimize({1: 1}, sense="max")
    assert res.status == "unbounded"


def test_implicit_equalities_and_interior():
    # x + y = 0, x,y >= 0 forces x = y = 0
    P = Polyhedron(2, nonneg=[0, 1])
    P.add_eq({0: 1, 1: 1}, 0)
    assert P.implicit_zero_vars() == [0, 1]
    assert P.dim() == 0
    # interior point of the segment x + y = 1
    Q = Polyhedron(2, nonneg=[0, 1])
    Q.add_eq({0: 1, 1: 1}, 1)
    p = Q.interior_point()
    assert p[0] > 0 and p[1] > 0 and p[0] + p[1] == 1


def test_degenerate_cycling_guard():
    # A classic degenerate instance; Bland's rule must terminate.
    P = Polyhedron(4, nonneg=[0, 1, 2, 3])
    P.add_eq({0: Fraction(1, 4), 1: -8, 2: -1, 3: 9}, 0)
    P.add_eq({0: Fraction(1, 2), 1: -12, 2: -Fraction(1, 2), 3: 3}, 0)
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


def _oracle_min(A, b, c):
    """(status, value) of min c.x over A x = b, x >= 0.

    A nonempty polyhedron without lines has a vertex; it is unbounded below
    iff an extreme ray (a vertex of A r = 0, sum r = 1, r >= 0) descends.
    """
    n = len(c)
    vertices = _oracle_vertices(A, b, n)
    if not vertices:
        return "infeasible", None
    rays = _oracle_vertices(A + [[1] * n], [0] * len(A) + [1], n)
    if any(_dot(c, r) < 0 for r in rays):
        return "unbounded", None
    return "optimal", min(_dot(c, v) for v in vertices)


def _random_systems(count):
    rng = random.Random(2005)
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        yield A, b, c


def _satisfies(A, b, x):
    return all(v >= 0 for v in x) and all(_dot(row, x) == bi for row, bi in zip(A, b))


def test_simplex_matches_vertex_oracle():
    seen = set()
    for A, b, c in _random_systems(300):
        n = len(c)
        feasible = _oracle_vertices(A, b, n) != []
        rows = [{j: a for j, a in enumerate(row) if a} for row in A]
        assert feasible_nonneg(rows, b, n) == feasible
        P = Polyhedron(n, nonneg=range(n))
        for row, bi in zip(rows, b):
            P.add_eq(row, bi)
        point = P.feasible_point()
        assert (point is not None) == feasible
        if point is not None:
            assert _satisfies(A, b, point)
        objective = dict(enumerate(c))
        for sense, sign in (("min", 1), ("max", -1)):
            status, value = _oracle_min(A, b, [sign * a for a in c])
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
