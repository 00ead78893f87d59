"""The evaluation map on contracted legs and the structure of its fibers.

The fiber of a combinatorial type over a point configuration is the
polyhedron cut out inside the (closed) moduli cone by pinning the vertex
carrying the i-th contracted leg to the i-th point.  Everything is exact:
emptiness, dimension, interval endpoints and unbounded ray directions are
all certified by the rational simplex underneath.  General position of
a configuration, a statement about the fibers of a whole corpus of
types, is `corpus.is_general`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from tropcurves.cones import expand_lengths, reduced_fiber_polyhedron
from tropcurves.graphs import CombinatorialType, ParametrizedCurve, check_balancing, exact, face_contract
from tropcurves.linalg import clear_denominators, solve_affine

F = Fraction


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered tuple of pairwise distinct rational plane points, given
    as ints or Fractions and stored as Fractions; a float is refused.  A
    Fraction is kept as the object given."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        def coordinate(c, k, axis):
            return c if type(c) is F else F(exact(c, f"point {k}: {axis}"))

        pts = tuple((coordinate(p[0], k, "x"), coordinate(p[1], k, "y")) for k, p in enumerate(self.points))
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise ValueError("configuration points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    @cached_property
    def cleared(self):
        """(L, the points times L as int pairs), L the lcm of their
        denominators: worked out on the first read, then kept."""
        scale, flat = clear_denominators([c for p in self.points for c in p])
        return scale, tuple(zip(flat[::2], flat[1::2]))


@dataclass(frozen=True)
class FiberDescription:
    """Classification of one evaluation fiber inside a fixed closed cone.

    kind is one of "empty", "point", "interval", "higher".  Interval
    endpoints that lie on the cone boundary carry the degenerate type
    obtained by contracting the vanished edges.
    """

    kind: str
    dimension: int
    cone_dimension: int
    point: tuple | None = None  # coordinates in position-length space
    inside: bool | None = None  # point case: all lengths strictly positive
    endpoints: tuple = ()  # interval case: ("curve", type, curve) entries
    rays: tuple = ()  # interval case: unbounded direction vectors
    bounded: bool | None = None

    def is_empty(self):
        return self.kind == "empty"

    def codimension(self):
        if self.kind == "empty":
            return None
        return self.cone_dimension - self.dimension


def _check_input(t: CombinatorialType, cfg: PointConfiguration):
    bad = check_balancing(t)  # as `cone_of` refuses it
    if bad is not None:
        raise ValueError(f"type is not balanced at vertex {bad}")
    n = len(cfg)
    marks = t.contracted_legs()
    if len(marks) != n:
        raise ValueError(f"type has {len(marks)} contracted legs, configuration has {n} points")
    if tuple(marks) != tuple(range(n)):
        leg = next(i for i, m in enumerate(marks) if i != m)
        raise ValueError(f"type has non-contracted leg {leg} before contracted leg {marks[leg]}; contracted legs must come first")


def curve_at(t: CombinatorialType, x):
    """Interpret a point of the cone polyhedron; contracts vanished edges.

    Returns (type, curve) where the type differs from t exactly when some
    length is zero.
    """
    nv = t.n_vertices()
    lengths = [x[2 * nv + i] for i in range(len(t.edges))]
    vanished = [i for i, l in enumerate(lengths) if l == 0]
    t2, vmap, emap = face_contract(t, vanished, with_maps=True)
    positions = [None] * t2.n_vertices()
    for v in range(nv):
        positions[vmap[v]] = (x[2 * v], x[2 * v + 1])
    lengths2 = [None] * len(t2.edges)
    for old, new in emap.items():
        lengths2[new] = lengths[old]
    return t2, ParametrizedCurve(t2, tuple(lengths2), tuple(positions))


def _cone_dim(t: CombinatorialType):
    """Dimension of the closed cone (nonnegative-length solutions): the
    length polyhedron's `dim`, one relative-interior LP when the type has
    cycles, plus the two translations.  The cone holds 0, so the length
    polyhedron is never empty."""
    return reduced_fiber_polyhedron(t, ())[0].dim() + 2


def fiber(t: CombinatorialType, cfg: PointConfiguration):
    """Exact description of the evaluation fiber of ``t`` over ``cfg``.

    Positions are eliminated along a spanning tree, so all simplex work
    happens over the edge-length coordinates.  `solve_affine` on the
    fiber's own dict rows comes first: no solution is an empty fiber, and
    a unique one is empty when a length is negative and otherwise is the
    point fiber, on ints.  Only a hull with a free direction takes an LP:
    `Polyhedron.interior_point` is None when the fiber is empty, and a
    unit row {i: 1} pins each length that point leaves at 0, which
    vanishes on the whole fiber; `solve_affine` on the rows and these
    then gives the affine hull, its dimension and the geometry on ints.
    A unique solution's zeros are exactly the unit rows that LP would add,
    so both ways give one description.
    """
    _check_input(t, cfg)
    P, coeffs = reduced_fiber_polyhedron(t, cfg.points)
    cone_dim = _cone_dim(t)
    sol = solve_affine(P.rows, P.rhs, P.n)
    if sol is not None and sol[1]:  # a free direction: the LP decides
        interior = P.interior_point()
        if interior is None:
            sol = None
        else:
            units = [{i: 1} for i, x in enumerate(interior) if not x]
            sol = solve_affine(P.rows + units, P.rhs + [0] * len(units), P.n)
    elif sol is not None and min(sol[0][1], default=0) < 0:
        sol = None  # the one solution has a negative length
    if sol is None:
        return FiberDescription("empty", -1, cone_dim)
    (scale, ints), basis = sol
    l0 = [F(x, scale) for x in ints]
    dim = len(basis)
    if len(cfg) == 0:
        dim += 2  # translations survive when nothing is pinned

    def full_point(lengths):
        return expand_lengths(t, cfg.points, coeffs, lengths)

    if dim == 0:
        inside = all(x > 0 for x in l0)
        return FiberDescription("point", 0, cone_dim, point=tuple(full_point(l0)), inside=inside)
    if dim >= 2:
        return FiberDescription("higher", dim, cone_dim)
    # one-dimensional: walk the line l0 + s*v against the length bounds
    v = [F(x, basis[0][0]) for x in basis[0][1]]
    lo = max((-a / b for a, b in zip(l0, v) if b > 0), default=None)
    hi = min((-a / b for a, b in zip(l0, v) if b < 0), default=None)
    endpoints = []
    rays = []
    for s, sign in ((lo, -1), (hi, 1)):
        if s is not None:
            lengths = [a + s * b for a, b in zip(l0, v)]
            t2, curve = curve_at(t, full_point(lengths))
            endpoints.append(("curve", t2, curve))
        else:
            shifted = full_point([a + sign * b for a, b in zip(l0, v)])
            origin = full_point(l0)
            rays.append(tuple(s - o for s, o in zip(shifted, origin)))
    return FiberDescription(
        "interval",
        1,
        cone_dim,
        endpoints=tuple(endpoints),
        rays=tuple(rays),
        bounded=(lo is not None and hi is not None),
    )
