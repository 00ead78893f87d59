"""The evaluation map on contracted legs and the structure of its fibers.

The fiber of a combinatorial type over a point configuration is the
polyhedron cut out inside the (closed) moduli cone by pinning the vertex
carrying the i-th contracted leg to the i-th point.  Everything is exact:
emptiness, dimension, interval endpoints and unbounded ray directions are
all certified by the rational simplex underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tropcurves.cones import expand_lengths, reduced_fiber_polyhedron
from tropcurves.graphs import CombinatorialType, ParametrizedCurve, face_contract
from tropcurves.linalg import solve_affine

F = Fraction


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered tuple of pairwise distinct rational plane points."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = tuple((F(p[0]), F(p[1])) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise ValueError("configuration points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    def translated(self, dx, dy):
        return PointConfiguration(tuple((x + dx, y + dy) for x, y in self.points))


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


def _check_marks(t: CombinatorialType, cfg: PointConfiguration):
    n = len(cfg)
    marks = t.contracted_legs()
    if len(marks) != n:
        raise ValueError(f"type has {len(marks)} contracted legs, configuration has {n} points")
    if tuple(marks) != tuple(range(n)):
        raise ValueError("contracted legs must come first in the leg order")


def curve_at(t: CombinatorialType, x):
    """Interpret a point of the cone polyhedron; contracts vanished edges.

    Returns (type, curve) where the type differs from t exactly when some
    length is zero.
    """
    nv = t.n_vertices()
    lengths = [x[2 * nv + i] for i in range(len(t.edges))]
    vanished = [i for i, l in enumerate(lengths) if l == 0]
    if not vanished:
        positions = tuple((x[2 * v], x[2 * v + 1]) for v in range(nv))
        return t, ParametrizedCurve(t, tuple(lengths), positions)
    t2, vmap, emap = face_contract(t, vanished, with_maps=True)
    positions = [None] * t2.n_vertices()
    for v in range(nv):
        positions[vmap[v]] = (x[2 * v], x[2 * v + 1])
    lengths2 = [None] * len(t2.edges)
    for old, new in emap.items():
        lengths2[new] = lengths[old]
    return t2, ParametrizedCurve(t2, tuple(lengths2), tuple(positions))


def _cone_dim(t: CombinatorialType):
    """Dimension of the closed cone (nonnegative-length solutions); the
    cone holds 0, so the length polyhedron is never empty."""
    return reduced_fiber_polyhedron(t, ())[0].dim() + 2


def fiber(t: CombinatorialType, cfg: PointConfiguration):
    """Exact description of the evaluation fiber of ``t`` over ``cfg``.

    Positions are eliminated along a spanning tree, so all simplex work
    happens over the edge-length coordinates.
    """
    _check_marks(t, cfg)
    P, coeffs = reduced_fiber_polyhedron(t, cfg.points)
    cone_dim = _cone_dim(t)
    base = P.feasible_point()
    if base is None:
        return FiberDescription("empty", -1, cone_dim)
    zero = P.implicit_zero_vars()
    rows = [list(row) for row in P.rows]
    rhs = list(P.rhs)
    for i in zero:
        row = [F(0)] * P.n
        row[i] = F(1)
        rows.append(row)
        rhs.append(F(0))
    if not rows:
        rows = [[F(0)] * P.n]
        rhs = [F(0)]
    sol = solve_affine(rows, rhs)
    assert sol is not None
    l0, basis = sol
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
    v = basis[0]
    lo, hi = None, None
    lo_finite = hi_finite = False
    for i in range(P.n):
        if v[i] == 0:
            continue
        bound = -l0[i] / v[i]
        if v[i] > 0:
            if not lo_finite or bound > lo:
                lo, lo_finite = bound, True
        else:
            if not hi_finite or bound < hi:
                hi, hi_finite = bound, True
    endpoints = []
    rays = []
    for s, finite, sign in ((lo, lo_finite, -1), (hi, hi_finite, 1)):
        if finite:
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
        bounded=(lo_finite and hi_finite),
    )


def genericity_conclusion(t: CombinatorialType, cfg: PointConfiguration):
    """When the fiber is nonempty, the underlying graph must be 3-valent
    and weightless with all non-leg slopes nonzero; returns the verdict."""
    fb = fiber(t, cfg)
    if fb.is_empty():
        return True
    if not t.is_weightless():
        return False
    if any(t.valency(v) != 3 for v in range(t.n_vertices())):
        return False
    return all(e.slope != (0, 0) for e in t.edges)


def is_general(cfg, d, g):
    """Decide general position of ``cfg`` relative to the enumerated corpus.

    True iff for every combinatorial type in the corpus of degree-d
    genus-g types with len(cfg) contracted legs, the evaluation fiber has
    codimension 2n in the closed cone or is empty.  The corpus bound is a
    design contract (slope coordinates at most d); beyond desk scale the
    verdict is "unknown", never a silent False.
    """
    if not isinstance(cfg, PointConfiguration):
        pts = tuple(tuple(p) for p in cfg)
        if len(set(pts)) != len(pts):
            return False  # a repeated point is never general
        cfg = PointConfiguration(pts)
    if d > 3:
        return "unknown"  # corpus bound: exhaustive enumeration kept to d <= 3
    if g >= 2 or (d == 3 and g == 1):
        return "unknown"  # b1 >= 2 is refused; no scan of the d = 3, b1 = 1 cores is certified
    from tropcurves.corpus import scan_fibers

    n = len(cfg)
    # genus g' < g: decorated genus-g types reduce to these scans; any
    # placement at a lower genus is an overdetermined coincidence and
    # already breaks generality
    if any(scan_fibers(d, g2, cfg) for g2 in range(g)):
        return False
    return all(fb.is_empty() or fb.codimension() == 2 * n for _t, fb in scan_fibers(d, g, cfg))
