"""Moduli cones of combinatorial types: dimension, regularity, walls.

A type with V vertices and E edges determines a cone inside the
position-by-length space of dimension ``2V + E``, cut out by the linear
equations ``position(v) - position(u) - length(e) * slope(e) = 0``.  The
cone dimension is computed by exact integer row reduction; there is no
numerical rank anywhere.

Once vertex 0 is pinned, positions follow from edge lengths along a BFS
spanning tree: `path_coefficients` gives each vertex its tree-path edge
coefficients, `path` the coefficients between two vertices and `xy_rows`
their displacement rows.  This is the one coordinate system of the
package: the cycle system, the fiber rows, the incidence scan in
`corpus` and the walk's velocities in `walk` are all written in it.
`integer_positions` places each vertex from its parent along its tree
edge.  `cone_dimension` takes its rank from the cycle system, which is
far smaller than the full constraint matrix, and empty for a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from tropcurves.canonical import aut_order, canonical_key
from tropcurves.graphs import (
    CombinatorialType,
    Edge,
    Leg,
    check_balancing,
    face_contract,
    overvalency,
    vadd,
)
from tropcurves.linalg import Polyhedron, clear_denominators, feasible_nonneg, mat_rank

NICE = "nice"
SIMPLE_WALL = "simple_wall"
OTHER = "other"


class StratumClass(NamedTuple):
    kind: str
    four_valent_vertex: int | None = None

    def is_nice(self):
        return self.kind == NICE

    def is_simple_wall(self):
        return self.kind == SIMPLE_WALL


@dataclass(frozen=True)
class ModuliCone:
    """Linear description of the cone of curves of a fixed type."""

    ctype: CombinatorialType
    ambient_dim: int
    constraint_rows: tuple[tuple[int, ...], ...]
    dimension: int
    aut_order: int
    realizable: bool


def path_coefficients(t: CombinatorialType):
    """For each vertex v, the edge coefficients of the BFS-tree path 0 -> v.

    position(v) = position(0) + sum_i coeffs[v][i] * length_i * slope_i
    for any curve of the type; cycle closure makes the choice of path
    immaterial on the cone.  A child's coefficients are its parent's plus
    +1 on the tree edge when the edge points away from the parent, -1
    when it points towards it, so the tree edges are the keys, and a
    vertex's own tree edge is the last key of its dict.
    """
    n = t.n_vertices()
    adjacent = [[] for _ in range(n)]
    for i, e in enumerate(t.edges):
        if not e.is_loop():
            adjacent[e.u].append((i, e.v, 1))
            adjacent[e.v].append((i, e.u, -1))
    coeffs = [None] * n
    coeffs[0] = {}
    queue = [0]
    for x in queue:
        for i, other, sign in adjacent[x]:
            if coeffs[other] is None:
                coeffs[other] = {**coeffs[x], i: sign}
                queue.append(other)
    return coeffs


def path(coeffs, u, v):
    """Edge coefficients of position(v) - position(u) along the tree.

    The two root paths share the edges from vertex 0 down to the meeting
    point of u and v, with equal coefficients; those cancel and are left
    out, so the dict holds exactly the edges of the tree path u -> v.
    """
    out = dict(coeffs[v])
    for j, c in coeffs[u].items():
        c = out.get(j, 0) - c
        if c:
            out[j] = c
        else:
            del out[j]
    return out


def xy_rows(t: CombinatorialType, edge_coeffs):
    """The x and y displacement rows {edge: coeff * slope} of edge coefficients, in one pass."""
    xs, ys = {}, {}
    for j, c in edge_coeffs.items():
        sx, sy = t.edges[j].slope
        xs[j], ys[j] = c * sx, c * sy
    return [xs, ys]


def cycle_system(t: CombinatorialType, coeffs):
    """Rows over the length variables expressing that every cycle closes up.

    For each non-tree edge f = (u, v) the displacement along f plus the
    displacement along the tree path v -> u must vanish; each such cycle
    contributes one row per plane coordinate.
    """
    tree = set().union(*coeffs)
    rows = []
    for f, e in enumerate(t.edges):
        if f not in tree:
            rows += xy_rows(t, {f: 1, **path(coeffs, e.v, e.u)})
    return rows


def constraint_matrix(t: CombinatorialType):
    """Rows over (x_0, y_0, ..., x_{V-1}, y_{V-1}, l_0, ..., l_{E-1})."""
    nv = t.n_vertices()
    ne = len(t.edges)
    width = 2 * nv + ne
    rows = []
    for i, e in enumerate(t.edges):
        for coord in (0, 1):
            row = [0] * width
            if not e.is_loop():
                row[2 * e.v + coord] += 1
                row[2 * e.u + coord] -= 1
            row[2 * nv + i] -= e.slope[coord]
            rows.append(tuple(row))
    return tuple(rows)


def cone_dimension(t: CombinatorialType):
    """dim = 2V + E - rank(constraints), via the cycle-system fast path (no rows for a tree)."""
    ne = len(t.edges)
    if t.first_betti() == 0:
        return 2 + ne
    return 2 + ne - mat_rank(cycle_system(t, path_coefficients(t)), ne)


def fiber_rows(t: CombinatorialType, points):
    """The equations of the fiber over the edge lengths.

    Positions are eliminated along a spanning tree; the first marked
    point pins the translation, and each later mark i contributes the x
    and y rows of the tree path from mark i-1's vertex to its own, with
    right-hand side points[i] - points[i-1].  Pairs measured from mark 0
    instead would be the running sums of these, a unit-triangular change
    of rows with the same row space and solutions, but each would repeat
    the edges near the root.  Returns (rows, rhs, coeffs): rows are
    {edge: coeff} dicts, the cycle system first, and coeffs are the path
    coefficients.
    """
    coeffs = path_coefficients(t)
    rows = cycle_system(t, coeffs)
    rhs = [0] * len(rows)
    for i in range(1, len(points)):
        rows += xy_rows(t, path(coeffs, t.legs[i - 1].vertex, t.legs[i].vertex))
        rhs += [points[i][k] - points[i - 1][k] for k in (0, 1)]
    return rows, rhs, coeffs


def reduced_fiber_polyhedron(t: CombinatorialType, points):
    """The fiber polyhedron over the length coordinates only.

    Returns (P, coeffs) where P is the Polyhedron of `fiber_rows` with
    nonnegative edge lengths.
    """
    rows, rhs, coeffs = fiber_rows(t, points)
    return Polyhedron(len(t.edges), rows, rhs), coeffs


def integer_positions(t: CombinatorialType, coeffs, lengths, anchor):
    """Vertex positions (x_0, y_0, x_1, ...) of int lengths, on ints: the
    first mark's vertex sits at the int point `anchor`, or vertex 0 at the
    origin when there is none.  One O(V) pass from vertex 0 places each
    vertex from its parent along its tree edge, the last key of its path
    dict, after any of its ancestors not yet placed."""
    shifts = [(0, 0)] + [None] * (len(coeffs) - 1)
    for v in range(1, len(coeffs)):
        chain = []
        while shifts[v] is None:
            j, c = next(reversed(coeffs[v].items()))
            e = t.edges[j]
            step = c * lengths[j]
            chain.append((v, step * e.slope[0], step * e.slope[1]))
            v = e.u if c > 0 else e.v
        x, y = shifts[v]
        for w, dx, dy in reversed(chain):
            x, y = x + dx, y + dy
            shifts[w] = (x, y)
    x0 = y0 = 0
    if anchor is not None:
        dx, dy = shifts[t.legs[0].vertex]
        x0, y0 = anchor[0] - dx, anchor[1] - dy
    return [c for dx, dy in shifts for c in (x0 + dx, y0 + dy)]


def scaled_positions(t: CombinatorialType, points, coeffs, lengths, scale):
    """(S, the vertex positions (x_0, y_0, x_1, ...) times S, as ints) of
    the int lengths divided by `scale`; the first marked point pins the
    translation, else vertex 0 sits at 0.  The point joins the lengths
    over one common denominator S and the tree paths are summed on ints."""
    anchor = None
    if points:
        x, y = points[0]
        common = lcm(scale, x.denominator, y.denominator)
        lengths = [l * (common // scale) for l in lengths]
        scale = common
        anchor = (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
    return scale, integer_positions(t, coeffs, lengths, anchor)


def expand_lengths(t: CombinatorialType, points, coeffs, lengths):
    """Rebuild the full position-length vector from a length solution;
    the first marked point pins the translation, else vertex 0 sits at 0.
    The lengths are cleared to ints once, the positions built by
    `scaled_positions` and each coordinate divided once."""
    scale, ints = clear_denominators(lengths)
    scale, ints = scaled_positions(t, points, coeffs, ints, scale)
    return [Fraction(c, scale) for c in ints] + list(lengths)


def is_realizable(t: CombinatorialType):
    """True when the open cone (all lengths strictly positive) is nonempty.

    It is a cone, so that is when the cycle rows have a solution with
    every length at least 1: with l = 1 + x, one phase-1 LP asks for
    x >= 0 with each row's value at x equal to minus the row's sum.
    """
    rows = cycle_system(t, path_coefficients(t))
    return feasible_nonneg(rows, [-sum(row.values()) for row in rows], len(t.edges))


def cone_of(t: CombinatorialType):
    """Assemble the moduli cone of a balanced type."""
    bad = check_balancing(t)
    if bad is not None:
        raise ValueError(f"type is not balanced at vertex {bad}")
    return ModuliCone(
        ctype=t,
        ambient_dim=2 * t.n_vertices() + len(t.edges),
        constraint_rows=constraint_matrix(t),
        dimension=cone_dimension(t),
        aut_order=aut_order(t),
        realizable=is_realizable(t),
    )


def expected_dimension(t: CombinatorialType):
    """|degree| + #marks + (rank(N) - 3) * chi - overvalency, with rank(N)=2."""
    chi = 1 - t.first_betti()
    return len(t.degree()) + t.n_marks() - chi - overvalency(t)


def classify(t: CombinatorialType):
    """Nice / simple wall / other, per valency and regularity, from one
    `stars()` pass: the overvalency of valencies 3 and 4 is the 4-count."""
    if t.is_weightless():
        vals = [len(star) for star in t.stars()]
        four = [v for v, k in enumerate(vals) if k == 4]
        if len(four) <= 1 and all(k in (3, 4) for k in vals):
            if cone_dimension(t) == len(t.degree()) + t.n_marks() - (1 - t.first_betti()) - len(four):
                return StratumClass(SIMPLE_WALL, four_valent_vertex=four[0]) if four else StratumClass(NICE)
    return StratumClass(OTHER)


def split_vertex(t: CombinatorialType, v, moving_germs):
    """Split vertex v in two, moving the named germs to a fresh vertex.

    ``moving_germs`` is a collection of germ descriptors as returned by
    ``CombinatorialType.star``: ("edge", index, end) or ("leg", index).
    The two vertices are joined by a new edge whose slope is forced by
    balancing.  Returns (new_type, new_edge_index); the new vertex gets
    index V and all other indices are unchanged.
    """
    moving = set(moving_germs)
    star = t.star(v)
    have = {d for _, d in star}
    if not moving <= have:
        raise ValueError("germ descriptor not at the split vertex")
    new_v = t.n_vertices()
    moving_sum = (0, 0)
    edges, legs = list(t.edges), list(t.legs)
    for s, d in star:
        if d not in moving:
            continue
        moving_sum = vadd(moving_sum, s)
        if d[0] == "leg":
            legs[d[1]] = Leg(new_v, s)
            continue
        _, i, end = d
        # edges[i] is read again for a loop's second germ, so a loop with
        # both germs moving ends as a loop at new_v, and one with a single
        # moving germ opens into a real edge
        e = edges[i]
        edges[i] = Edge(new_v, e.v, e.slope) if end == 0 else Edge(e.u, new_v, e.slope)
    # new edge oriented v -> new_v; balancing at new_v forces its slope to
    # be the sum of the germs that moved
    new_edge_index = len(edges)
    edges.append(Edge(v, new_v, moving_sum))
    weights = t.weights + (0,)
    return CombinatorialType(weights, tuple(edges), tuple(legs)), new_edge_index


def resolve_wall(t: CombinatorialType):
    """The three types splitting a simple wall's 4-valent vertex.

    Each result pairs the germs {g0, gi} at the old vertex against the
    complementary pair; the new edge slope is the negated germ-pair sum.
    Contracting the new edge recovers the wall type.
    """
    cls = classify(t)
    if not cls.is_simple_wall():
        raise ValueError("resolve_wall requires a simple wall")
    v = cls.four_valent_vertex
    descriptors = [d for _, d in t.star(v)]
    out = []
    for i in (1, 2, 3):
        moving = [descriptors[j] for j in range(1, 4) if j != i]
        new_t, new_edge = split_vertex(t, v, moving)
        out.append((new_t, new_edge))
    key = canonical_key(t)
    for new_t, new_edge in out:
        if canonical_key(face_contract(new_t, [new_edge])) != key:
            raise AssertionError("wall resolution failed to contract back")
    return tuple(out)
