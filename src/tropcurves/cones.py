"""Moduli cones of combinatorial types: dimension, regularity, walls.

A type with V vertices and E edges determines a cone inside the
position-by-length space of dimension ``2V + E``, cut out by the linear
equations ``position(v) - position(u) - length(e) * slope(e) = 0``.  The
cone dimension is computed by exact integer row reduction; there is no
numerical rank anywhere.  A fast path goes through the cycle system of a
spanning tree (positions are determined by lengths up to translation),
which gives the same rank with far smaller matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tropcurves.canonical import aut_order, types_isomorphic
from tropcurves.graphs import (
    CombinatorialType,
    Edge,
    Leg,
    check_balancing,
    face_contract,
    overvalency,
    vadd,
)
from tropcurves.linalg import Polyhedron, mat_rank

NICE = "nice"
SIMPLE_WALL = "simple_wall"
OTHER = "other"


@dataclass(frozen=True)
class StratumClass:
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


def spanning_tree(t: CombinatorialType):
    """(parent_vertex, parent_edge_index) arrays for a BFS tree rooted at 0."""
    n = t.n_vertices()
    adjacent = [[] for _ in range(n)]
    for i, e in enumerate(t.edges):
        if not e.is_loop():
            adjacent[e.u].append((i, e.v))
            adjacent[e.v].append((i, e.u))
    parent = [-1] * n
    parent_edge = [-1] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    tree_edges = set()
    for x in queue:
        for i, other in adjacent[x]:
            if not seen[other]:
                seen[other] = True
                parent[other] = x
                parent_edge[other] = i
                tree_edges.add(i)
                queue.append(other)
    return parent, parent_edge, tree_edges


def _tree_path_coeffs(t, parent, parent_edge, src, dst):
    """Edge coefficients of the tree path src -> dst (+1 along, -1 against)."""

    def to_root(v):
        out = []
        while parent[v] != -1:
            out.append((parent_edge[v], v))
            v = parent[v]
        return out

    up_src = to_root(src)
    up_dst = to_root(dst)
    src_edges = {i for i, _ in up_src}
    dst_edges = {i for i, _ in up_dst}
    common = src_edges & dst_edges
    coeffs = {}
    # disp(src -> dst) = disp(src -> root) - disp(dst -> root); crossing
    # child -> parent follows the stored orientation iff child is the tail
    for i, child in up_src:
        if i in common:
            continue
        e = t.edges[i]
        coeffs[i] = coeffs.get(i, 0) + (1 if e.u == child else -1)
    for i, child in up_dst:
        if i in common:
            continue
        e = t.edges[i]
        coeffs[i] = coeffs.get(i, 0) - (1 if e.u == child else -1)
    return coeffs


def cycle_system(t: CombinatorialType):
    """Rows over the length variables expressing that every cycle closes up.

    For each non-tree edge f = (u, v) the displacement along f plus the
    displacement along the tree path v -> u must vanish; each such cycle
    contributes one row per plane coordinate.
    """
    parent, parent_edge, tree_edges = spanning_tree(t)
    rows = []
    for i, e in enumerate(t.edges):
        if i in tree_edges:
            continue
        if e.is_loop():
            # loop displacement: length * slope = 0 (slope is zero anyway)
            rows.append({i: e.slope[0]})
            rows.append({i: e.slope[1]})
            continue
        coeffs = _tree_path_coeffs(t, parent, parent_edge, e.v, e.u)
        row_x = {i: e.slope[0]}
        row_y = {i: e.slope[1]}
        for j, c in coeffs.items():
            s = t.edges[j].slope
            row_x[j] = row_x.get(j, 0) + c * s[0]
            row_y[j] = row_y.get(j, 0) + c * s[1]
        rows.append(row_x)
        rows.append(row_y)
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
    """dim = 2V + E - rank(constraints), via the cycle-system fast path."""
    rows = cycle_system(t)
    dense = []
    ne = len(t.edges)
    for row in rows:
        dense.append([row.get(i, 0) for i in range(ne)])
    return 2 + ne - mat_rank(dense)


def path_coefficients(t: CombinatorialType):
    """For each vertex, the tree-path edge coefficients from vertex 0.

    position(v) = position(0) + sum_i coeffs[v][i] * length_i * slope_i
    for any curve of the type; cycle closure makes the choice of path
    immaterial on the cone.
    """
    parent, parent_edge, _tree = spanning_tree(t)
    coeffs = []
    for v in range(t.n_vertices()):
        coeffs.append(_tree_path_coeffs(t, parent, parent_edge, 0, v))
    return coeffs


def fiber_rows(t: CombinatorialType, points):
    """The equations of the fiber over the edge lengths.

    Positions are eliminated along a spanning tree; the first marked
    point pins the translation, later marks contribute difference rows.
    Returns (rows, rhs, coeffs): rows are {edge: coeff} dicts, the cycle
    system first, and coeffs are the path coefficients.
    """
    rows = cycle_system(t)
    rhs = [0] * len(rows)
    coeffs = path_coefficients(t)
    if points:
        v0 = t.legs[0].vertex
        base = coeffs[v0]
        for i in range(1, len(points)):
            vi = t.legs[i].vertex
            diff = dict(coeffs[vi])
            for j, c in base.items():
                diff[j] = diff.get(j, 0) - c
            for coord in (0, 1):
                rows.append({j: c * t.edges[j].slope[coord] for j, c in diff.items()})
                rhs.append(points[i][coord] - points[0][coord])
    return rows, rhs, coeffs


def reduced_fiber_polyhedron(t: CombinatorialType, points):
    """The fiber polyhedron over the length coordinates only.

    Returns (P, coeffs) where P is the Polyhedron of `fiber_rows` with
    nonnegative edge lengths.
    """
    ne = len(t.edges)
    P = Polyhedron(ne)
    rows, rhs, coeffs = fiber_rows(t, points)
    for row, b in zip(rows, rhs):
        P.add_eq(row, b)
    return P, coeffs


def expand_lengths(t: CombinatorialType, points, coeffs, lengths):
    """Rebuild the full position-length vector from a length solution."""
    nv = t.n_vertices()
    if points:
        v0 = t.legs[0].vertex
        dx = sum(lengths[j] * (c * t.edges[j].slope[0]) for j, c in coeffs[v0].items())
        dy = sum(lengths[j] * (c * t.edges[j].slope[1]) for j, c in coeffs[v0].items())
        root = (points[0][0] - dx, points[0][1] - dy)
    else:
        root = (Fraction(0), Fraction(0))
    out = [Fraction(0)] * (2 * nv + len(t.edges))
    for v in range(nv):
        px = root[0] + sum(lengths[j] * (c * t.edges[j].slope[0]) for j, c in coeffs[v].items())
        py = root[1] + sum(lengths[j] * (c * t.edges[j].slope[1]) for j, c in coeffs[v].items())
        out[2 * v] = px
        out[2 * v + 1] = py
    for j, l in enumerate(lengths):
        out[2 * nv + j] = l
    return out


def is_realizable(t: CombinatorialType):
    """True when the open cone (all lengths strictly positive) is nonempty."""
    return reduced_fiber_polyhedron(t, ())[0].strict_point() is not None


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


def is_regular(t: CombinatorialType):
    return cone_dimension(t) == expected_dimension(t)


def classify(t: CombinatorialType):
    """Nice / simple wall / other, per valency and regularity."""
    if t.is_weightless():
        vals = [t.valency(v) for v in range(t.n_vertices())]
        four = [v for v, k in enumerate(vals) if k == 4]
        if all(k == 3 for k in vals) and is_regular(t):
            return StratumClass(NICE)
        if len(four) == 1 and all(k in (3, 4) for k in vals) and is_regular(t):
            return StratumClass(SIMPLE_WALL, four_valent_vertex=four[0])
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
    for s, d in star:
        if d in moving:
            moving_sum = vadd(moving_sum, s)
    edges = list(t.edges)
    for s, d in star:
        if d not in moving or d[0] != "edge":
            continue
        _, i, end = d
        e = edges[i]
        if e.is_loop():
            both = ("edge", i, 0) in moving and ("edge", i, 1) in moving
            if both:
                if end == 0:
                    edges[i] = Edge(new_v, new_v, e.slope)
                continue
            # one germ of the loop moves: the loop opens into a real edge
            edges[i] = Edge(new_v, e.v, e.slope) if end == 0 else Edge(e.u, new_v, e.slope)
        else:
            edges[i] = Edge(new_v, e.v, e.slope) if end == 0 else Edge(e.u, new_v, e.slope)
    legs = list(t.legs)
    for s, d in star:
        if d in moving and d[0] == "leg":
            j = d[1]
            legs[j] = Leg(new_v, legs[j].slope)
    # new edge oriented v -> new_v; balancing at new_v forces its slope to
    # be the sum of the germs that moved
    new_edge_index = len(edges)
    edges.append(Edge(v, new_v, moving_sum))
    weights = t.weights + (0,)
    return CombinatorialType(weights, tuple(edges), tuple(legs)), new_edge_index


def resolve_wall(t: CombinatorialType, vertex=None):
    """The three types splitting a simple wall's 4-valent vertex.

    Each result pairs the germs {g0, gi} at the old vertex against the
    complementary pair; the new edge slope is the negated germ-pair sum.
    Contracting the new edge recovers the wall type.
    """
    cls = classify(t)
    if not cls.is_simple_wall():
        raise ValueError("resolve_wall requires a simple wall")
    v = cls.four_valent_vertex if vertex is None else vertex
    star = t.star(v)
    if len(star) != 4:
        raise ValueError("split vertex is not 4-valent")
    descriptors = [d for _, d in star]
    out = []
    for i in (1, 2, 3):
        moving = [descriptors[j] for j in range(1, 4) if j != i]
        new_t, new_edge = split_vertex(t, v, moving)
        out.append((new_t, new_edge))
    for new_t, new_edge in out:
        if not types_isomorphic(face_contract(new_t, [new_edge]), t):
            raise AssertionError("wall resolution failed to contract back")
    return tuple(out)
