"""Weighted metric graphs with ordered legs and tropical plane curve types.

Three layers of data:

* `TropicalGraph` -- a connected weighted graph with ordered legs and
  positive rational edge lengths (legs are infinitely long).
* `CombinatorialType` -- the same graph without lengths, plus an integer
  slope 2-vector for every oriented edge and leg.  A non-loop edge stores
  the slope of one chosen orientation (tail -> head); the reverse germ is
  its negation.  Loops carry two germ slopes that are negatives of each
  other, and since geometric consistency forces them to vanish, a loop
  with a nonzero slope is rejected at construction.
* `ParametrizedCurve` -- a combinatorial type with lengths and rational
  vertex positions in the plane, consistent edge by edge.  It stores them
  only as ints over one common denominator, and builds their Fractions
  on each read.

`Edge` and `Leg` are named tuples, equal to their field tuples.  Every
value is immutable after construction; every operation below is a pure
function.  Weights and vertex indices are ints; lengths and coordinates
are ints or Fractions: a float is refused, never converted.

`components(n, pairs)` is the one union-find: connectivity, contraction,
floors, elevator shapes, line-arrangement irreducibility and marking
classes all read its roots.  `CombinatorialType.stars()` gathers every
vertex's germs in one pass, for questions about all stars or valencies at
once, and `star(v)` gathers v's alone, in the same germ order.  Neither
result is cached on the type: an index kept on each of the 303 curves of
`enumerate_curves(4, 0)` would hold 3.2 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import NamedTuple

Vec = tuple[int, int]

ZERO2 = (0, 0)


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def vneg(a):
    return (-a[0], -a[1])


_INT = {int}
_EXACT = {int, Fraction}


def exact(x, where):
    """x as an int or a Fraction.  A float is refused, naming `where`: it
    holds a binary fraction, not the rational meant.  Any other rational
    type is converted."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"{where} {x!r} is a float, not an int or a Fraction")
    return Fraction(x)


def _value_name(i, ne):
    """Names the i-th value given to a curve with ne edges: its lengths,
    then x and y of each vertex."""
    return f"edge {i}: length" if i < ne else f"vertex {(i - ne) // 2}: {'xy'[(i - ne) % 2]}"


class Edge(NamedTuple):
    """An edge oriented u -> v carrying the slope of that orientation."""

    u: int
    v: int
    slope: Vec = ZERO2

    def is_loop(self):
        return self.u == self.v


class Leg(NamedTuple):
    """A leg attached to `vertex`, oriented away from it."""

    vertex: int
    slope: Vec = ZERO2

    def is_contracted(self):
        return self.slope == ZERO2


def components(n, pairs):
    """Each vertex's root after joining the pairs in order, the root of u
    hung under the root of v; u and v are connected when their roots agree.

    This is the only union-find: `face_contract` numbers merged vertices
    by their sorted roots, so the union direction fixes that numbering.
    """
    parent = list(range(n))
    for u, v in pairs:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving: v moves to its grandparent
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        parent[u] = v
    for x in range(n):  # each x points at its root, so later finds stop there
        r = parent[x]
        while parent[r] != r:
            r = parent[r]
        parent[x] = r
    return parent


def _check_graph(weights, ends, leg_vertices):
    """Refuse, naming the vertex, edge or leg, the first of: no vertex, a
    weight that is not an int (a bool is not), a negative weight, an edge
    endpoint or a leg vertex that is not an int, an endpoint or a leg
    vertex out of range, a disconnected graph.  Each condition is one pass
    over its values; its offender is sought only when that pass fails."""
    n = len(weights)
    if not n:
        raise ValueError("graph needs at least one vertex")
    if not _INT.issuperset(map(type, weights)):
        v = next(v for v, w in enumerate(weights) if type(w) is not int)
        raise ValueError(f"vertex {v}: weight {weights[v]!r} is not an int")
    if min(weights) < 0:
        v = next(v for v, w in enumerate(weights) if w < 0)
        raise ValueError(f"vertex {v}: weight {weights[v]} is negative")
    flat = list(chain.from_iterable(ends))
    if not _INT.issuperset(map(type, flat)):
        k = next(k for k, x in enumerate(flat) if type(x) is not int)
        raise ValueError(f"edge {k // 2}: endpoint {flat[k]!r} is not an int")
    if not _INT.issuperset(map(type, leg_vertices)):
        j = next(j for j, v in enumerate(leg_vertices) if type(v) is not int)
        raise ValueError(f"leg {j}: vertex {leg_vertices[j]!r} is not an int")
    vertices = set(range(n))
    if not vertices.issuperset(flat):
        k = next(k for k, x in enumerate(flat) if x not in vertices)
        raise ValueError(f"edge {k // 2}: endpoint {flat[k]} is out of range 0..{n - 1}")
    if not vertices.issuperset(leg_vertices):
        j = next(j for j, v in enumerate(leg_vertices) if v not in vertices)
        raise ValueError(f"leg {j}: vertex {leg_vertices[j]} is out of range 0..{n - 1}")
    roots = components(n, ends)
    if len(set(roots)) != 1:
        v = next(v for v, r in enumerate(roots) if r != roots[0])
        raise ValueError(f"graph is disconnected: vertex {v} is not joined to vertex 0")


@dataclass(frozen=True)
class TropicalGraph:
    """A connected weighted metric graph with ordered legs."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    lengths: tuple[Fraction, ...]
    legs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "edges", tuple((u, v) for u, v in self.edges))
        lengths = tuple(Fraction(exact(x, f"edge {i}: length")) for i, x in enumerate(self.lengths))
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "legs", tuple(self.legs))
        if len(self.lengths) != len(self.edges):
            raise ValueError(f"one length per edge required: {len(self.lengths)} for {len(self.edges)} edges")
        _check_graph(self.weights, self.edges, self.legs)
        for i, x in enumerate(self.lengths):
            if x <= 0:
                raise ValueError(f"edge {i}: length {x} is not strictly positive")

    def n_vertices(self):
        return len(self.weights)


@dataclass(frozen=True)
class CombinatorialType:
    """A weighted graph with ordered legs and integer slopes on germs."""

    weights: tuple[int, ...]
    edges: tuple[Edge, ...]
    legs: tuple[Leg, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "legs", tuple(self.legs))
        _check_graph(self.weights, [(u, v) for u, v, _s in self.edges], [v for v, _s in self.legs])
        for i, (u, v, slope) in enumerate(self.edges):
            if u == v and slope != ZERO2:
                raise ValueError(f"edge {i}: a loop with nonzero slope {slope} is not realizable")

    # -- structure ------------------------------------------------------
    def n_vertices(self):
        return len(self.weights)

    def _gather(self, germs):
        """Append each germ to germs[vertex], for each vertex whose entry
        is a list and not None, in the one germ order: edges by index (a
        loop gives both its germs), then legs.  A germ is a (slope,
        descriptor) pair."""
        for i, e in enumerate(self.edges):
            if (at := germs[e.u]) is not None:
                at.append((e.slope, ("edge", i, 0)))
            if (at := germs[e.v]) is not None:
                at.append((vneg(e.slope), ("edge", i, 1)))
        for j, leg in enumerate(self.legs):
            if (at := germs[leg.vertex]) is not None:
                at.append((leg.slope, ("leg", j)))
        return germs

    def stars(self):
        """Every vertex's germs, in one pass."""
        return self._gather([[] for _ in self.weights])

    def star(self, v):
        """The germs at v alone, as in `stars`."""
        if not 0 <= v < len(self.weights):
            raise ValueError(f"vertex {v} out of range")
        germs = [None] * len(self.weights)
        germs[v] = []
        return self._gather(germs)[v]

    # -- degree data -----------------------------------------------------
    def contracted_legs(self):
        return tuple(i for i, leg in enumerate(self.legs) if leg.is_contracted())

    def n_marks(self):
        return len(self.contracted_legs())

    def degree(self):
        """Slopes of the non-contracted legs, in leg order."""
        return tuple(leg.slope for leg in self.legs if not leg.is_contracted())

    def extended_degree(self):
        return tuple(leg.slope for leg in self.legs)

    def first_betti(self):
        return len(self.edges) - len(self.weights) + 1

    def is_weightless(self):
        return all(w == 0 for w in self.weights)


# ---------------------------------------------------------------------------
# operations on graphs and types
# ---------------------------------------------------------------------------


def check_balancing(t: CombinatorialType):
    """None when every vertex star sums to zero, else the first bad vertex."""
    for v, star in enumerate(t.stars()):
        total = (0, 0)
        for s, _ in star:
            total = vadd(total, s)
        if total != ZERO2:
            return v
    return None


def overvalency(t: CombinatorialType):
    return sum(len(star) - 3 for star in t.stars() if len(star) > 3)


def face_contract(t: CombinatorialType, edge_indices, with_maps=False):
    """Weighted edge contraction of an arbitrary edge subset.

    This is the contraction appearing on the boundary of a moduli cone:
    the named edge lengths go to zero and their endpoints merge.  Genus,
    balancing and the extended degree are all preserved.  Merged vertices
    are numbered by their sorted `components` roots.  With `with_maps`,
    returns (type, vertex_map, edge_map): vertex_map sends each old vertex
    to its merged vertex, edge_map each surviving old edge index to its new
    index (contracted edges are absent).
    """
    contracted = set(edge_indices)
    subset = sorted(contracted)
    for i in subset:
        if not (0 <= i < len(t.edges)):
            raise ValueError("edge index out of range")
    n = t.n_vertices()
    roots = components(n, [(t.edges[i].u, t.edges[i].v) for i in subset])
    reps = sorted(set(roots))
    new_id = {r: k for k, r in enumerate(reps)}
    vertex_map = {v: new_id[r] for v, r in enumerate(roots)}

    # weight of a merged vertex: sum of weights plus the genus of the
    # contracted subgraph landing there, 1 - vertices + edges
    weights = [1] * len(reps)
    for v in range(n):
        weights[vertex_map[v]] += t.weights[v] - 1
    for i in subset:
        weights[vertex_map[t.edges[i].u]] += 1

    edges = []
    edge_map = {}
    for i, e in enumerate(t.edges):
        if i in contracted:
            continue
        edge_map[i] = len(edges)
        edges.append(Edge(vertex_map[e.u], vertex_map[e.v], e.slope))
    legs = tuple(Leg(vertex_map[leg.vertex], leg.slope) for leg in t.legs)
    new_t = CombinatorialType(tuple(weights), tuple(edges), legs)
    return (new_t, vertex_map, edge_map) if with_maps else new_t


# ---------------------------------------------------------------------------
# parametrized curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, repr=False)
class ParametrizedCurve:
    """A combinatorial type with exact lengths and vertex positions.

    For every non-loop edge u -> v the positions satisfy
    ``position(v) - position(u) == length * slope``, so the whole map to
    the plane is determined by the stored data.  Lengths and coordinates
    are ints or Fractions; a float is refused.  The curve stores one
    integer form: `ints` holds the lengths, then x and y of each vertex,
    times `den`, their least common denominator.  The check compares those
    ints, and so do the generated `==` and `hash`, on (ctype, den, ints),
    which agrees with comparing the Fractions.  Nothing else is stored:
    `lengths` and `positions` are tuples of Fractions built from those
    ints on each read.  The class declares its own `__slots__` rather than
    `slots=True`, whose replacement class the generated frozen
    `__setattr__` does not know: so any assignment, to a field or not,
    raises `FrozenInstanceError`.  A curve pickles and copies as its
    constructor call.
    """

    __slots__ = ("ctype", "den", "ints")
    ctype: CombinatorialType
    den: int
    ints: tuple[int, ...]

    def __init__(self, ctype: CombinatorialType, lengths, positions):
        values = list(lengths)  # then x and y of each vertex
        ne = len(values)
        if ne != len(ctype.edges):
            raise ValueError(f"one length per edge required: {ne} for {len(ctype.edges)} edges")
        add = values.append
        for x, y in positions:
            add(x)
            add(y)
        nv = (len(values) - ne) // 2
        if nv != ctype.n_vertices():
            raise ValueError(f"one position per vertex required: {nv} for {ctype.n_vertices()} vertices")
        types = set(map(type, values))
        if types == _INT:
            den = 1
            ints = tuple(values)
        else:
            if not types <= _EXACT:  # a float, or a rational of some other type
                values = [exact(x, _value_name(i, ne)) for i, x in enumerate(values)]
            den = lcm(*{x.denominator for x in values if type(x) is Fraction})
            ints = tuple(x * den if type(x) is int else x.numerator * (den // x.denominator) for x in values)
        if ne and min(ints[:ne]) <= 0:
            i = next(i for i, x in enumerate(ints[:ne]) if x <= 0)
            raise ValueError(f"edge {i}: length {values[i]} is not strictly positive")
        # a loop has slope zero (CombinatorialType refuses any other), so it fixes no position
        for i, (u, v, (sx, sy)) in enumerate(ctype.edges):
            u, v, ln = ne + 2 * u, ne + 2 * v, ints[i]
            if ints[v] - ints[u] != ln * sx or ints[v + 1] - ints[u + 1] != ln * sy:
                raise ValueError(f"edge {i}: positions violate geometric consistency")
        put = object.__setattr__
        put(self, "ctype", ctype)
        put(self, "den", den)
        put(self, "ints", ints)

    @property
    def lengths(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.ints[: len(self.ctype.edges)])

    @property
    def positions(self) -> tuple[tuple[Fraction, Fraction], ...]:
        den, ints, ne = self.den, self.ints, len(self.ctype.edges)
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in zip(ints[ne::2], ints[ne + 1 :: 2]))

    def __repr__(self):
        return f"ParametrizedCurve(ctype={self.ctype!r}, lengths={self.lengths!r}, positions={self.positions!r})"

    def __reduce__(self):
        return ParametrizedCurve, (self.ctype, self.lengths, self.positions)

    def multiplicity(self):
        """Product over vertices of the |det| of two of the three
        non-contracted germ slopes; a vertex with fewer than three such
        germs counts 1.  The germs are gathered in one pass, in `star`
        order: edges by index, then legs (loops have slope zero)."""
        t = self.ctype
        germs = [[] for _ in t.weights]
        for u, v, (sx, sy) in t.edges:
            if sx or sy:
                germs[u].append((sx, sy))
                germs[v].append((-sx, -sy))
        for v, slope in t.legs:
            if slope != ZERO2:
                germs[v].append(slope)
        m = 1
        for star in germs:
            if len(star) > 3:
                raise ValueError("multiplicity undefined at vertices with more than three non-contracted germs")
            if len(star) == 3:
                (ax, ay), (bx, by), _c = star
                m *= abs(ax * by - ay * bx)
        return m
