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
  as ints over one common denominator and makes their Fractions only
  when they are read.

All values are immutable after construction; every operation below is a
pure function.  Lengths and coordinates are ints or Fractions: a float
is refused, never converted.

`components(n, pairs)` is the one union-find: connectivity, contraction,
floors, elevator shapes, line-arrangement irreducibility and marking
classes all read its roots.  `CombinatorialType.stars()` gathers every
vertex's germs in one pass, for questions about all stars or valencies at
once, and `star(v)` gathers v's alone, in the same germ order.  Neither
result is cached on the type: an index kept on each of the 303 curves of
`enumerate_curves(4, 0)` would hold 3.2 MB.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import lcm

Vec = tuple[int, int]

ZERO2 = (0, 0)


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def vneg(a):
    return (-a[0], -a[1])


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


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


@dataclass(frozen=True)
class Edge:
    """An edge oriented u -> v carrying the slope of that orientation."""

    u: int
    v: int
    slope: Vec = ZERO2

    def is_loop(self):
        return self.u == self.v


@dataclass(frozen=True)
class Leg:
    """A leg attached to `vertex`, oriented away from it."""

    vertex: int
    slope: Vec = ZERO2

    def is_contracted(self):
        return self.slope == ZERO2


def components(n, pairs):
    """Each vertex's root after joining the pairs in order, the root of u
    hung under the root of v; u and v are connected when their roots agree.

    This is the only union-find: `_contract_core` numbers merged vertices
    by their sorted roots, so the union direction fixes that numbering.
    """
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving: x moves to its grandparent
        return x

    for u, v in pairs:
        parent[root(u)] = root(v)
    return list(map(root, range(n)))


def _check_graph(weights, ends, leg_vertices):
    """Refuse a negative weight, an edge endpoint or a leg vertex out of
    range, or a disconnected graph, naming the vertex, edge or leg."""
    n = len(weights)
    if n == 0:
        raise ValueError("graph needs at least one vertex")
    if min(weights) < 0:
        v = next(v for v, w in enumerate(weights) if w < 0)
        raise ValueError(f"vertex {v}: weight {weights[v]} is negative")
    for i, (u, v) in enumerate(ends):
        if not (0 <= u < n and 0 <= v < n):
            bad = v if 0 <= u < n else u
            raise ValueError(f"edge {i}: endpoint {bad} is out of range 0..{n - 1}")
    for j, v in enumerate(leg_vertices):
        if not 0 <= v < n:
            raise ValueError(f"leg {j}: vertex {v} is out of range 0..{n - 1}")
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
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        lengths = tuple(Fraction(exact(x, f"edge {i}: length")) for i, x in enumerate(self.lengths))
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "legs", tuple(int(v) for v in self.legs))
        if len(self.lengths) != len(self.edges):
            raise ValueError(f"one length per edge required: {len(self.lengths)} for {len(self.edges)} edges")
        _check_graph(self.weights, self.edges, self.legs)
        for i, x in enumerate(self.lengths):
            if x <= 0:
                raise ValueError(f"edge {i}: length {x} is not strictly positive")

    def n_vertices(self):
        return len(self.weights)

    def valency(self, v):
        val = sum(1 for leg in self.legs if leg == v)
        for u, w in self.edges:
            if u == v:
                val += 1
            if w == v:
                val += 1
        return val


@dataclass(frozen=True)
class CombinatorialType:
    """A weighted graph with ordered legs and integer slopes on germs."""

    weights: tuple[int, ...]
    edges: tuple[Edge, ...]
    legs: tuple[Leg, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "legs", tuple(self.legs))
        _check_graph(self.weights, [(e.u, e.v) for e in self.edges], [leg.vertex for leg in self.legs])
        for i, e in enumerate(self.edges):
            if e.u == e.v and e.slope != ZERO2:
                raise ValueError(f"edge {i}: a loop with nonzero slope {e.slope} is not realizable")

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

    def valency(self, v):
        return len(self.star(v))

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

    def is_immersed(self):
        """No contracted edge, and no two germs at a vertex pointing the
        same way (the map is locally injective away from contracted legs)."""
        for e in self.edges:
            if e.slope == ZERO2:
                return False
        for star in self.stars():
            germs = [s for s, _ in star if s != ZERO2]
            for i in range(len(germs)):
                for j in range(i + 1, len(germs)):
                    a, b = germs[i], germs[j]
                    if det2(a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0:
                        return False
        return True


# ---------------------------------------------------------------------------
# operations on graphs and types
# ---------------------------------------------------------------------------


def genus(g):
    """1 - chi + sum of vertex weights, for a connected graph."""
    nv, ne = g.n_vertices(), len(g.edges)
    # chi = b0 - b1 = |V| - |E| for a connected graph
    return 1 - (nv - ne) + sum(g.weights)


def is_stable(g):
    """Weight-0 vertices need valency >= 3; weight-1 vertices need >= 1."""
    for v in range(g.n_vertices()):
        w = g.weights[v]
        val = g.valency(v)
        if w == 0 and val < 3:
            return False
        if w == 1 and val < 1:
            return False
    return True


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


def _contract_core(t: CombinatorialType, edge_indices):
    """Weighted edge contraction; returns (type, vertex_map, edge_map).

    edge_map sends an old surviving edge index to its new index (contracted
    edges are absent); vertex_map sends old vertices to merged vertices.
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
    # contracted subgraph landing there
    weights = [0] * len(reps)
    comp_vertices = {}
    for v in range(n):
        comp_vertices.setdefault(vertex_map[v], set()).add(v)
        weights[vertex_map[v]] += t.weights[v]
    comp_edges = {k: 0 for k in range(len(reps))}
    for i in subset:
        e = t.edges[i]
        comp_edges[vertex_map[e.u]] += 1
    for k in range(len(reps)):
        b1 = comp_edges.get(k, 0) - len(comp_vertices[k]) + 1
        weights[k] += b1

    edges = []
    edge_map = {}
    for i, e in enumerate(t.edges):
        if i in contracted:
            continue
        edge_map[i] = len(edges)
        edges.append(Edge(vertex_map[e.u], vertex_map[e.v], e.slope))
    legs = tuple(Leg(vertex_map[leg.vertex], leg.slope) for leg in t.legs)
    new_t = CombinatorialType(tuple(weights), tuple(edges), legs)
    return new_t, vertex_map, edge_map


def contract(t: CombinatorialType, edge_indices):
    """Contract a set of contracted (slope-zero) edges.

    Collapsing an edge of nonzero slope would change the parametrized
    geometry, so it is rejected; use `face_contract` for the face maps of
    moduli cones, where any edge length may degenerate to zero.
    """
    for i in set(edge_indices):
        # an index out of range is refused by `_contract_core`, not read here
        if 0 <= i < len(t.edges) and t.edges[i].slope != ZERO2:
            raise ValueError(f"edge {i} has nonzero slope {t.edges[i].slope}; only contracted edges may be collapsed")
    new_t, _, _ = _contract_core(t, edge_indices)
    return new_t


def face_contract(t: CombinatorialType, edge_indices, with_maps=False):
    """Weighted edge contraction of an arbitrary edge subset.

    This is the contraction appearing on the boundary of a moduli cone:
    the named edge lengths go to zero and their endpoints merge.  Genus,
    balancing and the extended degree are all preserved.
    """
    new_t, vmap, emap = _contract_core(t, edge_indices)
    if with_maps:
        return new_t, vmap, emap
    return new_t


# ---------------------------------------------------------------------------
# parametrized curves
# ---------------------------------------------------------------------------


class ParametrizedCurve:
    """A combinatorial type with exact lengths and vertex positions.

    For every non-loop edge u -> v the positions satisfy
    ``position(v) - position(u) == length * slope``, so the whole map to
    the plane is determined by the stored data.  Lengths and coordinates
    are ints or Fractions; a float is refused.  The curve stores one
    integer form: `ints` holds the lengths, then x and y of each vertex,
    times `den`, their least common denominator.  The check compares those
    ints, and so do `==` and `hash`, which agrees with comparing the
    Fractions.  `lengths` and `positions` are read-only tuples of
    Fractions built on first read: a Fraction passed in is the object
    read back, and an int is read back as a Fraction.
    """

    __slots__ = ("ctype", "den", "ints", "_given", "_read")

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
            values = ints = tuple(values)
        else:
            if not types <= _EXACT:  # a float, or a rational of some other type
                values = [exact(x, _value_name(i, ne)) for i, x in enumerate(values)]
            den = lcm(*{x.denominator for x in values if type(x) is Fraction})
            ints = tuple(x * den if type(x) is int else x.numerator * (den // x.denominator) for x in values)
        if any(x <= 0 for x in ints[:ne]):
            i = next(i for i, x in enumerate(ints[:ne]) if x <= 0)
            raise ValueError(f"edge {i}: length {values[i]} is not strictly positive")
        # a loop has slope zero (CombinatorialType refuses any other), so it fixes no position
        for i, e in enumerate(ctype.edges):
            u, v, ln = ne + 2 * e.u, ne + 2 * e.v, ints[i]
            if (ints[v] - ints[u], ints[v + 1] - ints[u + 1]) != (ln * e.slope[0], ln * e.slope[1]):
                raise ValueError(f"edge {i}: positions violate geometric consistency")
        put = object.__setattr__
        put(self, "ctype", ctype)
        put(self, "den", den)
        put(self, "ints", ints)
        put(self, "_given", tuple(values))
        put(self, "_read", None)

    def _views(self):
        """(lengths, positions) as Fractions, built on the first call."""
        if self._read is None:
            values, ne = tuple(map(_fraction, self._given)), len(self.ctype.edges)
            object.__setattr__(self, "_read", (values[:ne], tuple(zip(values[ne::2], values[ne + 1 :: 2]))))
        return self._read

    @property
    def lengths(self) -> tuple[Fraction, ...]:
        return self._views()[0]

    @property
    def positions(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._views()[1]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.ints == other.ints and self.ctype == other.ctype

    def __hash__(self):
        return hash((self.ctype, self.den, self.ints))

    def __repr__(self):
        return f"ParametrizedCurve(ctype={self.ctype!r}, lengths={self.lengths!r}, positions={self.positions!r})"

    def __reduce__(self):
        return ParametrizedCurve, (self.ctype, self.lengths, self.positions)

    def evaluate(self):
        """Images of the contracted legs, in leg order."""
        return tuple(self.positions[self.ctype.legs[i].vertex] for i in self.ctype.contracted_legs())

    def multiplicity(self):
        """Product over vertices of the |det| of two of the three
        non-contracted germ slopes; a vertex with fewer than three such
        germs counts 1.  The germs are gathered in one pass, in `star`
        order: edges by index, then legs (loops have slope zero)."""
        t = self.ctype
        germs = [[] for _ in range(t.n_vertices())]
        for e in t.edges:
            if e.slope != ZERO2:
                germs[e.u].append(e.slope)
                germs[e.v].append(vneg(e.slope))
        for leg in t.legs:
            if leg.slope != ZERO2:
                germs[leg.vertex].append(leg.slope)
        m = 1
        for star in germs:
            if len(star) > 3:
                raise ValueError("multiplicity undefined at vertices with more than three non-contracted germs")
            if len(star) == 3:
                m *= abs(det2(star[0], star[1]))
        return m
