"""Families of parametrized tropical curves over a loop-free base curve.

A family over a base tropical curve is finite data: a combinatorial type
for every base edge and leg, affine length and position functions along
it, a parametrized curve over every base vertex, and weighted
contractions relating the edge types to the vertex curves.  Validation
checks the three compatibilities of the definition at the endpoints of
every base edge, which suffices for affine data, together with
balancing of the edge types.

Affine functions on a base edge are stored as value-at-tail plus slope;
fibers at irrational parameters are defined by affine extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tropcurves.graphs import ParametrizedCurve, TropicalGraph, check_balancing, exact

F = Fraction


@dataclass(frozen=True)
class AffineFunction:
    """value(q) = value_at_tail + slope * dist(tail, q) along a base edge."""

    value: Fraction
    slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", F(exact(self.value, "affine function: value")))
        object.__setattr__(self, "slope", F(exact(self.slope, "affine function: slope")))

    def at(self, dist):
        return self.value + self.slope * dist


@dataclass(frozen=True)
class BaseCurve:
    """A loop-free connected tropical curve serving as the family base."""

    graph: TropicalGraph

    def __post_init__(self):
        for i, (u, v) in enumerate(self.graph.edges):
            if u == v:
                raise ValueError(f"base curve edge {i} is a loop at vertex {u}")


@dataclass(frozen=True)
class Contraction:
    """A weighted edge contraction G_e -> G_w given by its vertex map and
    the surviving-edge correspondence (None = contracted away)."""

    vertex_map: tuple[int, ...]
    edge_map: tuple  # per edge of G_e: target edge index in G_w or None


@dataclass(frozen=True)
class FamilyDatum:
    """The finite datum of a family over a base curve.

    * extended_degree: leg slopes common to every fiber;
    * edge_types[e]: combinatorial type over base edge or leg e;
    * lengths[e][gamma]: AffineFunction for each edge gamma of the type;
    * positions[e][u]: pair of AffineFunctions for each vertex u;
    * vertex_curves[w]: parametrized curve over base vertex w;
    * contractions[(w, e)]: contraction of the edge type onto the vertex
      curve, for each base edge or leg e with tail or head w.

    Base legs are indexed by ("leg", j) and edges by ("edge", i); an
    edge's two germs give two contraction entries, keyed by its vertices.
    """

    base: BaseCurve
    extended_degree: tuple
    edge_types: dict
    lengths: dict
    positions: dict
    vertex_curves: dict
    contractions: dict


@dataclass(frozen=True)
class FamilyVerdict:
    ok: bool
    violation: str | None = None
    detail: str | None = None


def _edge_refs(base: BaseCurve):
    refs = []
    for i, (u, v) in enumerate(base.graph.edges):
        refs.append((("edge", i), u, v, base.graph.lengths[i]))
    for j, v in enumerate(base.graph.legs):
        refs.append((("leg", j), v, None, None))
    return refs


def _fiber_at(fam: FamilyDatum, ref, dist):
    """(lengths, positions) of the fiber at distance dist along base edge
    or leg ref."""
    t = fam.edge_types[ref]
    lengths = tuple(fam.lengths[ref][i].at(dist) for i in range(len(t.edges)))
    positions = tuple(
        (fam.positions[ref][u][0].at(dist), fam.positions[ref][u][1].at(dist))
        for u in range(t.n_vertices())
    )
    return lengths, positions


def validate_family(fam: FamilyDatum):
    """Check the family compatibilities; returns the first violation.

    (1) interior fibers are parametrized curves of the stated type with
        the stated extended degree, a length function on every edge and
        position functions at every vertex;
    (2) at a base vertex, the contracted image of every type edge has the
        length given by the edge's length function;
    (3) the vertex curve's positions match the position functions;
    (4) the vertex curve has the stated extended degree, and the
        contraction keeps each leg at its vertex.
    """
    for ref, tail, head, blen in _edge_refs(fam.base):
        t = fam.edge_types.get(ref)
        if t is None:
            return FamilyVerdict(False, "missing-type", str(ref))
        if t.extended_degree() != tuple(fam.extended_degree):
            return FamilyVerdict(False, "degree-mismatch", str(ref))
        bad = check_balancing(t)
        if bad is not None:
            return FamilyVerdict(False, "unbalanced-fiber", f"{ref} vertex {bad}")
        missing = [f"length {i}" for i in range(len(t.edges)) if i not in fam.lengths.get(ref, {})]
        missing += [f"position {u}" for u in range(t.n_vertices()) if u not in fam.positions.get(ref, {})]
        if missing:
            return FamilyVerdict(False, "missing-function", f"{ref} {missing[0]}")
        # sample parameters: endpoints (and midpoint of legs) suffice for
        # affine data; interior positivity is convexity in between
        samples = [F(0), blen] if blen is not None else [F(0), F(1)]
        mid = sum(samples) / 2
        lengths, positions = _fiber_at(fam, ref, mid)
        if any(l <= 0 for l in lengths):
            return FamilyVerdict(False, "fiber-leaves-stratum", f"{ref} at {mid}")
        try:
            ParametrizedCurve(t, lengths, positions)
        except ValueError as exc:
            return FamilyVerdict(False, "fiber-not-a-curve", f"{ref} at {mid}: {exc}")
        fibers = [_fiber_at(fam, ref, dist) for dist in samples]
        for dist, (lengths, _) in zip(samples, fibers):
            if any(l < 0 for l in lengths):
                return FamilyVerdict(False, "negative-length", f"{ref} at {dist}")
        # the ends sit at the first samples: the tail at 0, an edge's head at blen
        ends = [tail] if head is None else [tail, head]
        for w, (lengths, positions) in zip(ends, fibers):
            curve = fam.vertex_curves.get(w)
            contraction = fam.contractions.get((w, ref))
            if curve is None or contraction is None:
                return FamilyVerdict(False, "missing-vertex-data", f"vertex {w}, {ref}")
            # (2): lengths match through the contraction
            for i, want in enumerate(lengths):
                target = contraction.edge_map[i]
                have = curve.lengths[target] if target is not None else F(0)
                if want != have:
                    return FamilyVerdict(
                        False, "length-compatibility", f"{ref} edge {i} at vertex {w}"
                    )
            # (3): positions match through the contraction
            for u, want in enumerate(positions):
                if curve.positions[contraction.vertex_map[u]] != want:
                    return FamilyVerdict(
                        False, "position-compatibility", f"{ref} vertex {u} at base vertex {w}"
                    )
            # the vertex curve has the family's legs, in order, and the
            # contraction keeps each leg at its vertex
            if curve.ctype.extended_degree() != tuple(fam.extended_degree):
                return FamilyVerdict(False, "degree-mismatch", f"vertex {w}")
            for j, leg in enumerate(t.legs):
                if contraction.vertex_map[leg.vertex] != curve.ctype.legs[j].vertex:
                    return FamilyVerdict(False, "leg-attachment", f"{ref} leg {j}")
    return FamilyVerdict(True)


def induced_map_slopes(fam: FamilyDatum, ref):
    """Slope of the induced moduli map along a base edge or leg.

    Coordinates: the edge-length functions' slopes followed by the
    vertex-position functions' slopes of the fiber type over `ref`.
    """
    t = fam.edge_types[ref]
    out = []
    for i in range(len(t.edges)):
        out.append(fam.lengths[ref][i].slope)
    for u in range(t.n_vertices()):
        out.append(fam.positions[ref][u][0].slope)
        out.append(fam.positions[ref][u][1].slope)
    return tuple(out)


def _uniform_family(base: BaseCurve, t, lengths, curve: ParametrizedCurve, ray=None):
    """The family over `base` with every fiber of type t, identity maps,
    and `curve` over every base vertex.  Along each base edge or leg the
    fiber starts at lengths and curve's positions and moves by ray (laid
    out as `evaluation.curve_at` reads a point; fixed when None)."""
    nv, ne = t.n_vertices(), len(t.edges)
    if ray is None:
        ray = (0,) * (2 * nv + ne)
    ident = Contraction(tuple(range(nv)), tuple(range(ne)))
    edge_types, funcs, positions, contractions = {}, {}, {}, {}
    for ref, tail, head, _blen in _edge_refs(base):
        edge_types[ref] = t
        funcs[ref] = {i: AffineFunction(lengths[i], ray[2 * nv + i]) for i in range(ne)}
        positions[ref] = {
            u: (
                AffineFunction(curve.positions[u][0], ray[2 * u]),
                AffineFunction(curve.positions[u][1], ray[2 * u + 1]),
            )
            for u in range(nv)
        }
        contractions[(tail, ref)] = ident
        if head is not None:
            contractions[(head, ref)] = ident
    return FamilyDatum(
        base=base,
        extended_degree=t.extended_degree(),
        edge_types=edge_types,
        lengths=funcs,
        positions=positions,
        vertex_curves={w: curve for w in range(base.graph.n_vertices())},
        contractions=contractions,
    )


def constant_family(base: BaseCurve, curve: ParametrizedCurve):
    """The family with every fiber equal to `curve` and identity maps."""
    return _uniform_family(base, curve.ctype, curve.lengths, curve)


def ray_family(terminal_type, base_lengths, ray, base_point_curve):
    """The family over a single leg moving along a terminal ray.

    The fiber at distance q is the base point (base_lengths, the
    positions of base_point_curve) plus q * ray.  Used to revalidate the
    walk's genus-drop witness as an honest family.
    """
    base = BaseCurve(TropicalGraph(weights=(0,), edges=(), lengths=(), legs=(0,)))
    return _uniform_family(base, terminal_type, base_lengths, base_point_curve, ray)
