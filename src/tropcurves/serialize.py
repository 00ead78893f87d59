"""JSON encodings for every external interface.

Rationals are serialized as "p/q" strings (plain "p" when the
denominator is one).  All emitters sort keys and use compact separators,
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from tropcurves.cones import ModuliCone, classify
from tropcurves.evaluation import FiberDescription, PointConfiguration
from tropcurves.graphs import CombinatorialType, Edge, Leg, ParametrizedCurve, TropicalGraph

F = Fraction


def frac_str(x):
    x = F(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s):
    """A rational from a "p/q" string or an int; floats and booleans are
    refused, so no binary fraction enters the exact arithmetic."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"rational {s!r} is not an int or a \"p/q\" string")
    return F(s)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reader(read):
    """Make a missing key or a wrongly shaped value in the JSON given to
    `read` a ValueError that names it."""

    @functools.wraps(read)
    def checked(data):
        what = read.__name__.removesuffix("_from_json")
        try:
            return read(data)
        except KeyError as exc:
            raise ValueError(f"{what} JSON: missing key {exc.args[0]!r}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{what} JSON is malformed: {exc}") from None

    return checked


# --- graphs and types -------------------------------------------------------


def graph_to_json(g: TropicalGraph):
    return {
        "vertices": [{"id": v, "weight": g.weights[v]} for v in range(g.n_vertices())],
        "edges": [
            {"u": u, "v": v, "length": frac_str(l)} for (u, v), l in zip(g.edges, g.lengths)
        ],
        "legs": [{"vertex": v} for v in g.legs],
    }


def _vertices(data, what):
    """The vertex records sorted by id; the ids must be exactly 0..V-1."""
    vertices = sorted(data["vertices"], key=lambda d: d["id"])
    ids = [d["id"] for d in vertices]
    if ids != list(range(len(vertices))):
        raise ValueError(f"{what} JSON: vertex ids {ids} are not 0..{len(vertices) - 1}")
    return vertices


@_reader
def graph_from_json(data):
    vertices = _vertices(data, "graph")
    return TropicalGraph(
        weights=tuple(d["weight"] for d in vertices),
        edges=tuple((e["u"], e["v"]) for e in data["edges"]),
        lengths=tuple(parse_frac(e["length"]) for e in data["edges"]),
        legs=tuple(l["vertex"] for l in data["legs"]),
    )


def type_to_json(t: CombinatorialType):
    return {
        "vertices": [{"id": v, "weight": t.weights[v]} for v in range(t.n_vertices())],
        "edges": [{"u": e.u, "v": e.v, "slope": list(e.slope)} for e in t.edges],
        "legs": [{"vertex": leg.vertex, "slope": list(leg.slope)} for leg in t.legs],
    }


def int_pair(value, what):
    """``value`` as a tuple of two ints, or a ValueError naming ``what``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or any(type(x) is not int for x in value):
        raise ValueError(f"{what} {value!r} is not a pair of ints")
    return tuple(value)


@_reader
def type_from_json(data):
    vertices = _vertices(data, "type")
    what = "type JSON: slope"
    return CombinatorialType(
        weights=tuple(d["weight"] for d in vertices),
        edges=tuple(Edge(e["u"], e["v"], int_pair(e["slope"], what)) for e in data["edges"]),
        legs=tuple(Leg(l["vertex"], int_pair(l["slope"], what)) for l in data["legs"]),
    )


def curve_to_json(c: ParametrizedCurve):
    data = type_to_json(c.ctype)
    for e, l in zip(data["edges"], c.lengths):
        e["length"] = frac_str(l)
    data["positions"] = [[frac_str(p[0]), frac_str(p[1])] for p in c.positions]
    return data


@_reader
def curve_from_json(data):
    t = type_from_json(data)
    lengths = tuple(parse_frac(e["length"]) for e in data["edges"])
    positions = tuple((parse_frac(p[0]), parse_frac(p[1])) for p in data["positions"])
    return ParametrizedCurve(t, lengths, positions)


# --- configurations ---------------------------------------------------------


def config_to_json(cfg: PointConfiguration):
    return {"points": [[frac_str(x), frac_str(y)] for x, y in cfg.points]}


@_reader
def config_from_json(data):
    return PointConfiguration(tuple((parse_frac(x), parse_frac(y)) for x, y in data["points"]))


# --- cones and fibers -------------------------------------------------------


def cone_to_json(cone: ModuliCone):
    cls = classify(cone.ctype)
    return {
        "type": type_to_json(cone.ctype),
        "ambient_dim": cone.ambient_dim,
        "constraints": [list(row) for row in cone.constraint_rows],
        "dimension": cone.dimension,
        "aut_order": cone.aut_order,
        "realizable": cone.realizable,
        "classification": cls.kind,
        "four_valent_vertex": cls.four_valent_vertex,
    }


def fiber_to_json(fb: FiberDescription):
    out = {
        "kind": fb.kind,
        "dimension": fb.dimension,
        "cone_dimension": fb.cone_dimension,
    }
    if fb.kind == "point":
        out["inside"] = fb.inside
        out["point"] = [frac_str(x) for x in fb.point]
    if fb.kind == "interval":
        out["bounded"] = fb.bounded
        out["endpoints"] = [
            {"type": type_to_json(t2), "curve": curve_to_json(c)} for _tag, t2, c in fb.endpoints
        ]
        out["rays"] = [[frac_str(x) for x in ray] for ray in fb.rays]
    return out


# --- walk traces ------------------------------------------------------------


def trace_to_json(trace):
    events = []
    for ev in trace.events:
        events.append([str(x) if isinstance(x, Fraction) else x for x in ev])
    return {
        "events": events,
        "invariants": [list(kr) for kr in trace.invariants],
        "crossings": trace.crossings,
        "walls": [type_to_json(w) for w in trace.walls],
        "terminal": {
            "stratum": type_to_json(trace.terminal.stratum),
            "free_edge": trace.terminal.free_edge,
            "ray": [frac_str(x) for x in trace.terminal.ray],
        },
    }


# --- families ---------------------------------------------------------------


def family_to_json(fam):
    from tropcurves.families import AffineFunction

    def aff(f: AffineFunction):
        return {"value": frac_str(f.value), "slope": frac_str(f.slope)}

    def refkey(ref):
        return f"{ref[0]}:{ref[1]}"

    return {
        "base": graph_to_json(fam.base.graph),
        "extended_degree": [list(s) for s in fam.extended_degree],
        "edge_types": {refkey(r): type_to_json(t) for r, t in fam.edge_types.items()},
        "lengths": {
            refkey(r): {str(i): aff(f) for i, f in funcs.items()}
            for r, funcs in fam.lengths.items()
        },
        "positions": {
            refkey(r): {str(u): [aff(fx), aff(fy)] for u, (fx, fy) in funcs.items()}
            for r, funcs in fam.positions.items()
        },
        "vertex_curves": {str(w): curve_to_json(c) for w, c in fam.vertex_curves.items()},
        "contractions": {
            f"{w}|{refkey(r)}": {
                "vertex_map": list(c.vertex_map),
                "edge_map": [x if x is not None else -1 for x in c.edge_map],
            }
            for (w, r), c in fam.contractions.items()
        },
    }


@_reader
def family_from_json(data):
    from tropcurves.families import AffineFunction, BaseCurve, Contraction, FamilyDatum

    def aff(d):
        return AffineFunction(parse_frac(d["value"]), parse_frac(d["slope"]))

    def parse_ref(s):
        kind, idx = s.split(":")
        return (kind, int(idx))

    base = BaseCurve(graph_from_json(data["base"]))
    edge_types = {parse_ref(k): type_from_json(v) for k, v in data["edge_types"].items()}
    lengths = {
        parse_ref(k): {int(i): aff(f) for i, f in v.items()} for k, v in data["lengths"].items()
    }
    positions = {
        parse_ref(k): {int(u): (aff(p[0]), aff(p[1])) for u, p in v.items()}
        for k, v in data["positions"].items()
    }
    vertex_curves = {int(w): curve_from_json(c) for w, c in data["vertex_curves"].items()}
    contractions = {}
    for key, c in data["contractions"].items():
        w, ref = key.split("|")
        contractions[(int(w), parse_ref(ref))] = Contraction(
            vertex_map=tuple(c["vertex_map"]),
            edge_map=tuple(x if x >= 0 else None for x in c["edge_map"]),
        )
    return FamilyDatum(
        base=base,
        extended_degree=tuple(tuple(s) for s in data["extended_degree"]),
        edge_types=edge_types,
        lengths=lengths,
        positions=positions,
        vertex_curves=vertex_curves,
        contractions=contractions,
    )
