"""JSON encodings for every external interface.

Rationals are serialized as "p/q" strings (plain "p" when the
denominator is one).  All emitters sort keys and use compact separators,
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

from tropcurves.cones import ModuliCone, classify
from tropcurves.evaluation import FiberDescription, PointConfiguration
from tropcurves.families import AffineFunction, BaseCurve, Contraction, FamilyDatum
from tropcurves.graphs import CombinatorialType, Edge, Leg, ParametrizedCurve, TropicalGraph

F = Fraction
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_MAX_DIGITS = 4300  # CPython's default limit on int(str) since 3.10.7 and 3.11
_NAMED = re.compile(r"[a-z]+ JSON\b")  # a refusal that names its document


def frac_str(x):
    return str(F(x))


def _shown(value):
    """The repr of an offending value, cut short so that a refusal stays
    one short line: a string to its first 12 characters, any other value
    to the first 40 characters of its repr."""
    if isinstance(value, str):
        return repr(value if len(value) <= 12 else value[:12] + "...")
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def parse_frac(s):
    """A rational from a "p/q" string or an int; floats, booleans and any
    other string, such as "1e3" or "1.5", are refused, so no binary
    fraction enters the exact arithmetic and no exponent asks for a huge
    power of ten.  A zero denominator is refused too, and so is a
    numerator or denominator longer than _MAX_DIGITS digits, which `int`
    would refuse in its own words or, on older Pythons, not at all."""
    if not (type(s) is int or isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise ValueError(f"rational {_shown(s)} is not an int or a \"p/q\" string")
    if isinstance(s, str) and max(len(part) for part in s.lstrip("+-").split("/")) > _MAX_DIGITS:
        raise ValueError(f"rational {_shown(s)} has more than {_MAX_DIGITS} digits")
    try:
        return F(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {_shown(s)} has a zero denominator") from None


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reader(read):
    """Make every refusal under `read` a ValueError that names its
    document kind once: "<kind> JSON: missing key ...", "<kind> JSON is
    malformed: ..." for a wrongly shaped value, and any other ValueError
    prefixed with "<kind> JSON: " unless it names a document already, as
    one from a reader called by another does.  So the checks under a
    reader name the field alone."""

    @functools.wraps(read)
    def checked(data):
        what = read.__name__.removesuffix("_from_json")
        try:
            return read(data)
        except KeyError as exc:
            raise ValueError(f"{what} JSON: missing key {exc.args[0]!r}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{what} JSON is malformed: {exc}") from None
        except ValueError as exc:
            if _NAMED.match(str(exc)):
                raise
            raise ValueError(f"{what} JSON: {exc}") from None

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


def int_value(value, what):
    """``value`` if it is an int (not a bool), or a ValueError naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what} {_shown(value)} is not an int")
    return value


def _pair(value, what):
    """``value`` as a tuple of two entries, or a ValueError naming ``what``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{what} {_shown(value)} is not a pair")
    return tuple(value)


def int_pair(value, what):
    """``value`` as a tuple of two ints, or a ValueError naming ``what``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or any(type(x) is not int for x in value):
        raise ValueError(f"{what} {_shown(value)} is not a pair of ints")
    return tuple(value)


def _weights(data):
    """The vertex weights in id order; ids and weights are ints and the
    ids are exactly 0..V-1."""
    vertices = sorted(data["vertices"], key=lambda d: int_value(d["id"], "vertex id"))
    ids = [d["id"] for d in vertices]
    if ids != list(range(len(vertices))):
        raise ValueError(f"vertex ids {_shown(ids)} are not 0..{len(vertices) - 1}")
    return tuple(int_value(d["weight"], "vertex weight") for d in vertices)


@_reader
def graph_from_json(data):
    return TropicalGraph(
        weights=_weights(data),
        edges=tuple((int_value(e["u"], "vertex"), int_value(e["v"], "vertex")) for e in data["edges"]),
        lengths=tuple(parse_frac(e["length"]) for e in data["edges"]),
        legs=tuple(int_value(l["vertex"], "vertex") for l in data["legs"]),
    )


def type_to_json(t: CombinatorialType):
    return {
        "vertices": [{"id": v, "weight": t.weights[v]} for v in range(t.n_vertices())],
        "edges": [{"u": e.u, "v": e.v, "slope": list(e.slope)} for e in t.edges],
        "legs": [{"vertex": leg.vertex, "slope": list(leg.slope)} for leg in t.legs],
    }


@_reader
def type_from_json(data):
    return CombinatorialType(
        weights=_weights(data),
        edges=tuple(
            Edge(int_value(e["u"], "vertex"), int_value(e["v"], "vertex"), int_pair(e["slope"], "slope"))
            for e in data["edges"]
        ),
        legs=tuple(Leg(int_value(l["vertex"], "vertex"), int_pair(l["slope"], "slope")) for l in data["legs"]),
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
    positions = tuple(tuple(map(parse_frac, _pair(p, "position"))) for p in data["positions"])
    return ParametrizedCurve(t, lengths, positions)


# --- configurations ---------------------------------------------------------


def config_to_json(cfg: PointConfiguration):
    return {"points": [[frac_str(x), frac_str(y)] for x, y in cfg.points]}


@_reader
def config_from_json(data):
    return PointConfiguration(tuple(tuple(map(parse_frac, _pair(p, "point"))) for p in data["points"]))


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


_INDEX = f"([0-9]{{1,{_MAX_DIGITS}}})"
_FAMILY_KEYS = {  # the form of a family JSON key -> (its pattern, its name in a refusal)
    "index": (re.compile(_INDEX), "an index"),
    "ref": (re.compile(f"([a-z]+):{_INDEX}"), 'a "kind:index" reference'),
    "contraction": (re.compile(f"{_INDEX}\\|([a-z]+):{_INDEX}"), 'a "vertex|kind:index" key'),
}


def _family_key(key, form, field):
    """The parts of a family JSON object key of the given form, indices as
    ints, or a ValueError naming the field."""
    pattern, name = _FAMILY_KEYS[form]
    match = pattern.fullmatch(key)
    if match is None:
        raise ValueError(f"{field} key {_shown(key)} is not {name}")
    return tuple(part if part.isalpha() else int(part) for part in match.groups())


def _check_contraction(key, source, target, vertex_map, edge_map):
    """The maps of contraction ``key`` have one entry per vertex and per
    edge of its fiber type ``source``, and each names a vertex or an edge
    (or -1, contracted) of the vertex curve's type ``target``."""
    for name, entries, size, low, high in (
        ("vertex_map", vertex_map, source.n_vertices(), 0, target.n_vertices()),
        ("edge_map", edge_map, len(source.edges), -1, len(target.edges)),
    ):
        if len(entries) != size:
            raise ValueError(f"contraction {key}: {name} has {len(entries)} entries, not {size}")
        bad = next((x for x in entries if not low <= x < high), None)
        if bad is not None:
            raise ValueError(f"contraction {key}: {name} entry {bad} is out of range")


@_reader
def family_from_json(data):
    def aff(d):
        return AffineFunction(parse_frac(d["value"]), parse_frac(d["slope"]))

    def ref_key(key, field):
        return _family_key(key, "ref", field)

    def index_key(key, field):
        return _family_key(key, "index", field)[0]

    base = BaseCurve(graph_from_json(data["base"]))
    edge_types = {ref_key(k, "edge_types"): type_from_json(v) for k, v in data["edge_types"].items()}
    lengths = {
        ref_key(k, "lengths"): {index_key(i, "lengths"): aff(f) for i, f in v.items()}
        for k, v in data["lengths"].items()
    }
    positions = {
        ref_key(k, "positions"): {
            index_key(u, "positions"): tuple(map(aff, _pair(p, "position")))
            for u, p in v.items()
        }
        for k, v in data["positions"].items()
    }
    vertex_curves = {
        index_key(w, "vertex_curves"): curve_from_json(c) for w, c in data["vertex_curves"].items()
    }
    contractions = {}
    for key, c in data["contractions"].items():
        w, kind, idx = _family_key(key, "contraction", "contractions")
        ref = (kind, idx)
        vertex_map = [int_value(x, "vertex_map entry") for x in c["vertex_map"]]
        edge_map = [int_value(x, "edge_map entry") for x in c["edge_map"]]
        if ref in edge_types and w in vertex_curves:
            _check_contraction(key, edge_types[ref], vertex_curves[w].ctype, vertex_map, edge_map)
        contractions[(w, ref)] = Contraction(
            vertex_map=tuple(vertex_map),
            edge_map=tuple(x if x >= 0 else None for x in edge_map),
        )
    return FamilyDatum(
        base=base,
        extended_degree=tuple(
            int_pair(s, "extended_degree slope") for s in data["extended_degree"]
        ),
        edge_types=edge_types,
        lengths=lengths,
        positions=positions,
        vertex_curves=vertex_curves,
        contractions=contractions,
    )
