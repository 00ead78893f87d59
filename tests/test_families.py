import hashlib
import json
from fractions import Fraction as F

from fixtures import smooth_cubic_curve, tropical_line

from tropcurves.families import (
    AffineFunction,
    BaseCurve,
    constant_family,
    induced_map_slopes,
    ray_family,
    validate_family,
)
from tropcurves.graphs import ParametrizedCurve, TropicalGraph
from tropcurves.serialize import family_to_json


def segment_base():
    return BaseCurve(TropicalGraph(weights=(0, 1), edges=((0, 1),), lengths=(F(2),), legs=(0,)))


def line_curve():
    return ParametrizedCurve(tropical_line(), lengths=(), positions=((F(0), F(0)),))


def test_constant_family_is_valid():
    fam = constant_family(segment_base(), smooth_cubic_curve())
    verdict = validate_family(fam)
    assert verdict.ok, verdict
    assert induced_map_slopes(fam, ("edge", 0)) == (F(0),) * (9 + 18)


def test_length_hitting_zero_is_invalid():
    curve = smooth_cubic_curve()
    fam = constant_family(segment_base(), curve)
    ref = ("edge", 0)
    # make edge 0's length shrink to zero at distance 1, inside the edge
    bad = dict(fam.lengths)
    funcs = dict(bad[ref])
    funcs[0] = AffineFunction(curve.lengths[0], -curve.lengths[0])
    bad[ref] = funcs
    fam2 = type(fam)(
        base=fam.base,
        extended_degree=fam.extended_degree,
        edge_types=fam.edge_types,
        lengths=bad,
        positions=fam.positions,
        vertex_curves=fam.vertex_curves,
        contractions=fam.contractions,
    )
    verdict = validate_family(fam2)
    assert not verdict.ok
    assert verdict.violation in ("fiber-leaves-stratum", "length-compatibility", "fiber-not-a-curve")


def test_interpolating_lengths_with_node_slopes():
    # the local model at a node of the base: an edge length interpolating
    # with integer slope k_a - k_b between its endpoint values
    base = segment_base()
    curve = smooth_cubic_curve()
    k_a, k_b = 3, 1
    fam = constant_family(base, curve)
    ref = ("edge", 0)
    funcs = dict(fam.lengths[ref])
    funcs[0] = AffineFunction(curve.lengths[0], k_a - k_b)
    lengths = dict(fam.lengths)
    lengths[ref] = funcs
    # the head vertex curve must match the interpolated length at dist 2
    from tropcurves.graphs import ParametrizedCurve

    stretched = list(curve.lengths)
    stretched[0] = curve.lengths[0] + (k_a - k_b) * 2
    positions = list(curve.positions)
    # edge 0 runs from vertex 0 down to vertex 1 with slope (0, -1): all of
    # the lower structure shifts down by the extra length
    delta = (k_a - k_b) * 2
    for v in range(1, 9):
        positions[v] = (positions[v][0], positions[v][1] - delta)
    head_curve = ParametrizedCurve(curve.ctype, tuple(stretched), tuple(positions))
    pos_funcs = dict(fam.positions[ref])
    for v in range(1, 9):
        fx, fy = pos_funcs[v]
        pos_funcs[v] = (fx, AffineFunction(fy.value, F(-delta, 2)))
    positions_map = dict(fam.positions)
    positions_map[ref] = pos_funcs
    vertex_curves = dict(fam.vertex_curves)
    vertex_curves[1] = head_curve
    fam2 = type(fam)(
        base=fam.base,
        extended_degree=fam.extended_degree,
        edge_types=fam.edge_types,
        lengths=lengths,
        positions=positions_map,
        vertex_curves=vertex_curves,
        contractions=fam.contractions,
    )
    verdict = validate_family(fam2)
    assert verdict.ok, verdict
    slopes = induced_map_slopes(fam2, ref)
    assert slopes[0] == k_a - k_b


def test_family_builders_bytes_frozen():
    # the JSON of a constant family over one edge and one leg and of the
    # walk's ray family, key order included
    families = [constant_family(segment_base(), smooth_cubic_curve()), walk_ray_family()[0]]
    digests = [hashlib.sha256(json.dumps(family_to_json(fam)).encode()).hexdigest() for fam in families]
    assert digests == [
        "f5cf5570ae544986e05b219d0b4178244014cefb56d76a7aba1f40f0f706511d",
        "e84feb956704c80984d06ad92bfb473ee66dd012dcf5a26a722725269562675a",
    ]


def test_induced_slopes_additive_under_reparametrization():
    # scaling the base edge by c scales all slopes by 1/c
    curve = line_curve()
    base1 = BaseCurve(TropicalGraph((0, 0), ((0, 1),), (F(1),), (0, 1, 0, 1, 0, 1)))
    fam = constant_family(base1, curve)
    s = induced_map_slopes(fam, ("edge", 0))
    assert s == (F(0), F(0))


def walk_ray_family():
    """(the ray family of the d = 2 walk's terminal, that terminal)."""
    from tropcurves.walk import run_walk

    trace = run_walk(2, 0)
    term = trace.terminal
    t = term.stratum
    nv = t.n_vertices()
    # a strictly interior base point on the ray
    base_lengths = [l + r for l, r in zip(trace_base_lengths(term), term.ray[2 * nv :])]
    positions = trace_positions(term)
    base_curve = ParametrizedCurve(t, tuple(base_lengths), positions)
    return ray_family(t, base_lengths, term.ray, base_curve), term


def test_ray_family_from_walk_terminal():
    fam, term = walk_ray_family()
    verdict = validate_family(fam)
    assert verdict.ok, verdict
    slopes = induced_map_slopes(fam, ("leg", 0))
    nonzero = [i for i, s in enumerate(slopes) if s != 0]
    assert nonzero == [term.free_edge]


def test_ray_family_moves_positions():
    # the ray (1, -2) moves the line's vertex; (1, 0) at every vertex, and
    # 0 on every edge, translates the cubic right by one
    cubic = smooth_cubic_curve()
    nv, ne = cubic.ctype.n_vertices(), len(cubic.ctype.edges)
    for curve, ray in ((line_curve(), (1, -2)), (cubic, (1, 0) * nv + (0,) * ne)):
        fam = ray_family(curve.ctype, curve.lengths, ray, curve)
        verdict = validate_family(fam)
        assert verdict.ok, verdict
        nv = curve.ctype.n_vertices()
        assert induced_map_slopes(fam, ("leg", 0)) == ray[2 * nv :] + ray[: 2 * nv]


def trace_base_lengths(term):
    """Unit lengths on every edge of the walk terminal's stratum."""
    return [F(1)] * len(term.stratum.edges)


def trace_positions(term):
    t = term.stratum
    nv = t.n_vertices()
    from tropcurves.cones import path_coefficients, expand_lengths

    # positions consistent with unit lengths: integrate along the tree
    lengths = trace_base_lengths(term)
    coeffs = path_coefficients(t)
    full = expand_lengths(t, [], coeffs, lengths)
    return tuple((full[2 * v], full[2 * v + 1]) for v in range(nv))
