import re
from fractions import Fraction as F

import pytest

from fixtures import smooth_cubic_curve, smooth_cubic_type, tropical_line

from tropcurves.cones import cone_of
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.families import BaseCurve, constant_family
from tropcurves.graphs import TropicalGraph
from tropcurves.serialize import (
    cone_to_json,
    config_from_json,
    config_to_json,
    curve_from_json,
    curve_to_json,
    dumps,
    family_from_json,
    family_to_json,
    fiber_to_json,
    frac_str,
    graph_from_json,
    graph_to_json,
    parse_frac,
    type_from_json,
    type_to_json,
)


def test_fraction_round_trip():
    for x in (F(1), F(-3), F(7, 2), F(-22, 7), F(0)):
        assert parse_frac(frac_str(x)) == x
    assert frac_str(F(4, 2)) == "2"
    assert frac_str(F(1, 3)) == "1/3"


def test_graph_round_trip_preserves_leg_order():
    g = TropicalGraph(weights=(0, 1), edges=((0, 1),), lengths=(F(5, 3),), legs=(1, 0, 1))
    g2 = graph_from_json(graph_to_json(g))
    assert g2 == g
    assert g2.legs == (1, 0, 1)


def test_type_round_trip():
    for t in (tropical_line(2), smooth_cubic_type()):
        assert type_from_json(type_to_json(t)) == t


def test_curve_round_trip():
    c = smooth_cubic_curve()
    assert curve_from_json(curve_to_json(c)) == c


def test_config_round_trip():
    cfg = PointConfiguration(((F(1), F(-7, 3)), (F(2), F(5))))
    assert config_from_json(config_to_json(cfg)) == cfg


def test_cone_export_deterministic():
    cone = cone_of(smooth_cubic_type())
    blob1 = dumps(cone_to_json(cone))
    blob2 = dumps(cone_to_json(cone_of(smooth_cubic_type())))
    assert blob1 == blob2
    data = cone_to_json(cone)
    assert data["dimension"] == 9
    assert data["classification"] == "nice"


def test_fiber_export():
    from tropcurves.corpus import _attach_mark

    base = tropical_line()
    t1 = _attach_mark(base, ("leg", 0))
    t2 = _attach_mark(t1, ("leg", 2))
    cfg = PointConfiguration(((3, 5), (-5, -1)))
    fb = fiber(t2, cfg)
    data = fiber_to_json(fb)
    assert data["kind"] == "point"
    assert data["inside"] is True


def test_readers_name_missing_keys():
    edge = {"u": 0, "v": 0}
    with pytest.raises(ValueError, match="type JSON: missing key 'slope'"):
        type_from_json({"vertices": [{"id": 0, "weight": 1}], "edges": [edge], "legs": []})
    data = curve_to_json(smooth_cubic_curve())
    del data["positions"]
    with pytest.raises(ValueError, match="curve JSON: missing key 'positions'"):
        curve_from_json(data)
    with pytest.raises(ValueError, match="config JSON: missing key 'points'"):
        config_from_json({})
    with pytest.raises(ValueError, match="graph JSON is malformed"):
        graph_from_json({"vertices": 3, "edges": [], "legs": []})
    with pytest.raises(ValueError, match=r"type JSON: slope \[1\] is not a pair of ints"):
        type_from_json({"vertices": [{"id": 0, "weight": 0}], "edges": [], "legs": [{"vertex": 0, "slope": [1]}]})


def test_readers_refuse_floats_and_booleans():
    with pytest.raises(ValueError, match=r"^rational 0\.1 is not an int"):
        parse_frac(0.1)
    with pytest.raises(ValueError, match="^rational True is not an int"):
        parse_frac(True)
    assert parse_frac(3) == 3 and parse_frac("-7/2") == F(-7, 2)
    with pytest.raises(ValueError, match=r"^config JSON: rational 0\.1 is not an int"):
        config_from_json({"points": [[0.1, 0], ["1", "2"]]})
    with pytest.raises(ValueError, match="^config JSON: rational True is not an int"):
        config_from_json({"points": [[True, 0]]})
    data = curve_to_json(smooth_cubic_curve())
    data["edges"][0]["length"] = 1.5
    with pytest.raises(ValueError, match=r"^curve JSON: rational 1\.5 is not an int"):
        curve_from_json(data)


def test_parse_frac_refuses_a_zero_denominator():
    with pytest.raises(ValueError, match="^rational '1/0' has a zero denominator$"):
        parse_frac("1/0")


@pytest.mark.parametrize("text", ["1e3", "1.5", " 7 ", "1_0"])
def test_parse_frac_refuses_what_is_not_p_over_q(text):
    # Fraction would take each of these; an exponent can ask for a power
    # of ten with a billion digits
    with pytest.raises(ValueError, match=f"^rational {re.escape(repr(text))} is not an int or a \"p/q\" string$"):
        parse_frac(text)
    assert parse_frac("+3") == 3 and parse_frac("-22/7") == F(-22, 7)


@pytest.mark.parametrize(
    "text", ["1" * 4301, "-" + "1" * 4301, "1/" + "7" * 4301], ids=["numerator", "negative", "denominator"]
)
def test_parse_frac_refuses_more_than_4300_digits(text):
    # past 4300 digits int(str) refuses on its own, in words that name
    # neither the reader nor the value, or not at all before 3.10.7
    with pytest.raises(ValueError, match=f"^rational {re.escape(repr(text[:12] + '...'))} has more than 4300 digits$"):
        parse_frac(text)
    assert parse_frac(text[:-1]) == F(text[:-1])


def test_curve_reader_refuses_a_short_position():
    data = curve_to_json(smooth_cubic_curve())
    data["positions"][1] = ["0"]
    with pytest.raises(ValueError, match=r"^curve JSON: position \['0'\] is not a pair$"):
        curve_from_json(data)


def test_family_reader_refuses_a_short_position():
    base = BaseCurve(TropicalGraph((0, 0), ((0, 1),), (F(1),), (0,)))
    data = family_to_json(constant_family(base, smooth_cubic_curve()))
    ref = next(iter(data["positions"]))
    u = next(iter(data["positions"][ref]))
    data["positions"][ref][u] = []
    with pytest.raises(ValueError, match=r"^family JSON: position \[\] is not a pair$"):
        family_from_json(data)


def test_readers_require_vertex_ids_zero_to_count():
    legs = [{"vertex": 0, "slope": [0, 0]}]
    vertices = [{"id": 0, "weight": 0}, {"id": 5, "weight": 1}]
    for v in (1, 5):
        data = {"vertices": vertices, "edges": [{"u": 0, "v": v, "slope": [0, 0]}], "legs": legs}
        with pytest.raises(ValueError, match=r"type JSON: vertex ids \[0, 5\] are not 0\.\.1"):
            type_from_json(data)
    graph = {"vertices": vertices, "edges": [{"u": 0, "v": 1, "length": "1"}], "legs": [{"vertex": 0}]}
    with pytest.raises(ValueError, match=r"graph JSON: vertex ids \[0, 5\] are not 0\.\.1"):
        graph_from_json(graph)
    graph["vertices"] = [{"id": 1, "weight": 1}, {"id": 0, "weight": 0}]
    assert graph_from_json(graph).weights == (0, 1)


def test_readers_refuse_non_ints_where_ints_belong():
    type_cases = [
        ("vertices", 1, "weight", 1.7, "vertex weight"),
        ("vertices", 1, "weight", True, "vertex weight"),
        ("vertices", 1, "id", 1.0, "vertex id"),
        ("edges", 0, "v", 1.0, "vertex"),
        ("edges", 0, "u", False, "vertex"),
        ("legs", 0, "vertex", 0.0, "vertex"),
    ]
    for part, i, key, value, what in type_cases:
        data = type_to_json(smooth_cubic_type())
        data[part][i][key] = value
        with pytest.raises(ValueError, match=f"^type JSON: {what} {value} is not an int$"):
            type_from_json(data)
    graph_cases = [("vertices", 1, "weight", 1.5, "vertex weight"), ("edges", 0, "u", 0.0, "vertex")]
    graph_cases.append(("legs", 0, "vertex", 1.0, "vertex"))
    for part, i, key, value, what in graph_cases:
        data = graph_to_json(TropicalGraph((0, 1), ((0, 1),), (F(1),), (0,)))
        data[part][i][key] = value
        with pytest.raises(ValueError, match=f"^graph JSON: {what} {value} is not an int$"):
            graph_from_json(data)
    base = BaseCurve(TropicalGraph((0, 0), ((0, 1),), (F(1),), (0,)))
    for key, value in [("vertex_map", 0.0), ("edge_map", 2.0), ("edge_map", True)]:
        data = family_to_json(constant_family(base, smooth_cubic_curve()))
        data["contractions"]["0|edge:0"][key][0] = value
        with pytest.raises(ValueError, match=f"^family JSON: {key} entry {value} is not an int$"):
            family_from_json(data)
