from fractions import Fraction as F

import pytest

from fixtures import tropical_line

import tropcurves.corpus
from tropcurves.cones import cone_dimension
from tropcurves.corpus import _attach_mark
from tropcurves.evaluation import PointConfiguration, fiber, genericity_conclusion, is_general
from tropcurves.floors import make_stretched
from tropcurves.graphs import genus


def marked_line_two_rays():
    base = tropical_line()
    t1 = _attach_mark(base, ("leg", 0))  # on the (1,1) ray
    return _attach_mark(t1, ("leg", 2))  # on the (-1,0) ray


def test_two_marks_at_one_vertex_is_empty():
    t = tropical_line(n_marks=2)
    cfg = PointConfiguration(((F(0), F(0)), (F(1), F(1))))
    fb = fiber(t, cfg)
    assert fb.is_empty()


def test_unique_line_through_two_points():
    t = marked_line_two_rays()
    cfg = PointConfiguration(((F(3), F(5)), (F(-5), F(-1))))
    fb = fiber(t, cfg)
    assert fb.kind == "point"
    assert fb.inside
    # the vertex of the line is pinned at (-3, -1)
    nv = t.n_vertices()
    positions = [(fb.point[2 * v], fb.point[2 * v + 1]) for v in range(nv)]
    assert (F(-3), F(-1)) in positions


def test_point_configuration_rejects_repeats():
    with pytest.raises(ValueError):
        PointConfiguration(((F(0), F(0)), (F(0), F(0))))


def test_point_configuration_refuses_floats():
    # 0.1 is stored as a binary fraction, so it is refused, not converted
    with pytest.raises(ValueError, match=r"^point 0: x 0\.1 is a float, not an int or a Fraction$"):
        PointConfiguration(((0.1, 0.2), (1, 2)))
    with pytest.raises(ValueError, match=r"^point 1: y 2\.0 is a float, not an int or a Fraction$"):
        PointConfiguration(((F(1, 10), 0), (1, 2.0)))


def test_fiber_requires_matching_marks():
    t = marked_line_two_rays()
    with pytest.raises(ValueError):
        fiber(t, PointConfiguration(((F(0), F(1)),)))


def test_interval_fiber_in_walk_setting():
    # the genus-1 cubic through 8 of its 9 stretched points moves in an
    # interval whose boundary leaves the open stratum
    from tropcurves.walk import start_walk

    state = start_walk(3, 1)
    fb = fiber(state.ctype, state.fixed)
    assert fb.kind == "interval"
    assert fb.codimension() == 2 * len(state.fixed)
    for _tag, t2, _curve in fb.endpoints:
        # the endpoint degenerations have strictly smaller cones
        assert cone_dimension(t2) < fb.cone_dimension
        assert genus(t2) == genus(state.ctype)


def test_translation_invariance():
    t = marked_line_two_rays()
    cfg = PointConfiguration(((F(3), F(5)), (F(-5), F(-1))))
    fb1 = fiber(t, cfg)
    fb2 = fiber(t, cfg.translated(F(7), F(-2)))
    assert fb1.kind == fb2.kind == "point"
    assert fb2.point[0] - fb1.point[0] == 7


def test_genericity_conclusion_on_solutions():
    from tropcurves.floors import enumerate_curves

    cfg = make_stretched(8, 3)
    for _diag, curve in enumerate_curves(3, 0, cfg):
        assert genericity_conclusion(curve.ctype, cfg.config)


def test_genericity_conclusion_rejects_bad_types():
    # a weighted variant has nonempty fiber only if the verdict fails;
    # build one with an honestly empty fiber to get a True verdict
    t = marked_line_two_rays()
    weighted = type(t)(weights=(1,) + t.weights[1:], edges=t.edges, legs=t.legs)
    cfg = PointConfiguration(((F(3), F(5)), (F(-5), F(-1))))
    fb = fiber(weighted, cfg)
    assert not fb.is_empty()
    assert genericity_conclusion(weighted, cfg) is False


def test_is_general_rejects_repeated_points():
    assert is_general([(0, 0), (0, 0)], 1, 0) is False


def test_is_general_unknown_beyond_desk_scale():
    assert is_general([(0, 0), (1, -5)], 4, 0) == "unknown"


def test_is_general_unknown_for_positive_genus_cubics(monkeypatch):
    # no scan over the Betti-1 cores at d = 3 is certified, and cores of
    # Betti number 2 are refused, so the call must answer before it
    # starts any scan
    def no_scan(*args, **kwargs):
        raise AssertionError("is_general scanned")

    monkeypatch.setattr(tropcurves.corpus, "scan_fibers", no_scan)
    monkeypatch.setattr(tropcurves.corpus, "enumerate_cores", no_scan)
    cfg = make_stretched(7, 3).config
    assert is_general(cfg, 3, 1) == "unknown"
    assert is_general(cfg, 3, 2) == "unknown"
    assert is_general(make_stretched(5, 2).config, 2, 2) == "unknown"


def test_is_general_line_through_two_points():
    cfg = make_stretched(2, 1)
    assert is_general(cfg.config, 1, 0) is True
