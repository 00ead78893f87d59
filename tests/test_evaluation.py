from fractions import Fraction as F

import pytest

from fixtures import genericity_conclusion, genus, start_stratum, tropical_line

import tropcurves.corpus
from tropcurves.cones import cone_dimension
from tropcurves.corpus import _attach_mark, is_general, scan_fibers
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.floors import enumerate_curves, make_stretched


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


def test_point_configuration_keeps_fractions():
    # a Fraction is stored as the object given, an int becomes a Fraction
    x, y = F(1, 3), F(-7, 2)
    cfg = PointConfiguration(((x, y), (2, F(5))))
    assert cfg.points[0][0] is x and cfg.points[0][1] is y
    assert cfg.points == ((x, y), (F(2), F(5)))
    assert all(type(c) is F for p in cfg.points for c in p)


def test_fiber_requires_matching_marks():
    t = marked_line_two_rays()
    with pytest.raises(ValueError):
        fiber(t, PointConfiguration(((F(0), F(1)),)))


def test_interval_fiber_in_walk_setting():
    # the genus-1 cubic through 8 of its 9 stretched points moves in an
    # interval whose boundary leaves the open stratum
    t, fixed = start_stratum(1)
    fb = fiber(t, fixed)
    assert fb.kind == "interval"
    assert fb.codimension() == 2 * len(fixed)
    for _tag, t2, _curve in fb.endpoints:
        # the endpoint degenerations have strictly smaller cones
        assert cone_dimension(t2) < fb.cone_dimension
        assert genus(t2) == genus(t)


def test_translation_invariance():
    t = marked_line_two_rays()
    cfg = PointConfiguration(((F(3), F(5)), (F(-5), F(-1))))
    fb1 = fiber(t, cfg)
    fb2 = fiber(t, PointConfiguration(tuple((x + 7, y - 2) for x, y in cfg.points)))
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


def test_is_general_rejects_a_sliding_line():
    # two points on a line of slope (1, 1): the line's vertex slides along
    # it, a fiber of dimension 1
    assert is_general(PointConfiguration(((0, 0), (1, 1))), 1, 0) is False


def test_is_general_rejects_a_sixth_point_on_the_conic():
    # the midpoint of an edge of the conic through five stretched points:
    # the genus-0 scan has a hit, a coincidence below genus 1
    cfg = make_stretched(5, 2)
    ((_diag, conic),) = enumerate_curves(2, 0, cfg)
    e = conic.ctype.edges[0]
    (ux, uy), (vx, vy) = conic.positions[e.u], conic.positions[e.v]
    six = PointConfiguration(cfg.points + (((ux + vx) / 2, (uy + vy) / 2),))
    assert scan_fibers(2, 0, six)
    assert is_general(six, 2, 1) is False


def test_is_general_six_stretched_points_at_genus_one():
    assert is_general(make_stretched(6, 2), 2, 1) is True


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


def test_is_general_refuses_a_degree_below_one_and_a_negative_genus():
    cfg = make_stretched(2, 1).config
    for d, g, name in ((0, 0, "degree"), (-1, 0, "degree"), (1, -1, "Betti")):
        with pytest.raises(ValueError, match=name):
            is_general(cfg, d, g)


def test_is_general_line_through_two_points():
    # a StretchedConfig is read through its points, as a PointConfiguration is
    cfg = make_stretched(2, 1)
    assert is_general(cfg.config, 1, 0) is True
    assert is_general(cfg, 1, 0) is True
    assert is_general(make_stretched(5, 2), 2, 0) is True
