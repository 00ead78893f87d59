from fractions import Fraction as F

import pytest

from fixtures import is_immersed, nodal_cubic_type, smooth_cubic_type, tropical_line

from tropcurves.canonical import canonical_key
from tropcurves.cones import (
    classify,
    cone_dimension,
    cone_of,
    constraint_matrix,
    cycle_system,
    expand_lengths,
    expected_dimension,
    fiber_rows,
    integer_positions,
    is_realizable,
    path_coefficients,
    resolve_wall,
    split_vertex,
)
from tropcurves.floors import enumerate_curves, make_stretched
from tropcurves.graphs import CombinatorialType, Edge, Leg, check_balancing, face_contract
from tropcurves.linalg import mat_rank


def balanced_triangle():
    edges = (Edge(0, 1, (1, 0)), Edge(1, 2, (-1, 1)), Edge(2, 0, (0, -1)))
    legs = (Leg(0, (-1, -1)), Leg(1, (2, -1)), Leg(2, (-1, 2)))
    return CombinatorialType(weights=(0, 0, 0), edges=edges, legs=legs)


def unrealizable_triangle():
    edges = (Edge(0, 1, (1, 0)), Edge(1, 2, (0, 1)), Edge(2, 0, (1, 1)))
    legs = (Leg(0, (0, 1)), Leg(1, (1, -1)), Leg(2, (-1, 0)))
    return CombinatorialType(weights=(0, 0, 0), edges=edges, legs=legs)


def dimension_via_full_matrix(t):
    rows = [{j: a for j, a in enumerate(row) if a} for row in constraint_matrix(t)]
    ambient = 2 * t.n_vertices() + len(t.edges)
    return ambient - mat_rank(rows, ambient)


def test_line_cone_dimension_is_translations():
    cone = cone_of(tropical_line())
    assert cone.dimension == 2
    assert cone.realizable
    # a contracted leg adds no coordinates
    assert cone_of(tropical_line(n_marks=1)).dimension == 2


def test_cone_dimension_matches_full_rank():
    for t in (
        tropical_line(),
        tropical_line(2),
        balanced_triangle(),
        unrealizable_triangle(),
        smooth_cubic_type(),
        nodal_cubic_type(),
    ):
        assert cone_dimension(t) == dimension_via_full_matrix(t)


def test_triangle_cone():
    t = balanced_triangle()
    assert check_balancing(t) is None
    cone = cone_of(t)
    assert cone.dimension == 3  # translations plus one scale
    assert cone.realizable


def test_unrealizable_cycle_detected():
    t = unrealizable_triangle()
    assert check_balancing(t) is None
    assert not is_realizable(t)


def test_cone_rejects_unbalanced():
    bad = CombinatorialType(weights=(0,), edges=(), legs=(Leg(0, (1, 1)), Leg(0, (-1, 0))))
    with pytest.raises(ValueError):
        cone_of(bad)


def test_expected_dimension_examples():
    t1 = smooth_cubic_type()  # weightless 3-valent, genus 1, |nabla|=9
    assert expected_dimension(t1) == 9
    t0 = nodal_cubic_type()  # genus 0: chi = 1
    assert expected_dimension(t0) == 8
    # merging the endpoints of a middle-floor edge makes one 4-valent vertex
    t4 = face_contract(t0, [1])
    assert expected_dimension(t4) == 7


def test_mikhbound_dimension_for_nice_types():
    t1 = smooth_cubic_type()
    assert is_immersed(t1)
    assert cone_dimension(t1) == 9 + 0 + 1 - 1
    assert cone_dimension(t1) == expected_dimension(t1)
    assert cone_of(t1).realizable
    t0 = nodal_cubic_type()
    assert is_immersed(t0)
    assert cone_dimension(t0) == 8
    assert cone_dimension(t0) == expected_dimension(t0)
    assert cone_of(t0).realizable


def test_classify_line_and_marked_line():
    assert classify(tropical_line()).is_nice()
    wall = classify(tropical_line(n_marks=1))
    assert wall.is_simple_wall()
    assert wall.four_valent_vertex == 0
    weighted = CombinatorialType((1,), (), (Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1))))
    assert classify(weighted).kind == "other"
    assert classify(smooth_cubic_type()).is_nice()
    assert classify(nodal_cubic_type()).is_nice()


def test_resolve_wall_marked_line():
    t = tropical_line(n_marks=1)
    out = resolve_wall(t)
    assert len(out) == 3
    for new_t, new_edge in out:
        assert check_balancing(new_t) is None
        assert canonical_key(face_contract(new_t, [new_edge])) == canonical_key(t)


def test_resolve_wall_opposite_slopes_gives_contracted_edge():
    t = CombinatorialType(
        weights=(0,),
        edges=(),
        legs=(Leg(0, (0, 1)), Leg(0, (0, -1)), Leg(0, (1, 0)), Leg(0, (-1, 0))),
    )
    assert classify(t).is_simple_wall()
    out = resolve_wall(t)
    contracted = [new_t for new_t, e in out if new_t.edges[e].slope == (0, 0)]
    assert len(contracted) == 1  # pairing the two vertical germs


def test_resolve_wall_rejects_nice():
    with pytest.raises(ValueError):
        resolve_wall(tropical_line())


def test_split_vertex_moves_germs():
    t = tropical_line(n_marks=1)
    star = t.star(0)
    mark = [d for s, d in star if s == (0, 0)][0]
    ray = [d for s, d in star if s == (1, 1)][0]
    new_t, new_edge = split_vertex(t, 0, [mark, ray])
    assert new_t.n_vertices() == 2
    assert new_t.edges[new_edge].slope == (1, 1)
    assert check_balancing(new_t) is None
    # a germ of another vertex is refused
    with pytest.raises(ValueError, match="^germ descriptor not at the split vertex$"):
        split_vertex(new_t, 0, [new_t.star(1)[0][1]])


def test_split_vertex_with_loop_germ():
    # a loop plus a pass-through: moving one loop germ opens the loop
    t = CombinatorialType(
        weights=(0,),
        edges=(Edge(0, 0),),
        legs=(Leg(0, (1, 0)), Leg(0, (-1, 0))),
    )
    star = t.star(0)
    loop_germ = [d for _, d in star if d[0] == "edge"][0]
    right = [d for s, d in star if s == (1, 0)][0]
    new_t, new_edge = split_vertex(t, 0, [loop_germ, right])
    assert check_balancing(new_t) is None
    assert not new_t.edges[0].is_loop()
    # moving both loop germs carries the whole loop to the new vertex
    new_t, new_edge = split_vertex(t, 0, [("edge", 0, 1), right, ("edge", 0, 0)])
    assert check_balancing(new_t) is None
    assert new_t.edges == (Edge(1, 1), Edge(0, 1, (1, 0)))
    assert new_edge == 1


def test_lower_bound_property_on_fixtures():
    for t in (tropical_line(), smooth_cubic_type(), nodal_cubic_type(), balanced_triangle()):
        assert cone_dimension(t) >= expected_dimension(t)


def test_tree_coordinates_hold_on_every_solution_curve():
    # the cycle rows vanish on the lengths, the fiber rows hold with their
    # right-hand side, and the lengths rebuild the positions
    for d in (1, 2, 3, 4):
        for g in range((d - 1) * (d - 2) // 2 + 1):
            points = make_stretched(3 * d + g - 1, d)
            for _diag, curve in enumerate_curves(d, g, points):
                t, lengths = curve.ctype, curve.lengths

                def value(row):
                    return sum(c * lengths[j] for j, c in row.items())

                coeffs = path_coefficients(t)
                assert all(value(row) == 0 for row in cycle_system(t, coeffs))
                rows, rhs, _coeffs = fiber_rows(t, points.config.points)
                assert [value(row) for row in rows] == rhs
                full = expand_lengths(t, points.config.points, coeffs, lengths)
                assert full == [x for p in curve.positions for x in p] + list(lengths)


def test_integer_positions_match_the_root_path_sums():
    # integer_positions places each vertex from its parent along its tree
    # edge, in one pass; that must equal each vertex's root path summed
    # edge by edge, for any int lengths, on walk strata and d <= 2 cores
    import random

    from tropcurves.corpus import enumerate_cores
    from tropcurves.walk import run_walk, start_walk

    def root_path_sums(t, coeffs, lengths, anchor):
        xs = [l * e.slope[0] for l, e in zip(lengths, t.edges)]
        ys = [l * e.slope[1] for l, e in zip(lengths, t.edges)]
        shifts = [(sum(c * xs[j] for j, c in p.items()), sum(c * ys[j] for j, c in p.items())) for p in coeffs]
        x0 = y0 = 0
        if anchor is not None:
            dx, dy = shifts[t.legs[0].vertex]
            x0, y0 = anchor[0] - dx, anchor[1] - dy
        return [c for dx, dy in shifts for c in (x0 + dx, y0 + dy)]

    types = []
    for d, g, seed in ((2, 0, 0), (3, 0, 8), (3, 1, 5), (4, 2, 3)):
        trace = run_walk(d, g, seed=seed)
        types += [start_walk(d, g, seed=seed).ctype, *trace.walls, trace.terminal.stratum]
    walked = len(types)
    types += [t for d in (1, 2) for b1 in (0, 1) for t in enumerate_cores(d, b1)]
    assert walked > 20 and len(types) - walked > 200
    rng = random.Random(44)
    for t in types:
        coeffs = path_coefficients(t)
        for _ in range(3):
            lengths = [rng.randint(-(10**12), 10**12) for _ in t.edges]
            for anchor in (None, (rng.randint(-99, 99), rng.randint(-99, 99))):
                want = root_path_sums(t, coeffs, lengths, anchor)
                assert integer_positions(t, coeffs, lengths, anchor) == want


def first_mark_rows(t, points):
    """Mark i's x and y rows as the tree path from mark 0's vertex, with
    right-hand side points[i] - points[0], built from path_coefficients
    alone; the cycle rows are left out."""
    coeffs = path_coefficients(t)
    rows, rhs = [], []
    for i in range(1, len(points)):
        root, own = coeffs[t.legs[0].vertex], coeffs[t.legs[i].vertex]
        diff = {j: own.get(j, 0) - root.get(j, 0) for j in {*own, *root}}
        rows += [{j: c * t.edges[j].slope[k] for j, c in diff.items() if c} for k in (0, 1)]
        rhs += [points[i][k] - points[0][k] for k in (0, 1)]
    return rows, rhs


def test_fiber_rows_follow_consecutive_marks(monkeypatch):
    # every system the walk solves and the scan's placement LPs ask about:
    # mark i's row pair is the first-mark pair i minus pair i - 1, so the
    # two row sets span one space and must give one solve_affine answer
    # and one feasible_nonneg verdict
    import tropcurves.corpus
    import tropcurves.walk
    from tropcurves.corpus import scan_fibers
    from tropcurves.evaluation import PointConfiguration
    from tropcurves.linalg import feasible_nonneg, solve_affine
    from tropcurves.walk import run_walk

    systems = []

    def recording(t, points):
        systems.append((t, tuple(points)))
        return fiber_rows(t, points)

    monkeypatch.setattr(tropcurves.walk, "fiber_rows", recording)
    monkeypatch.setattr(tropcurves.corpus, "fiber_rows", recording)
    for d, g in ((3, 0), (3, 1), (4, 2)):
        for seed in range(6):
            run_walk(d, g, seed=seed)
    walked = len(systems)
    fractional = ((F(1, 2), F(1, 3)), (F(-7, 5), F(2)), (F(3), F(-5, 4)), (F(11, 6), F(13, 7)))
    scan_fibers(2, 0, make_stretched(5, 2).config)
    scan_fibers(2, 1, make_stretched(4, 2).config)
    scan_fibers(2, 1, PointConfiguration(fractional))
    scan_fibers(2, 0, PointConfiguration(((-2, -1), (1, 0), (1, 1), (2, 1))))
    assert walked > 50 and len(systems) - walked > 1000

    def nonzero(row):
        return {j: c for j, c in row.items() if c}

    verdicts = set()
    for t, points in systems:
        rows, rhs, _coeffs = fiber_rows(t, points)
        ref_rows, ref_rhs = first_mark_rows(t, points)
        n_cycle = len(rows) - len(ref_rows)
        assert rhs[:n_cycle] == [0] * n_cycle
        # the same row of the pair before, two places back; none for mark 1
        before_rows, before_rhs = [{}, {}] + ref_rows[:-2], [0, 0] + ref_rhs[:-2]
        for k, (row, before) in enumerate(zip(ref_rows, before_rows)):
            want = {j: row.get(j, 0) - before.get(j, 0) for j in {*row, *before}}
            assert nonzero(rows[n_cycle + k]) == nonzero(want)
            assert rhs[n_cycle + k] == ref_rhs[k] - before_rhs[k]
        ne = len(t.edges)
        ref_rows, ref_rhs = rows[:n_cycle] + ref_rows, rhs[:n_cycle] + ref_rhs
        assert solve_affine(rows, rhs, ne) == solve_affine(ref_rows, ref_rhs, ne)
        verdict = feasible_nonneg(rows, rhs, ne)
        assert verdict == feasible_nonneg(ref_rows, ref_rhs, ne)
        verdicts.add(verdict)
    assert verdicts == {True, False}
