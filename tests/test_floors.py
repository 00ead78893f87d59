import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from fixtures import diagram_weight, genus, smooth_cubic_curve, tropical_line

from tropcurves.floors import (
    DOWN,
    Elevator,
    FloorDiagram,
    MAX_DEGREE,
    NotFloorDecomposed,
    StretchedConfig,
    UP,
    _completions,
    _edge_list,
    _marked_diagrams,
    _weighted_shapes,
    count_severi,
    decompose,
    diagram_curve,
    floors_of,
    enumerate_curves,
    is_vertically_stretched,
    make_stretched,
    parse_diagram,
    solution_diagrams,
    top_floor_check,
    unrank_diagram,
)
from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import PointConfiguration
from tropcurves.graphs import CombinatorialType, Edge, Leg, ParametrizedCurve, components
from tropcurves.recursion import irreducible_severi_degree
from tropcurves.serialize import curve_to_json


def _marked_images(curve):
    """The images of the contracted legs, in leg order."""
    return tuple(curve.positions[curve.ctype.legs[i].vertex] for i in curve.ctype.contracted_legs())


def test_make_stretched_witness():
    cfg = make_stretched(2, 1)
    assert len(cfg.points) == 2
    assert is_vertically_stretched(cfg.points, cfg.stretch)
    assert cfg.mu == F((3 * 1) ** 3 * 2)
    cfg = make_stretched(8, 3)
    assert is_vertically_stretched(cfg.points, cfg.stretch)
    # dropping the slope witness far enough fails
    assert not is_vertically_stretched(((0, 0), (1, 1)), F(2))


def test_unique_line_through_two_points():
    cfg = make_stretched(2, 1)
    sols = enumerate_curves(1, 0, cfg)
    assert len(sols) == 1
    diag, curve = sols[0]
    assert genus(curve.ctype) == 0
    assert _marked_images(curve) == cfg.points
    assert top_floor_check(diag)


def test_unique_genus_one_cubic():
    cfg = make_stretched(9, 3)
    sols = enumerate_curves(3, 1, cfg)
    assert len(sols) == 1
    diag, curve = sols[0]
    assert genus(curve.ctype) == 1
    assert curve.multiplicity() == 1


def test_twelve_rational_cubics():
    cfg = make_stretched(8, 3)
    sols = enumerate_curves(3, 0, cfg)
    assert sum(c.multiplicity() for _d, c in sols) == 12
    assert len(sols) == 9
    for diag, curve in sols:
        assert _marked_images(curve) == cfg.points
        assert top_floor_check(diag)


def test_counts_match_oracle_small():
    assert count_severi(1, 0) == 1
    assert count_severi(2, 0) == 1
    assert count_severi(3, 0) == 12
    assert count_severi(3, 1) == 1
    assert count_severi(4, 0) == 620
    for d in (1, 2, 3, 4):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            assert count_severi(d, g) == irreducible_severi_degree(d, g)


def test_curves_frozen():
    # every curve through the default configuration at d <= 4, with its
    # diagram and multiplicity, pinned byte for byte
    blob = hashlib.sha256()
    for d in range(1, 5):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            for diag, curve in enumerate_curves(d, g):
                record = [diag.text(), curve_to_json(curve), curve.multiplicity()]
                blob.update(json.dumps(record, sort_keys=True).encode())
    assert blob.hexdigest() == "14c89c8455b008b7b541e06775f522e970c67ca51c42c1d3f3ae1128e2ce6c3a"


def test_curves_frozen_on_irregular_points():
    # every curve at d <= 4 through points on y = -mu x whose x values are
    # seeded integer gaps of 1..5 apart, and through the same points over
    # 6, with its diagram and multiplicity, pinned byte for byte
    rng = random.Random("irregular gaps")
    blob = hashlib.sha256()
    for d in range(1, 5):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            xs = list(itertools.accumulate(rng.randint(1, 5) for _ in range(3 * d + g - 1)))
            mu = F((3 * d) ** (3 * d) * xs[-1])
            for den in (1, 6):
                cfg = PointConfiguration(tuple((F(x, den), -mu * x / den) for x in xs))
                for diag, curve in enumerate_curves(d, g, cfg):
                    record = [diag.text(), curve_to_json(curve), curve.multiplicity()]
                    blob.update(json.dumps(record, sort_keys=True).encode())
    assert blob.hexdigest() == "6bef0801a13c2fd572470a46b4efbc717cc72869dae968a67c582e07739963e9"


def test_enumerate_curves_clears_its_points_once(monkeypatch):
    # every diagram is built over one clearing of the configuration, kept
    # on it, and an equal configuration of its own clears its points once
    # and builds the same curves
    import tropcurves.evaluation

    calls = []
    clear = tropcurves.evaluation.clear_denominators

    def counting(values):
        calls.append(values)
        return clear(values)

    monkeypatch.setattr(tropcurves.evaluation, "clear_denominators", counting)
    cfg = make_stretched(11, 4)
    solutions = enumerate_curves(4, 0, cfg)
    assert len(solutions) == 303 and calls == [[c for p in cfg.points for c in p]]
    again = make_stretched(11, 4)
    assert all(diagram_curve(diag, again) == curve for diag, curve in solutions[::31])
    assert len(calls) == 2


def test_points_outside_the_floor_method_are_refused():
    # reversed, the points of make_stretched(8, 3) are still vertically
    # stretched, but no diagram has a curve through them: enumerating them
    # must refuse, not answer no solutions where N(3, 0) = 12
    stretched = make_stretched(8, 3)
    points = stretched.points[::-1]
    assert is_vertically_stretched(points, stretched.stretch)
    for run in (enumerate_curves, count_severi):
        with pytest.raises(ValueError, match="diagram 0 has no curve through the points"):
            run(3, 0, PointConfiguration(points))


def test_count_severi_streams_its_curves(monkeypatch):
    # the count builds one curve at a time: it neither lists the curves
    # nor the diagrams
    import tropcurves.floors

    def listing(*_args):
        raise AssertionError("count_severi listed its curves or diagrams")

    monkeypatch.setattr(tropcurves.floors, "enumerate_curves", listing)
    monkeypatch.setattr(tropcurves.floors, "solution_diagrams", listing)
    assert count_severi(4, 1, make_stretched(12, 4)) == irreducible_severi_degree(4, 1)


def test_curves_commute_with_a_rational_affine_map():
    # p -> p/6 + (1/2, -1/3) gives points with denominator 6, so the curves
    # are built over L = 6: each must be the image of the curve through the
    # integer points, lengths divided by 6.  Reversed, the points fail most
    # diagrams, and a diagram without a curve has none after the map either.
    def image(p):
        return (p[0] / 6 + F(1, 2), p[1] / 6 - F(1, 3))

    built = missing = 0
    for d in range(1, 4):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            points = make_stretched(3 * d + g - 1, d).points
            for cfg in (PointConfiguration(points), PointConfiguration(points[::-1])):
                moved = PointConfiguration(tuple(map(image, cfg.points)))
                for diag in solution_diagrams(d, g, cfg):
                    curve, moved_curve = diagram_curve(diag, cfg), diagram_curve(diag, moved)
                    if curve is None:
                        assert moved_curve is None
                        missing += 1
                        continue
                    assert moved_curve.ctype == curve.ctype
                    assert moved_curve.lengths == tuple(x / 6 for x in curve.lengths)
                    assert moved_curve.positions == tuple(map(image, curve.positions))
                    built += 1
    assert built and missing


def test_diagram_multiplicities_match_oracle_to_degree_five():
    # the certified scale: every d <= 5 and every genus, each diagram once
    for d in range(1, 6):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            diags = list(_marked_diagrams(d, g))
            assert len(set(diags)) == len(diags)
            assert sum(map(diagram_weight, diags)) == irreducible_severi_degree(d, g)


def test_generation_order_is_lexicographic():
    # solution order is output (walk seeds index it): shapes ascend by
    # (edges, weights), markings by the object that takes each mark in turn
    for d in range(1, 5):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            shapes = list(_weighted_shapes(d, g))
            keys = [(combo, ws) for combo, ws, _legs in shapes]
            assert keys == sorted(set(keys))
            edge_lists = []
            for combo, ws, legs in shapes:
                edge_list = [(i, j, w) for (i, j), w in zip(combo, ws)]
                edge_list += [(fl, DOWN, 1) for fl in range(1, d + 1) for _ in range(legs[fl - 1])]
                edge_lists.append(edge_list)
            # each shape's markings come together, shape by shape in order
            groups = [
                (key, list(diags))
                for key, diags in itertools.groupby(
                    _marked_diagrams(d, g), key=lambda diag: sorted(e[:3] for e in diag.elevators)
                )
            ]
            assert [key for key, _diags in groups] == [sorted(edge_list) for edge_list in edge_lists]
            for edge_list, (_key, diags) in zip(edge_lists, groups):
                seqs = []
                for diag in diags:
                    # -1: the next floor down; identical elevators take
                    # their marks in list order, and diag.elevators is by mark
                    seq, taken = [-1] * diag.n_marks(), Counter()
                    for e in diag.elevators:
                        seq[e.mark - 1] = edge_list.index(e[:3]) + taken[e[:3]]
                        taken[e[:3]] += 1
                    seqs.append(tuple(seq))
                assert seqs == sorted(set(seqs))


def _oracle_shapes(d, g):
    # filter-all reference: every multiset of floor pairs, kept when
    # connected, then every weight assignment with divergence one
    pairs = [(i, j) for i in range(2, d + 1) for j in range(1, i)]
    n_edges = d - 1 + g
    for combo in itertools.combinations_with_replacement(pairs, n_edges):
        if len(set(components(d + 1, combo)[1:])) != 1:
            continue
        div = [0] * (d + 1)
        weights = [0] * n_edges
        found = []

        def assign(idx):
            if idx < 0:
                found.append((tuple(weights), tuple(1 - div[i] for i in range(1, d + 1))))
                return
            i, j = combo[idx]
            cap = weights[idx + 1] if idx + 1 < n_edges and combo[idx + 1] == combo[idx] else d
            for w in range(1, min(cap, 1 - div[i]) + 1):
                weights[idx] = w
                div[i] += w
                div[j] -= w
                assign(idx - 1)
                div[i] -= w
                div[j] += w

        assign(n_edges - 1)
        for ws, legs in sorted(found):
            yield combo, ws, legs


def _oracle_extensions(d, edge_list):
    # unpruned reference: a floor may take its mark while an elevator
    # ending on it is unmarked, and that branch then dies
    n = d + len(edge_list)
    floor_marks = [None] * d
    elevator_marks = [None] * len(edge_list)

    def rec(pos, next_floor):
        if pos > n:
            yield tuple(floor_marks), tuple(elevator_marks)
            return
        if next_floor >= 1:
            floor_marks[next_floor - 1] = pos
            yield from rec(pos + 1, next_floor - 1)
            floor_marks[next_floor - 1] = None
        for k, (top, bottom, _w) in enumerate(edge_list):
            if elevator_marks[k] is not None or floor_marks[top - 1] is None:
                continue
            if bottom != DOWN and floor_marks[bottom - 1] is not None:
                continue
            if k and edge_list[k - 1] == edge_list[k] and elevator_marks[k - 1] is None:
                continue
            elevator_marks[k] = pos
            yield from rec(pos + 1, next_floor)
            elevator_marks[k] = None

    return rec(1, d)


def _oracle_diagrams(d, g, shapes):
    for combo, weights, legs in shapes:
        edge_list = [(i, j, w) for (i, j), w in zip(combo, weights)]
        edge_list += [(fl, DOWN, 1) for fl in range(1, d + 1) for _ in range(legs[fl - 1])]
        for floor_marks, elevator_marks in _oracle_extensions(d, edge_list):
            elevators = (Elevator(i, j, w, m) for (i, j, w), m in zip(edge_list, elevator_marks))
            yield FloorDiagram(d, g, floor_marks, tuple(sorted(elevators, key=lambda e: e.mark)))


def test_listing_matches_the_filter_all_oracle():
    # the pruned generators list the same shapes and diagrams, in the same
    # order, as filtering every edge multiset and every marking order
    assert list(_weighted_shapes(1, 0)) == list(_oracle_shapes(1, 0)) == [((), (), (1,))]
    for d in range(1, 6):
        top = (d - 1) * (d - 2) // 2
        for g in range(0, top + 2 if d < 5 else top + 1):
            shapes = list(_oracle_shapes(d, g))
            assert list(_weighted_shapes(d, g)) == shapes
            assert (shapes == []) == (g > top)
            if d < 5 or g >= 4:
                assert list(_marked_diagrams(d, g)) == list(_oracle_diagrams(d, g, shapes))
    assert list(_weighted_shapes(5, 7)) == []


@pytest.mark.slow
def test_degree_five_listing_matches_the_filter_all_oracle():
    # the diagrams of every (5, g), not only g >= 4 as in tier-1
    for g in range(7):
        shapes = list(_oracle_shapes(5, g))
        assert list(_marked_diagrams(5, g)) == list(_oracle_diagrams(5, g, shapes))


def _shape_counts(d, g):
    # each shape with its edge list and the completions of its empty marking
    for shape in _weighted_shapes(d, g):
        edge_list = _edge_list(d, shape)
        _moves, count, empty = _completions(d, edge_list)
        yield shape, edge_list, count(empty)


@pytest.mark.parametrize("d", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_completion_count_equals_listed_markings(d):
    # listed by the unpruned reference, which shares no code with `moves`
    for g in range(0, (d - 1) * (d - 2) // 2 + 1):
        for _shape, edge_list, e in _shape_counts(d, g):
            assert e == sum(1 for _ in _oracle_extensions(d, edge_list)), (d, g, edge_list)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_completion_counts_match_the_oracle(d):
    # every marking of a shape has its multiplicity, the product of w^2
    # over its bounded elevators, so the counts alone give the Severi
    # degree; at d = 6 past the listing's certified scale
    for g in range(0, (d - 1) * (d - 2) // 2 + 1):
        total = 0
        for (_combo, weights, _legs), _edge_list, e in _shape_counts(d, g):
            mult = 1
            for w in weights:
                mult *= w * w
            total += mult * e
        assert total == irreducible_severi_degree(d, g), (d, g)


def test_unranking_equals_listing():
    # every index at d <= 4, and negative ones and ones past the end,
    # reads the listed diagram it names modulo their number
    for d in range(1, 5):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            diags = solution_diagrams(d, g)
            n = len(diags)
            for i in [*range(n), -1, -n, -n - 1, n, 10**12 + 7, -(10**12) - 7]:
                assert unrank_diagram(d, g, i) == diags[i % n], (d, g, i)
    # the listing's one (d, g) check, with its messages
    with pytest.raises(ValueError, match="no marked floor diagrams"):
        unrank_diagram(3, 2, 0)
    with pytest.raises(ValueError, match="degree must be positive"):
        unrank_diagram(0, 0, 0)
    with pytest.raises(ValueError, match="expected 8 points for degree 3 genus 0"):
        unrank_diagram(3, 0, 0, make_stretched(7, 3))
    with pytest.raises(ScaleRefusal):
        unrank_diagram(MAX_DEGREE + 1, 0, 0)


@pytest.mark.parametrize("index", [1.5, "1", True])
def test_unranking_refuses_an_index_that_is_not_an_int(index):
    # a float was truncated to the diagram of its int part, and a str
    # failed inside a format string; a bool is not an int either
    with pytest.raises(ValueError, match=f"diagram index {index!r} is not an int"):
        unrank_diagram(3, 0, index)


@pytest.mark.slow
def test_unranking_equals_listing_at_degree_five():
    # listing one d = 5 genus takes up to about a second; a seeded sample
    # of indices per genus, the first and the last included
    rng = random.Random(5)
    for g in range(7):
        diags = solution_diagrams(5, g)
        n = len(diags)
        for i in [0, n - 1, -1, n, *rng.sample(range(n), min(n, 40))]:
            assert unrank_diagram(5, g, i) == diags[i % n], (g, i)


def test_degree_six_shapes():
    # beyond the listing's scale, shapes alone: each key once, in order,
    # connected, d - 1 + g elevators and divergence one at every floor
    counts = []
    for g in range(0, 12):
        shapes = list(_weighted_shapes(6, g))
        keys = [(combo, ws) for combo, ws, _legs in shapes]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for combo, ws, legs in shapes:
            assert len(combo) == 5 + g
            assert len(set(components(7, combo)[1:])) == 1
            for fl in range(1, 7):
                out = sum(w for (i, _j), w in zip(combo, ws) if i == fl)
                inflow = sum(w for (_i, j), w in zip(combo, ws) if j == fl)
                assert legs[fl - 1] >= 0 and out - inflow + legs[fl - 1] == 1
        counts.append(len(shapes))
    assert counts == [1296, 3082, 3959, 3529, 2370, 1253, 530, 179, 47, 9, 1, 0]


def test_degree_zero_is_refused():
    # solution_diagrams refuses it before any configuration is built
    for g in (0, 2):
        with pytest.raises(ValueError, match="degree must be positive"):
            enumerate_curves(0, g)
    # the default configuration is the one the counts use
    assert enumerate_curves(2, 0) == enumerate_curves(2, 0, make_stretched(5, 2))


def test_decompose_constructed_solutions():
    for d, g in [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (4, 3)]:
        cfg = make_stretched(3 * d + g - 1, d)
        for diag, curve in enumerate_curves(d, g, cfg):
            dec = decompose(curve)
            assert dec.problems == ()
            assert dec.diagram is not None
            assert len(dec.floors) == d
            # round trip: the decomposition recovers the marked diagram
            assert dec.diagram == diag
            assert floors_of(curve.ctype, curve.positions) == dec.floors


def test_decompose_tropical_line():
    cfg = make_stretched(2, 1)
    [(diag, curve)] = enumerate_curves(1, 0, cfg)
    dec = decompose(curve)
    assert len(dec.floors) == 1
    assert dec.diagram.elevators[0].bottom == -1  # a downward leg elevator
    assert dec.diagram == diag


def test_decompose_rejects_bad_slope():
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (2, 1)),),
        legs=(
            Leg(0, (-1, 0)),
            Leg(0, (-1, -1)),
            Leg(1, (1, 1)),
            Leg(1, (0, 1)),
        ),
    )
    curve = ParametrizedCurve(t, lengths=(F(1),), positions=((F(0), F(0)), (F(2), F(1))))
    with pytest.raises(NotFloorDecomposed) as err:
        decompose(curve)
    assert err.value.slope == (2, 1)


def test_decompose_unmarked_cubic_reports_structure():
    dec = decompose(smooth_cubic_curve())
    assert len(dec.floors) == 3
    assert len(dec.elevators) == 3
    assert dec.diagram is None  # no marks anywhere
    assert dec.problems != ()


def _decompose_corpus():
    """The 452 curves of `enumerate_curves(d, g)` for d <= 4 and every g,
    the smooth cubic, and 60 of those curves with one mark moved to
    another vertex."""
    curves = [c for d in range(1, 5) for g in range((d - 1) * (d - 2) // 2 + 1) for _diag, c in enumerate_curves(d, g)]
    moved = []
    for i, c in enumerate(curves[::7][:60]):
        t = c.ctype
        j = t.contracted_legs()[i % t.n_marks()]
        legs = list(t.legs)
        legs[j] = Leg((legs[j].vertex + 1 + i % (t.n_vertices() - 1)) % t.n_vertices())
        moved.append(ParametrizedCurve(CombinatorialType(t.weights, t.edges, tuple(legs)), c.lengths, c.positions))
    return curves + [smooth_cubic_curve()] + moved


def test_decompose_frozen():
    # taken before the chains came from `components`; the moved marks give
    # floors and elevators with no mark or with two
    curves = _decompose_corpus()
    assert len(curves) == 513
    h = hashlib.sha256()
    for curve in curves:
        h.update(repr(decompose(curve)).encode())
    assert h.hexdigest() == "0b7a9b60fdc4163a6ecdd2bcbb03e3eb57ed4e4cbbfd5c52eb8d6d95c79040e8"


def test_decompose_chains_end_at_a_junction_whatever_the_edge_order():
    # floors at vertices 0 (top), 2 and 3; vertex 1 is off every floor, with one
    # vertical edge up (weight 2) and two down: each is its own chain
    positions = ((F(0), F(2)), (F(0), F(0)), (F(0), F(-1)), (F(0), F(-3)))
    edges = [(Edge(0, 1, (0, -2)), F(1)), (Edge(1, 2, (0, -1)), F(1)), (Edge(1, 3, (0, -1)), F(3))]
    legs = (Leg(0), Leg(2), Leg(3), Leg(0, (-1, 1)), Leg(0, (1, 1)))
    legs += (Leg(2, (-1, -1)), Leg(2, (1, 0)), Leg(3, (-1, -1)), Leg(3, (1, 0)))
    for order in itertools.permutations(range(3)):
        t = CombinatorialType((0,) * 4, tuple(edges[k][0] for k in order), legs)
        dec = decompose(ParametrizedCurve(t, tuple(edges[k][1] for k in order), positions))
        chains = {(tuple(order[i] for i in chain), w, top, bottom) for chain, w, top, bottom in dec.elevators}
        assert chains == {((0,), 2, 0, 1), ((1,), 1, 1, 2), ((2,), 1, 1, 3)}
        assert dec.problems == ("elevator with marks []",) * 3
        assert dec.diagram is None


def test_decompose_chains_end_at_a_floor_vertex_with_two_vertical_edges():
    # vertex 1 lies on a floor, between a vertical edge up and one down
    positions = ((F(0), F(2)), (F(0), F(0)), (F(0), F(-1)))
    t = CombinatorialType(
        (0,) * 3,
        (Edge(0, 1, (0, -1)), Edge(1, 2, (0, -1))),
        tuple(Leg(v, s) for v in range(3) for s in ((0, 0), (-1, 0), (1, 0))),
    )
    dec = decompose(ParametrizedCurve(t, (F(2), F(1)), positions))
    assert dec.elevators == (((0,), 1, 0, 1), ((1,), 1, 1, 2))


def test_decompose_problems_pinned():
    # the messages as they were before the chains came from `components`
    [(_diag, conic)] = enumerate_curves(2, 0)
    t = conic.ctype

    def with_legs(legs):
        return ParametrizedCurve(CombinatorialType(t.weights, t.edges, tuple(legs)), conic.lengths, conic.positions)

    moved = list(t.legs)
    moved[2] = Leg(6)  # mark 3 leaves floor 1 for the bounded elevator, which has mark 2
    for curve, problems in [
        (with_legs(moved), ("elevator with marks [2, 3]", "floor 1 with marks []")),
        (with_legs(t.legs[1:]), ("floor 2 with marks []",)),  # floor 2's mark dropped
        (ParametrizedCurve(tropical_line(n_marks=1), (), ((F(0), F(0)),)), ("unmarked vertical leg elevator",)),
    ]:
        dec = decompose(curve)
        assert (dec.problems, dec.diagram) == (problems, None)


def test_diagram_text_round_trip():
    cfg = make_stretched(8, 3)
    for diag, _curve in enumerate_curves(3, 0, cfg):
        assert parse_diagram(diag.text()) == diag


@pytest.mark.parametrize(
    "text, problem",
    [
        ("F1: mark=1\n1:up->F1 mark=2", "starts at a floor, not up"),
        ("F1: mark=1\n1:F9->down mark=2", "outside F1..F1"),
        ("F2: mark=1\nF1: mark=2\n1:F1->F2 mark=3", "lower floor"),
        ("F1: mark=1\n1:F1->F0 mark=2", "lower floor"),
        ("F2: mark=3\nF1: mark=1\n1:F2->F1 mark=2\n1:F1->down mark=7", "permutation of 1..4"),
        ("F1: mark=1\n1:F1->down mark=1", "permutation of 1..2"),
        ("F1: mark=1\n0:F1->down mark=2", "weight must be at least 1"),
        ("", "floors must be F1..Fd"),
        ("F2: mark=1\n1:F2->down mark=2", "floors must be F1..Fd"),
        ("F1: mark=1\nF1: mark=2", r"each once, not \[1, 1\]"),
        ("F1: mark=1\n1:F1->down", "not a floor or elevator line"),
    ],
)
def test_parse_diagram_refuses_malformed_text(text, problem):
    # text the generator never writes, which diagram_curve cannot build
    with pytest.raises(ValueError, match=problem):
        parse_diagram(text)


def test_text_keeps_the_floor_of_a_rising_elevator():
    # an elevator from up to infinity names the floor it lands on, so its
    # text is refused for starting up, not read as no line at all
    diag = FloorDiagram(1, 0, (1,), (Elevator(UP, 1, 1, 2), Elevator(1, DOWN, 1, 3)))
    assert diag.text() == "F1: mark=1\n1:up->F1 mark=2\n1:F1->down mark=3"
    with pytest.raises(ValueError, match="^an elevator starts at a floor, not up: '1:up->F1 mark=2'$"):
        parse_diagram(diag.text())


def test_two_events_at_one_x_build_no_curve():
    # point 1 moved to point 0's x keeps the points vertically stretched,
    # but the one conic diagram then has two events on one vertical line
    cfg = make_stretched(5, 2)
    points = list(cfg.points)
    points[1] = (points[0][0], points[1][1])
    moved = StretchedConfig(PointConfiguration(tuple(points)), stretch=cfg.stretch, mu=cfg.mu)
    assert is_vertically_stretched(moved.points, moved.stretch)
    (diag,) = _marked_diagrams(2, 0)
    assert diagram_curve(diag, moved) is None
    with pytest.raises(ValueError, match="^diagram 0 has no curve through the points"):
        enumerate_curves(2, 0, moved)


def test_top_floor_check_hand_built():
    bad = FloorDiagram(
        2,
        0,
        (2, 1),
        (
            Elevator(2, 1, 1, 3),
            Elevator(2, -1, 1, 4),
            Elevator(1, -1, 1, 5),
        ),
    )
    assert not top_floor_check(bad)  # two elevators touch the top floor


def test_diagram_curve_rejects_impossible_marking():
    # elevator marked above its upper floor: no curve
    diag = FloorDiagram(
        2,
        0,
        (2, 3),
        (
            Elevator(2, 1, 1, 1),
            Elevator(1, -1, 1, 4),
            Elevator(1, -1, 1, 5),
        ),
    )
    cfg = make_stretched(5, 2)
    assert diagram_curve(diag, cfg) is None


def test_marking_bijection_invariant():
    cfg = make_stretched(10, 3)
    # n = 3d + g - 1 must match
    with pytest.raises(ValueError):
        enumerate_curves(3, 0, cfg)
