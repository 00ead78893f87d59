import copy
import hashlib
import itertools
import json
import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from fixtures import genus, is_stable, tropical_line

from tropcurves.families import AffineFunction
from tropcurves.floors import DOWN, Elevator, enumerate_curves
from tropcurves.graphs import (
    CombinatorialType,
    Edge,
    Leg,
    ParametrizedCurve,
    TropicalGraph,
    check_balancing,
    face_contract,
    overvalency,
)
from tropcurves.serialize import type_to_json

F = Fraction


def theta_graph():
    # two vertices joined by three parallel contracted edges
    return CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1), Edge(0, 1), Edge(0, 1)),
    )


def test_genus_examples():
    g = TropicalGraph(weights=(0,), edges=(), lengths=(), legs=(0, 0, 0))
    assert genus(g) == 0
    assert genus(theta_graph()) == 2
    loop = CombinatorialType(weights=(1,), edges=(Edge(0, 0),))
    assert genus(loop) == 2


def test_stability_examples():
    two_legs = TropicalGraph(weights=(0,), edges=(), lengths=(), legs=(0, 0))
    assert not is_stable(two_legs)
    three_legs = TropicalGraph(weights=(0,), edges=(), lengths=(), legs=(0, 0, 0))
    assert is_stable(three_legs)
    isolated_weight_one = TropicalGraph(weights=(1,), edges=(), lengths=(), legs=())
    assert not is_stable(isolated_weight_one)
    weight_one_leg = TropicalGraph(weights=(1,), edges=(), lengths=(), legs=(0,))
    assert is_stable(weight_one_leg)


def test_balancing_examples():
    assert check_balancing(tropical_line()) is None
    bad = CombinatorialType(weights=(0,), edges=(), legs=(Leg(0, (1, 1)), Leg(0, (-1, 0))))
    assert check_balancing(bad) == 0
    # a vertical edge between two vertices, balanced by legs
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (0, 1)),),
        legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1)), Leg(1, (1, 1)), Leg(1, (-1, 0)), Leg(1, (0, -1)), Leg(1, (0, -1)), Leg(0, (0, 0))),
    )
    # star at 0: (0,1)+(1,1)+(-1,0)+(0,-1)+(0,0) != 0 -> violation at 0
    assert check_balancing(t) == 0


def test_rejects_disconnected_and_bad_lengths():
    with pytest.raises(ValueError):
        TropicalGraph(weights=(0, 0), edges=(), lengths=(), legs=(0, 1))
    with pytest.raises(ValueError):
        TropicalGraph(weights=(0, 0), edges=((0, 1),), lengths=(F(0),))
    with pytest.raises(ValueError):
        CombinatorialType(weights=(0,), edges=(Edge(0, 0, (1, 0)),))


def test_contract_edge_merges_weights():
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1),),
        legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(1, (0, -1)), Leg(1, (0, 1)), Leg(0, (0, -1)), Leg(1, (0, -1))),
    )
    before = genus(t)
    c = face_contract(t, [0])
    assert c.n_vertices() == 1
    assert c.weights == (0,)
    assert genus(c) == before
    # an edge of nonzero slope merges its ends too, keeping the genus
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (0, 1)),),
        legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1)), Leg(1, (0, -1)), Leg(1, (1, 1)), Leg(1, (-1, 0)), Leg(1, (0, -1)), Leg(0, (0, -1))),
    )
    c = face_contract(t, [0])
    assert genus(c) == genus(t)


def test_contract_loop_adds_weight():
    t = CombinatorialType(weights=(0,), edges=(Edge(0, 0),), legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1))))
    c = face_contract(t, [0])
    assert c.weights == (1,)
    assert genus(c) == genus(t)


def test_contract_theta_graph_all_edges():
    th = theta_graph()
    c = face_contract(th, [0, 1, 2])
    assert c.n_vertices() == 1
    assert c.weights == (2,)
    assert genus(c) == genus(th) == 2


def test_contract_refuses_edge_index_out_of_range():
    # -1 does not wrap to the last edge
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1), Edge(0, 1, (0, 1))),
        legs=(Leg(0, (0, -1)), Leg(1, (0, 1))),
    )
    for bad in ([99], [-1], [0, 2]):
        with pytest.raises(ValueError, match="edge index out of range"):
            face_contract(t, bad)


def test_face_contract_numbering_frozen():
    # every edge subset of size <= 2 of every curve type at d <= 3: the
    # contracted type with its vertex and edge maps, or the refusal message
    blob = hashlib.sha256()
    for d in range(1, 4):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            for _diag, curve in enumerate_curves(d, g):
                t = curve.ctype
                for k in range(3):
                    for subset in itertools.combinations(range(len(t.edges)), k):
                        try:
                            c, vmap, emap = face_contract(t, subset, with_maps=True)
                            record = [type_to_json(c), sorted(vmap.items()), sorted(emap.items())]
                        except ValueError as err:
                            record = str(err)
                        blob.update(json.dumps(record, sort_keys=True).encode())
    assert blob.hexdigest() == "d9d265293cce2a82d244f5e313a2846898a99bbbaf86b0ba43eacc4f2dff7ca0"


def test_overvalency():
    t3 = tropical_line()
    assert overvalency(t3) == 0
    t4 = tropical_line(n_marks=1)
    assert overvalency(t4) == 1
    t5 = tropical_line(n_marks=2)
    assert overvalency(t5) == 2


def test_parametrized_curve_consistency():
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (0, -1)),),
        legs=(
            Leg(0, (1, 1)),
            Leg(0, (-1, 0)),
            Leg(1, (-1, 0)),
            Leg(1, (1, 1)),
            Leg(1, (0, -1)),
            Leg(0, (0, -1)),
            Leg(1, (0, -1)),
            Leg(0, (0, -1)),
        ),
    )
    # not balanced as stated; only geometric consistency is checked here
    curve = ParametrizedCurve(t, lengths=(F(3),), positions=((F(0), F(0)), (F(0), F(-3))))
    assert curve.positions[1] == (0, -3)
    with pytest.raises(ValueError, match="^edge 0: positions violate geometric consistency$"):
        ParametrizedCurve(t, lengths=(F(3),), positions=((F(0), F(0)), (F(1), F(-3))))
    with pytest.raises(ValueError, match="^edge 0: length 0 is not strictly positive$"):
        ParametrizedCurve(t, lengths=(F(0),), positions=((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError, match="^one length per edge required: 2 for 1 edges$"):
        ParametrizedCurve(t, lengths=(F(3), F(1)), positions=((F(0), F(0)), (F(0), F(-3))))
    with pytest.raises(ValueError, match="^one position per vertex required: 1 for 2 vertices$"):
        ParametrizedCurve(t, lengths=(F(3),), positions=((F(0), F(0)),))


def test_parametrized_curve_refuses_a_fractional_offset_in_y():
    # x agrees exactly; y is off by 1/6 against denominators 2 and 3
    t = CombinatorialType(weights=(0, 0), edges=(Edge(0, 1, (1, 2)),))
    ParametrizedCurve(t, lengths=(F(1, 2),), positions=((F(1, 3), F(0)), (F(5, 6), F(1))))
    with pytest.raises(ValueError, match="geometric consistency"):
        ParametrizedCurve(t, lengths=(F(1, 2),), positions=((F(1, 3), F(0)), (F(5, 6), F(7, 6))))


def test_parametrized_curve_stores_fractions():
    # ints become Fractions; a Fraction is stored as it is
    t = CombinatorialType(weights=(0, 0), edges=(Edge(0, 1, (0, -1)),))
    length = F(3, 2)
    curve = ParametrizedCurve(t, lengths=(length,), positions=((0, 0), (0, F(-3, 2))))
    assert curve.lengths[0] is length
    assert all(type(c) is F for p in curve.positions for c in p)
    curve = ParametrizedCurve(t, lengths=(3,), positions=((1, 2), (1, -1)))
    assert curve.lengths == (3,) and type(curve.lengths[0]) is F
    assert curve.positions == ((1, 2), (1, -1))
    assert all(type(c) is F for p in curve.positions for c in p)


def test_curves_and_graphs_refuse_floats():
    # a float is a binary fraction, not the rational meant, even when integral
    t = CombinatorialType(weights=(0, 0), edges=(Edge(0, 1, (0, -1)),))
    with pytest.raises(ValueError, match=r"^edge 0: length 1\.5 is a float, not an int or a Fraction$"):
        ParametrizedCurve(t, lengths=(1.5,), positions=((0, 0), (0, F(-3, 2))))
    with pytest.raises(ValueError, match=r"^vertex 1: y -3\.0 is a float, not an int or a Fraction$"):
        ParametrizedCurve(t, lengths=(3,), positions=((0, 0), (0, -3.0)))
    with pytest.raises(ValueError, match=r"^edge 0: length 0\.1 is a float, not an int or a Fraction$"):
        TropicalGraph(weights=(0, 0), edges=((0, 1),), lengths=(0.1,))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TropicalGraph(weights=(0.7,), edges=(), lengths=(), legs=(0,)), r"^vertex 0: weight 0\.7 is not an int$"),
        (lambda: TropicalGraph(weights=(0, 0), edges=((0, 1.9),), lengths=(1,)), r"^edge 0: endpoint 1\.9 is not an int$"),
        (lambda: CombinatorialType(weights=(1.5,), edges=()), r"^vertex 0: weight 1\.5 is not an int$"),
        (lambda: CombinatorialType(weights=(0, 0), edges=(Edge(0.0, 1, (1, 0)),)), r"^edge 0: endpoint 0\.0 is not an int$"),
        (lambda: TropicalGraph(weights=(0,), edges=(), lengths=(), legs=(True,)), r"^leg 0: vertex True is not an int$"),
        (lambda: AffineFunction(0.1, 0), r"^affine function: value 0\.1 is a float, not an int or a Fraction$"),
    ],
    ids=["graph-weight", "graph-endpoint", "type-weight", "type-endpoint", "bool-leg", "affine-value"],
)
def test_graph_data_refuses_non_ints(build, message):
    # int() would truncate these silently, and a float endpoint would
    # reach the union-find as a list index
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "edges, legs, message",
    [
        (((0, 1), (2, 5)), (), "edge 1: endpoint 5 is out of range 0..2"),
        (((0, 1), (-1, 7)), (), "edge 1: endpoint -1 is out of range 0..2"),
        (((0, 1), (1, 3)), (), "edge 1: endpoint 3 is out of range 0..2"),
        (((0, 1), (1, 2)), (0, 2, 3, -1), "leg 2: vertex 3 is out of range 0..2"),
        (((0, 1), (1, 2)), (1, -1), "leg 1: vertex -1 is out of range 0..2"),
        (((0, 1), (1, 1)), (2,), "graph is disconnected: vertex 2 is not joined to vertex 0"),
        (((0, 1.0), (1, 5)), (True,), "edge 0: endpoint 1.0 is not an int"),
        (((0, 1), (1, 5)), (1, 2.0), "leg 1: vertex 2.0 is not an int"),
    ],
)
def test_graph_refuses_out_of_range_ends(edges, legs, message):
    # the first endpoint out of range, u before v, or the first leg vertex;
    # an endpoint that is not an int before a leg vertex, and both before
    # any range
    for build in (
        lambda: TropicalGraph((0, 0, 0), edges, (1,) * len(edges), legs),
        lambda: CombinatorialType((0, 0, 0), tuple(Edge(u, v) for u, v in edges), tuple(map(Leg, legs))),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_enumerated_curves_equal_their_rebuilt_copies():
    # a curve rebuilt from the Fractions it reads back has the same
    # integer form, so it is equal and hashes equal
    for d in range(1, 5):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            for _diag, c in enumerate_curves(d, g):
                copy = ParametrizedCurve(c.ctype, c.lengths, c.positions)
                assert copy == c and hash(copy) == hash(c)


def test_parametrized_curve_is_a_frozen_value():
    # an int and Fraction mix, so den is 2; the Fractions are read first,
    # and a copy that has not read them yet is still equal
    t = CombinatorialType(weights=(0, 0), edges=(Edge(0, 1, (1, 2)),))
    curve = ParametrizedCurve(t, lengths=(F(1, 2),), positions=((1, 0), (F(3, 2), 1)))
    assert (curve.den, curve.ints) == (2, (1, 2, 0, 3, 2))
    assert curve.lengths == (F(1, 2),)
    for name in ("ctype", "den", "ints"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(curve, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(curve, name)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'foo'$"):
        curve.foo = 1
    rebuilt = ParametrizedCurve(t, (F(1, 2),), ((F(1), F(0)), (F(3, 2), F(1))))
    assert rebuilt == curve and hash(rebuilt) == hash(curve) == hash((t, 2, curve.ints))
    assert curve != (t, 2, curve.ints) and curve != "curve"
    names = {"ParametrizedCurve": ParametrizedCurve, "CombinatorialType": CombinatorialType}
    names.update(Edge=Edge, Leg=Leg, Fraction=F)
    copies = [copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve)), eval(repr(curve), names)]
    for other in copies:
        assert other == curve and hash(other) == hash(curve)
        assert (other.lengths, other.positions) == (curve.lengths, curve.positions)


def test_edges_and_legs_are_values():
    # frozen, hashed as their field tuples, and rebuilt by repr, pickle
    # and copy, as a floor diagram's elevators are; the slope defaults to
    # zero, and an Edge is never a Leg
    names = {"Edge": Edge, "Leg": Leg, "Elevator": Elevator}
    values = [
        (Edge(0, 1, (1, -2)), (0, 1, (1, -2))),
        (Leg(2, (0, -1)), (2, (0, -1))),
        (Elevator(3, DOWN, 2, 5), (3, DOWN, 2, 5)),
    ]
    for x, fields in values:
        for name in ("u", "vertex", "top", "slope", "foo"):
            with pytest.raises(AttributeError):
                setattr(x, name, (0, 0))
        assert hash(x) == hash(fields)
        for other in (eval(repr(x), names), pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert other == x and type(other) is type(x) and hash(other) == hash(x)
    assert Edge(0, 1).slope == Leg(0).slope == (0, 0)
    assert Edge(0, 1) == Edge(0, 1, (0, 0)) and Leg(3) == Leg(3, (0, 0))
    for e, leg in itertools.product((Edge(0, 0), Edge(0, 1, (1, 0))), (Leg(0), Leg(0, (1, 0)), Leg(1, (1, 0)))):
        assert e != leg and leg != e


def test_curve_multiplicity_line():
    line = tropical_line()
    curve = ParametrizedCurve(line, lengths=(), positions=((F(0), F(0)),))
    assert curve.multiplicity() == 1


def test_multiplicity_refuses_four_germs():
    t = CombinatorialType(
        weights=(0,),
        edges=(),
        legs=(Leg(0, (1, 0)), Leg(0, (-1, 0)), Leg(0, (0, 1)), Leg(0, (0, -1))),
    )
    curve = ParametrizedCurve(t, lengths=(), positions=((F(0), F(0)),))
    with pytest.raises(ValueError, match="more than three"):
        curve.multiplicity()


def test_multiplicity_skips_the_mark():
    # a weight-two edge between two vertices of |det| 2; vertex 1 carries
    # a mark, listed first, and counts the |det| of its other three germs
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (0, 2)),),
        legs=(Leg(1), Leg(0, (-1, -1)), Leg(0, (1, -1)), Leg(1, (-1, 1)), Leg(1, (1, 1))),
    )
    curve = ParametrizedCurve(t, lengths=(F(1),), positions=((F(0), F(0)), (F(0), F(2))))
    assert curve.multiplicity() == 4


def test_genus_invariance_under_contraction_fuzz():
    import random

    rng = random.Random(20240801)
    for _ in range(250):
        n = rng.randint(1, 7)
        edges = []
        for v in range(1, n):
            edges.append((rng.randrange(v), v))
        for _ in range(rng.randint(0, 3)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            edges.append((min(u, v), max(u, v)))
        weights = tuple(rng.randint(0, 2) for _ in range(n))
        t = CombinatorialType(weights, tuple(Edge(u, v) for u, v in edges))
        k = rng.randint(0, len(edges))
        subset = rng.sample(range(len(edges)), k)
        c = face_contract(t, subset)
        assert genus(c) == genus(t)
        assert check_balancing(c) is None
