import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from tropcurves.floors import enumerate_curves
from tropcurves.graphs import (
    CombinatorialType,
    Edge,
    Leg,
    ParametrizedCurve,
    TropicalGraph,
    check_balancing,
    contract,
    face_contract,
    genus,
    is_stable,
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


def tropical_line(n_marks=0):
    legs = tuple(Leg(0) for _ in range(n_marks)) + (
        Leg(0, (1, 1)),
        Leg(0, (-1, 0)),
        Leg(0, (0, -1)),
    )
    return CombinatorialType(weights=(0,), edges=(), legs=legs)


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
    c = contract(t, [0])
    assert c.n_vertices() == 1
    assert c.weights == (0,)
    assert genus(c) == before


def test_contract_loop_adds_weight():
    t = CombinatorialType(weights=(0,), edges=(Edge(0, 0),), legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1))))
    c = contract(t, [0])
    assert c.weights == (1,)
    assert genus(c) == genus(t)


def test_contract_theta_graph_all_edges():
    th = theta_graph()
    c = contract(th, [0, 1, 2])
    assert c.n_vertices() == 1
    assert c.weights == (2,)
    assert genus(c) == genus(th) == 2


def test_contract_rejects_nonzero_slope():
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (0, 1)),),
        legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1)), Leg(1, (0, -1)), Leg(1, (1, 1)), Leg(1, (-1, 0)), Leg(1, (0, -1)), Leg(0, (0, -1))),
    )
    with pytest.raises(ValueError):
        contract(t, [0])
    # face contraction collapses it anyway, preserving genus and balance
    c = face_contract(t, [0])
    assert genus(c) == genus(t)


def test_contract_refuses_edge_index_out_of_range():
    # the range is checked before any slope is read, so -1 does not wrap
    # to the last edge (slope (0, 1), which `contract` would refuse)
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1), Edge(0, 1, (0, 1))),
        legs=(Leg(0, (0, -1)), Leg(1, (0, 1))),
    )
    for bad in ([99], [-1], [0, 2]):
        for op in (contract, face_contract):
            with pytest.raises(ValueError, match="edge index out of range"):
                op(t, bad)


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


def test_enumerated_curves_equal_their_rebuilt_copies():
    # a curve rebuilt from the Fractions it reads back has the same
    # integer form, so it is equal and hashes equal
    for d in range(1, 5):
        for g in range(0, (d - 1) * (d - 2) // 2 + 1):
            for _diag, c in enumerate_curves(d, g):
                copy = ParametrizedCurve(c.ctype, c.lengths, c.positions)
                assert copy == c and hash(copy) == hash(c)


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
        c = contract(t, subset)
        assert genus(c) == genus(t)
        assert check_balancing(c) is None
