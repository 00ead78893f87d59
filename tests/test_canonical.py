import hashlib
import random

from fixtures import brute_force_aut_order

from tropcurves.canonical import aut_order, canonical_form, canonical_key
from tropcurves.corpus import enumerate_cores
from tropcurves.graphs import CombinatorialType, Edge, Leg


def test_theta_graph_aut_order():
    th = CombinatorialType(weights=(0, 0), edges=(Edge(0, 1), Edge(0, 1), Edge(0, 1)))
    assert aut_order(th) == 12  # S3 on the edges times the vertex swap
    assert brute_force_aut_order(th) == 12


def test_double_edge_nonzero_slope():
    t = CombinatorialType(
        weights=(0, 0),
        edges=(Edge(0, 1, (0, 1)), Edge(0, 1, (0, 1))),
        legs=(
            Leg(0, (0, -1)),
            Leg(0, (0, -1)),
            Leg(1, (0, 1)),
            Leg(1, (0, 1)),
        ),
    )
    # swapping the vertices reverses the slopes, so only edge swaps remain
    assert aut_order(t) == 2
    assert brute_force_aut_order(t) == 2


def test_asymmetric_type_is_rigid():
    t = CombinatorialType(
        weights=(0,),
        edges=(),
        legs=(Leg(0, (1, 1)), Leg(0, (-1, 0)), Leg(0, (0, -1))),
    )
    assert aut_order(t) == 1


def test_loop_contributes_flip():
    t = CombinatorialType(weights=(1,), edges=(Edge(0, 0),))
    assert aut_order(t) == 2
    assert brute_force_aut_order(t) == 2


def test_isomorphic_relabelings():
    t1 = CombinatorialType(
        weights=(0, 1),
        edges=(Edge(0, 1, (2, 1)),),
        legs=(Leg(0, (-1, 0)), Leg(0, (-1, -1)), Leg(1, (0, 0))),
    )
    t2 = CombinatorialType(
        weights=(1, 0),
        edges=(Edge(0, 1, (-2, -1)),),
        legs=(Leg(1, (-1, 0)), Leg(1, (-1, -1)), Leg(0, (0, 0))),
    )
    assert canonical_key(t1) == canonical_key(t2)
    t3 = CombinatorialType(
        weights=(0, 1),
        edges=(Edge(0, 1, (2, -1)),),
        legs=(Leg(0, (-1, 0)), Leg(0, (-1, -1)), Leg(1, (0, 0))),
    )
    assert canonical_key(t1) != canonical_key(t3)


def test_aut_matches_brute_force_on_random_graphs():
    rng = random.Random(90125)
    for _ in range(120):
        n = rng.randint(1, 5)
        edges = []
        for v in range(1, n):
            edges.append(Edge(rng.randrange(v), v))
        for _ in range(rng.randint(0, 2)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append(Edge(min(u, v), max(u, v)))
        weights = tuple(rng.randint(0, 1) for _ in range(n))
        nlegs = rng.randint(0, 2)
        legs = tuple(Leg(rng.randrange(n), (0, 0)) for _ in range(nlegs))
        t = CombinatorialType(weights, tuple(edges), legs)
        assert aut_order(t) == brute_force_aut_order(t)


def test_canonical_key_stable_under_relabeling():
    rng = random.Random(777)
    t = CombinatorialType(
        weights=(0, 0, 0, 1),
        edges=(Edge(0, 1, (1, 0)), Edge(1, 2, (1, 1)), Edge(2, 3, (0, 1)), Edge(3, 0, (-2, -2))),
        legs=(Leg(1, (0, 0)), Leg(2, (1, 0))),
    )
    key = canonical_key(t)
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        edges = tuple(Edge(perm[e.u], perm[e.v], e.slope) for e in t.edges)
        legs = tuple(Leg(perm[leg.vertex], leg.slope) for leg in t.legs)
        weights = tuple(t.weights[perm.index(k)] for k in range(4))
        shuffled = CombinatorialType(weights, edges, legs)
        assert canonical_key(shuffled) == key


def test_labelings_frozen():
    # (key, label, count) in every labeled mode, and aut_order, of every
    # core at d <= 2 and of the 791 trivalent cores at d = 3: any change to
    # the search's order or its leaves shows here, not only to its keys
    cores = [t for d in (1, 2) for b1 in (0, 1) for t in enumerate_cores(d, b1)]
    cores += enumerate_cores(3, 0, max_valency=3)
    assert len(cores) == 208 + 791
    blob = hashlib.sha256()
    for t in cores:
        for mode in ("all", "contracted", "none"):
            blob.update(repr(canonical_form(t, labeled=mode)).encode())
        blob.update(repr(aut_order(t)).encode())
    assert blob.hexdigest() == "ea2dc5a923239d0e31a0d98ac2e0d39cb476218eac0e5c7d19996761fadde4fe"
