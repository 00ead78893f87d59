"""Property tests on small random combinatorial types (Hypothesis)."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from tropcurves.canonical import aut_order, brute_force_aut_order, canonical_key, relabel  # noqa: E402
from tropcurves.graphs import CombinatorialType, Edge, Leg  # noqa: E402
from tropcurves.serialize import dumps, type_from_json, type_to_json  # noqa: E402

SLOPES = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
SETTINGS = hypothesis.settings(max_examples=200, deadline=None)


@st.composite
def small_types(draw):
    """Connected types on at most five vertices: a random spanning tree,
    up to two extra edges or loops (loops have slope zero), weights 0 or 1,
    and up to three ordered legs, some of them contracted."""
    n = draw(st.integers(1, 5))
    edges = [Edge(draw(st.integers(0, v - 1)), v, draw(SLOPES)) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.append(Edge(u, v, (0, 0) if u == v else draw(SLOPES)))
    weights = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    legs = tuple(Leg(v, s) for v, s in draw(st.lists(st.tuples(st.integers(0, n - 1), SLOPES), max_size=3)))
    return CombinatorialType(weights, tuple(edges), legs)


@SETTINGS
@hypothesis.given(small_types(), st.randoms(use_true_random=False))
def test_canonical_key_invariant_under_relabeling(t, rng):
    label = list(range(t.n_vertices()))
    rng.shuffle(label)
    shuffled = relabel(t, label)
    for labeled in ("all", "contracted", "none"):
        assert canonical_key(shuffled, labeled) == canonical_key(t, labeled)


@SETTINGS
@hypothesis.given(small_types())
def test_aut_order_matches_brute_force(t):
    assert aut_order(t) == brute_force_aut_order(t)


@SETTINGS
@hypothesis.given(small_types())
def test_type_json_round_trip(t):
    assert type_from_json(json.loads(dumps(type_to_json(t)))) == t
