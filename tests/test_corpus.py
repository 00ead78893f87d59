import hashlib
import itertools
from fractions import Fraction as F

import pytest

import tropcurves.corpus
from tropcurves.canonical import canonical_key
from tropcurves.cones import cone_dimension, expected_dimension, is_realizable
from tropcurves.corpus import _attach_mark, _core, _shapes, enumerate_cores, scan_fibers
from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.floors import enumerate_curves, make_stretched
from tropcurves.graphs import CombinatorialType, Edge, Leg, check_balancing, genus, is_stable
from tropcurves.serialize import dumps, fiber_to_json, type_to_json


def tree_oracle_cores(d, slope_bound=None):
    """Independent enumeration of Betti-0 cores: every tree's edge slopes
    are forced by the leg distribution, so brute force over labeled trees
    and leg assignments suffices."""
    bound = d if slope_bound is None else slope_bound
    legs = [(1, 1)] * d + [(-1, 0)] * d + [(0, -1)] * d
    found = {}
    for nv in range(1, 3 * d - 1):
        for edges in _labeled_trees(nv):
            for assignment in itertools.product(range(nv), repeat=len(legs)):
                slopes = _forced_slopes(nv, edges, legs, assignment)
                if slopes is None:
                    continue
                if any(abs(s[0]) > bound or abs(s[1]) > bound for s in slopes):
                    continue
                t = CombinatorialType(
                    weights=(0,) * nv,
                    edges=tuple(Edge(u, v, s) for (u, v), s in zip(edges, slopes)),
                    legs=tuple(
                        Leg(vtx, slope) for slope, vtx in sorted(zip(legs, assignment))
                    ),
                )
                if not is_stable(t):
                    continue
                assert check_balancing(t) is None
                found[canonical_key(t, labeled="none")] = t
    return found


def _labeled_trees(nv):
    if nv == 1:
        yield ()
        return
    pairs = list(itertools.combinations(range(nv), 2))
    for combo in itertools.combinations(pairs, nv - 1):
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for u, v in combo:
            a, b = find(u), find(v)
            if a == b:
                ok = False
                break
            parent[a] = b
        if ok:
            yield combo


def _forced_slopes(nv, edges, legs, assignment):
    # slope of (u, v) = minus the sum of leg slopes on u's side of the tree
    adj = {i: [] for i in range(nv)}
    for idx, (u, v) in enumerate(edges):
        adj[u].append((idx, v))
        adj[v].append((idx, u))
    slopes = [None] * len(edges)
    for idx, (u, v) in enumerate(edges):
        side = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for jdx, y in adj[x]:
                if jdx != idx and y not in side:
                    side.add(y)
                    stack.append(y)
        sx = sum(legs[i][0] for i in range(len(legs)) if assignment[i] in side)
        sy = sum(legs[i][1] for i in range(len(legs)) if assignment[i] in side)
        if (sx, sy) == (0, 0):
            return None  # contracted edges are not part of a core
        slopes[idx] = (-sx, -sy)
    return slopes


def test_degree_one_core_is_the_line():
    cores = enumerate_cores(1, 0)
    assert len(cores) == 1
    assert cores[0].n_vertices() == 1


def test_degree_two_cores_match_tree_oracle():
    sweep = {canonical_key(t, labeled="none") for t in enumerate_cores(2, 0)}
    oracle = set(tree_oracle_cores(2))
    assert sweep == oracle
    assert len(sweep) == 51


def test_slope_bound_is_sharp_at_degree_two():
    # widening the slope alphabet adds no realizable cores: the dual
    # polygon bound is not an artifact of the enumeration
    for b1 in (0, 1):
        wide = [canonical_key(t, labeled="none") for t in enumerate_cores(2, b1, slope_bound=3)]
        normal = [canonical_key(t, labeled="none") for t in enumerate_cores(2, b1)]
        assert wide == normal
    assert set(tree_oracle_cores(2, slope_bound=3)) == set(tree_oracle_cores(2))


def _keys_digest(cores):
    keys = [canonical_key(t, labeled="none") for t in cores]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def test_betti_one_cores_degree_two():
    cores = enumerate_cores(2, 1)
    assert len(cores) == 156
    # the ordered keys, which no vertex numbering moves
    frozen = "2b743aaf9018eaee2869af7677b4efb16db2aede7df8cefc81c679e138657fb3"
    assert _keys_digest(cores) == frozen
    assert _keys_digest(enumerate_cores(2, 1, slope_bound=3)) == frozen
    for t in cores:
        assert t.is_weightless()
        assert is_stable(t)
        assert check_balancing(t) is None
        assert t.first_betti() == 1
        assert is_realizable(t)
        assert all(max(abs(e.slope[0]), abs(e.slope[1])) <= 2 for e in t.edges)
    # a core that a plane sweep lost when its cache of dead-end states
    # ignored the slopes of the edges already placed
    square = CombinatorialType(
        weights=(0, 0, 0, 0),
        edges=(Edge(0, 1, (0, -1)), Edge(0, 2, (-1, 0)), Edge(2, 3, (1, 0)), Edge(1, 3, (0, 1))),
        legs=(
            Leg(2, (-1, 0)),
            Leg(2, (-1, 0)),
            Leg(1, (0, -1)),
            Leg(1, (0, -1)),
            Leg(0, (1, 1)),
            Leg(3, (1, 1)),
        ),
    )
    assert canonical_key(square, labeled="none") in {canonical_key(t, labeled="none") for t in cores}


def test_betti_one_cores_generated_once():
    # one shape per core: no canonical key repeats before the sort.  At
    # d = 2 the least first bead already tells a cycle from its
    # reflection; the trivalent cubics need the whole bead sequence
    for d, bound, cap, count in ((2, 2, 8, 156), (2, 3, 8, 156), (2, 2, 3, 21), (3, 3, 3, 3586)):
        shapes = _shapes((d, d, d), bound, cap, 1)
        keys = [canonical_key(_core(kids, cycle), labeled="none") for kids, cycle in shapes]
        assert len(keys) == len(set(keys)) == count
    # the ordered keys of enumerate_cores(3, 1, max_valency=3)
    digest = hashlib.sha256(repr(sorted(keys)).encode()).hexdigest()
    assert digest == "973e3ce7a58c0ba8283ad4b463f4cc67840097c92a525eb11f7f066340cec89b"


def test_enumerate_cores_refuses_betti_two():
    with pytest.raises(ScaleRefusal):
        enumerate_cores(2, 2)


def test_degree_three_tree_corpus_frozen():
    cores = enumerate_cores(3, 0)
    assert len(cores) == 6422
    for t in cores:
        assert check_balancing(t) is None
        assert is_stable(t)
        assert genus(t) == 0
        assert is_realizable(t)
        assert cone_dimension(t) >= expected_dimension(t)


def test_trivalent_cores_are_the_trivalent_members():
    trivalent = [
        canonical_key(t, labeled="none")
        for t in enumerate_cores(3, 0)
        if all(t.valency(v) == 3 for v in range(t.n_vertices()))
    ]
    capped = [canonical_key(t, labeled="none") for t in enumerate_cores(3, 0, max_valency=3)]
    assert len(capped) == 791
    assert capped == trivalent


def test_marked_types_dimension_law_degree_two():
    # the dimension law across all 0-, 1- and 2-marked corpus types
    for core in enumerate_cores(2, 0):
        level = [core]
        for n in (0, 1, 2):
            if n:
                level = [
                    _attach_mark(t, site)
                    for t in level
                    for site in [("vertex", v) for v in range(t.n_vertices())]
                    + [("edge", i) for i in range(len(t.edges))]
                    + [("leg", j) for j, leg in enumerate(t.legs) if not leg.is_contracted()]
                ]
            for t in level:
                dim = cone_dimension(t)
                assert dim >= expected_dimension(t)
                vals = [t.valency(v) for v in range(t.n_vertices())]
                if t.is_weightless() and all(k == 3 for k in vals) and t.is_immersed():
                    assert dim == len(t.degree()) + t.n_marks() + genus(t) - 1


def test_scan_fibers_degree_one():
    cfg = make_stretched(2, 1)
    hits = scan_fibers(1, 0, cfg.config)
    assert hits
    for t, fb in hits:
        assert fb.codimension() == 4
        assert t.is_weightless()
        assert all(t.valency(v) == 3 for v in range(t.n_vertices()))


def _count_lps(monkeypatch):
    """Count the scan's calls of the LP kernel."""
    calls = []
    kernel = tropcurves.corpus.feasible_nonneg

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(tropcurves.corpus, "feasible_nonneg", counted)
    return calls


def test_scan_matches_floor_solutions_degree_two(monkeypatch):
    cfg = make_stretched(5, 2)
    sols = enumerate_curves(2, 0, cfg)
    sol_keys = {canonical_key(c.ctype, labeled="contracted") for _d, c in sols}
    lps = _count_lps(monkeypatch)
    hits = scan_fibers(2, 0, cfg.config)
    assert len(lps) == 374
    point_keys = {
        canonical_key(t, labeled="contracted") for t, fb in hits if fb.kind == "point" and fb.inside
    }
    assert sol_keys <= point_keys
    # every strictly interior point fiber is one of the floor solutions
    assert point_keys == sol_keys


def test_scan_fibers_merges_cores():
    # four points leave a one-parameter family: 25 hits spread over several
    # cores (five points give a single hit), so the merged scan must equal
    # the key-sorted union of the per-core scans
    cfg = make_stretched(4, 2).config
    cores = enumerate_cores(2, 0)
    assert len(cores) == 51

    def encode(hits):
        return dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits])

    merged = {}
    for core in cores:
        for t, fb in scan_fibers(2, 0, cfg, cores=[core]):
            merged.setdefault(canonical_key(t, labeled="contracted"), (t, fb))
    union = [merged[k] for k in sorted(merged)]
    assert len(union) == 25
    assert encode(scan_fibers(2, 0, cfg)) == encode(union)


def test_scan_of_fractional_points_is_affine_invariant(monkeypatch):
    # fractional, not collinear: no pair filter, so every step past the
    # first runs the LP; scaling by a positive rational and translating
    # must keep every hit, its fiber kind and the LP count
    pts = ((F(1, 2), F(1, 3)), (F(-7, 5), F(2)), (F(3), F(-5, 4)), (F(11, 6), F(13, 7)))
    lps = _count_lps(monkeypatch)
    hits = scan_fibers(2, 0, PointConfiguration(pts))
    assert len(lps) == 19881
    r = F(3, 7)
    moved = PointConfiguration(tuple((r * x + F(5, 2), r * y - F(1, 3)) for x, y in pts))
    moved_hits = scan_fibers(2, 0, moved)
    assert len(lps) == 2 * 19881

    def summary(hits):
        return [(canonical_key(t, labeled="contracted"), fb.kind) for t, fb in hits]

    assert len(hits) == 25
    assert {kind for _key, kind in summary(hits)} == {"point", "interval"}
    assert summary(moved_hits) == summary(hits)
    encoded = dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits])
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    assert digest == "8e91538f3a49d89c5439ee310f63554f999e42e76d277e066aaf6790c177724d"


def test_betti_one_scan_frozen(monkeypatch):
    # the only tier-1 run of the scanner's cycle rows and of its
    # LP-confirmed pair test; the LP counts pin the pair filter's pruning
    lps = _count_lps(monkeypatch)
    in_table = []
    table = tropcurves.corpus._CoreScanner.pair_table

    def counted_table(self, w):
        before = len(lps)
        out = table(self, w)
        in_table.append(len(lps) - before)
        return out

    monkeypatch.setattr(tropcurves.corpus._CoreScanner, "pair_table", counted_table)
    hits = scan_fibers(2, 1, make_stretched(4, 2).config)
    # the pair table relaxes each cycle along the core's BFS spanning
    # tree, so its LP count depends on the vertex numbering; the
    # placement LPs and the hits up to isomorphism do not
    assert len(lps) - sum(in_table) == 972
    assert sum(in_table) == 3940
    assert len(hits) == 28
    summary = [(canonical_key(t, labeled="contracted"), fb.kind, fb.codimension()) for t, fb in hits]
    digest = hashlib.sha256(repr(summary).encode()).hexdigest()
    assert digest == "7cd1ce67692fa8aa6a4f1028c8f63eb256b80789b3dc7f14cb6b8eed35ca4857"
    encoded = dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits])
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    assert digest == "7926b15335283d2f397d9c9b1bcce69abce43e7df693a88c88808ec72ea5946d"
