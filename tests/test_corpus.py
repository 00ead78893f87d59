import functools
import hashlib
import itertools
import sys
from fractions import Fraction as F

import pytest
from fixtures import (
    FORCED_ZERO_POINTS,
    FRACTIONAL_POINTS,
    count_lps,
    genus,
    is_immersed,
    is_stable,
    reference_cone_contains,
    reference_pair_generators,
    reference_pair_table,
    shifted,
    site_sets,
    tropical_line,
)

from tropcurves.canonical import canonical_key
from tropcurves.cones import (
    cone_dimension,
    expected_dimension,
    fiber_rows,
    is_realizable,
    reduced_fiber_polyhedron,
)
from tropcurves.corpus import (
    _attach_mark,
    _core,
    _cores,
    _CoreScanner,
    _direction,
    _materialize,
    _scan_order,
    _shapes,
    enumerate_cores,
    is_general,
    scan_fibers,
)
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.floors import enumerate_curves, is_vertically_stretched, make_stretched
from tropcurves.graphs import CombinatorialType, Edge, Leg, check_balancing
from tropcurves.linalg import feasible_nonneg
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


def wide_cores(d, b1, bound):
    """`enumerate_cores(d, b1)` over the wider slope alphabet of
    coordinates at most bound, from the same generator."""
    cores = [_core(kids, cycle) for kids, cycle in _shapes((d, d, d), bound, 3 * d + 2, b1)]
    return sorted(cores, key=lambda t: canonical_key(t, labeled="none"))


def test_slope_bound_is_sharp_at_degree_two():
    # widening the slope alphabet adds no realizable cores: the dual
    # polygon bound is not an artifact of the enumeration
    for b1 in (0, 1):
        wide = [canonical_key(t, labeled="none") for t in wide_cores(2, b1, 3)]
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
    assert _keys_digest(wide_cores(2, 1, 3)) == frozen
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


def test_enumerate_cores_refuses_a_degree_below_one_and_a_negative_betti_number():
    # enumerate_cores(0, 0) was one vertex with no germs, and (1, -1) the
    # Betti-0 tree
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree"):
            enumerate_cores(d, 0)
    with pytest.raises(ValueError, match="Betti"):
        enumerate_cores(1, -1)


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
        if all(len(t.star(v)) == 3 for v in range(t.n_vertices()))
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
                vals = [len(t.star(v)) for v in range(t.n_vertices())]
                if t.is_weightless() and all(k == 3 for k in vals) and is_immersed(t):
                    assert dim == len(t.degree()) + t.n_marks() + genus(t) - 1


def test_scan_fibers_degree_one():
    cfg = make_stretched(2, 1)
    hits = scan_fibers(1, 0, cfg.config)
    assert hits
    for t, fb in hits:
        assert fb.codimension() == 4
        assert t.is_weightless()
        assert all(len(t.star(v)) == 3 for v in range(t.n_vertices()))


def test_scan_matches_floor_solutions_degree_two(monkeypatch):
    cfg = make_stretched(5, 2)
    sols = enumerate_curves(2, 0, cfg)
    sol_keys = {canonical_key(c.ctype, labeled="contracted") for _d, c in sols}
    lps = count_lps(monkeypatch)
    hits = scan_fibers(2, 0, cfg.config)
    assert len(lps) == 1
    point_keys = {
        canonical_key(t, labeled="contracted") for t, fb in hits if fb.kind == "point" and fb.inside
    }
    assert sol_keys <= point_keys
    # every strictly interior point fiber is one of the floor solutions
    assert point_keys == sol_keys
    # off the line, the ten pairs take five and then seven directions,
    # each with its own pair table, and the LP count stays that of the line
    for shift in (lambda k: F(1, 7) if k == 2 else 0, lambda k: F(k * k, 7)):
        moved = shifted(cfg, shift)
        assert is_vertically_stretched(moved.points, moved.stretch)
        sol_keys = {canonical_key(c.ctype, labeled="contracted") for _d, c in enumerate_curves(2, 0, moved)}
        del lps[:]
        hits = scan_fibers(2, 0, moved.config)
        assert len(lps) == 1
        assert {canonical_key(t, labeled="contracted") for t, _fb in hits} == sol_keys
        assert all(fb.kind == "point" and fb.codimension() == 10 for _t, fb in hits)
        assert is_general(moved.config, 2, 0) is True


def test_scan_of_shuffled_collinear_points():
    # the pair tables orient two marks by where their points lie on the
    # line, not by input order: relabeling the points keeps the one hit
    cfg = make_stretched(5, 2).config
    ((t, fb),) = scan_fibers(2, 0, cfg)
    want = [(canonical_key(t, labeled="none"), fb.kind)]
    for perm in ((4, 3, 2, 1, 0), (2, 0, 4, 1, 3), (1, 0, 2, 3, 4)):
        shuffled = PointConfiguration(tuple(cfg.points[i] for i in perm))
        assert [(canonical_key(t, labeled="none"), fb.kind) for t, fb in scan_fibers(2, 0, shuffled)] == want


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
    # fractional, not collinear: one pair table per core and direction
    # between two points; scaling by a positive rational and translating must keep
    # every hit, its fiber kind and the LP count
    pts = FRACTIONAL_POINTS
    lps = count_lps(monkeypatch)
    hits = scan_fibers(2, 0, PointConfiguration(pts))
    assert len(lps) == 54
    r = F(3, 7)
    moved = PointConfiguration(tuple((r * x + F(5, 2), r * y - F(1, 3)) for x, y in pts))
    moved_hits = scan_fibers(2, 0, moved)
    assert len(lps) == 2 * 54

    def summary(hits):
        return [(canonical_key(t, labeled="contracted"), fb.kind) for t, fb in hits]

    assert len(hits) == 25
    assert {kind for _key, kind in summary(hits)} == {"point", "interval"}
    assert summary(moved_hits) == summary(hits)
    encoded = dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits])
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    assert digest == "8e91538f3a49d89c5439ee310f63554f999e42e76d277e066aaf6790c177724d"


def test_betti_one_scan_frozen(monkeypatch):
    # the only tier-1 run of the scanner's cycle rows; the pair tables
    # relax them and run no LP, so every LP is a placement LP, from the
    # second mark on, and the count pins the pruning by the pair tables,
    # which drop a placement when a later mark has no site left: one LP
    # for each complete placement they leave
    lps = count_lps(monkeypatch)
    hits = scan_fibers(2, 1, make_stretched(4, 2).config)
    assert len(lps) == 356
    assert len(hits) == 28
    summary = [(canonical_key(t, labeled="contracted"), fb.kind, fb.codimension()) for t, fb in hits]
    digest = hashlib.sha256(repr(summary).encode()).hexdigest()
    assert digest == "7cd1ce67692fa8aa6a4f1028c8f63eb256b80789b3dc7f14cb6b8eed35ca4857"
    encoded = dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits])
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    assert digest == "7926b15335283d2f397d9c9b1bcce69abce43e7df693a88c88808ec72ea5946d"


def test_scan_bytes_ignore_the_order_of_the_cores():
    # without cores, scan_fibers reads them as generated, unsorted: each
    # hit's key is its own core's alone, so generation, sorted and
    # reversed order give the same bytes
    cfg = make_stretched(4, 2).config
    generated = list(_cores(2, 1))
    by_core = [{canonical_key(t, labeled="contracted") for t, _fb in scan_fibers(2, 1, cfg, cores=[c])} for c in generated]
    assert sum(map(len, by_core)) == len(set().union(*by_core)) == 28
    ordered = enumerate_cores(2, 1)
    assert ordered != generated
    encoded = dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in scan_fibers(2, 1, cfg)])
    for cores in (generated, ordered, generated[::-1]):
        hits = scan_fibers(2, 1, cfg, cores=cores)
        assert dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits]) == encoded


def reference_placements(scanner, points, lp=True):
    """The placement walk without forward checking: a site of mark k is
    tried when the pair table of each earlier mark allows it, then one
    cold LP decides the fiber of the prefix's marked type.
    With lp false the LP is skipped: the walk then reaches every
    placement the pair tables alone allow."""
    tables = {}

    def allowed(j, a, k, b):
        w, side = _direction(points[j], points[k])
        if w not in tables:
            tables[w] = site_sets(scanner, scanner.pair_table(w))
        return b in tables[w][side][a]

    def nonempty(assignment):
        k = len(assignment)
        t = _materialize(scanner.core, assignment, range(k), points[:k])
        return feasible_nonneg(*fiber_rows(t, points[:k])[:2], len(t.edges))

    def place(assignment):
        k = len(assignment)
        if k == len(points):
            yield assignment
            return
        for site in scanner.sites:
            if not all(allowed(j, a, k, site) for j, a in enumerate(assignment)):
                continue
            cand = assignment + (site,)
            if k < first_lp(scanner) or not lp or nonempty(cand):
                yield from place(cand)

    yield from place(())


def first_lp(scanner):
    """The first mark whose prefix needs an LP: the third on a tree, where
    the pair test of two marks is exact, else the second."""
    return 1 if scanner.core.first_betti() else 2


@pytest.mark.parametrize(
    "make_cfg",
    [
        lambda: make_stretched(5, 2).config,
        lambda: shifted(make_stretched(5, 2), lambda k: F(1, 7) if k == 2 else 0).config,
        lambda: shifted(make_stretched(5, 2), lambda k: F(k * k, 7)).config,
        lambda: PointConfiguration(FRACTIONAL_POINTS),
        lambda: make_stretched(4, 2).config,
    ],
    ids=["line", "one-shifted", "all-shifted", "fractional", "four-on-a-line"],
)
def test_placements_match_reference_walk(monkeypatch, make_cfg):
    # forward checking cuts only subtrees that yield nothing, and one LP
    # per complete placement decides as an LP at every prefix does: every
    # core of degree 2 and Betti number at most 1 keeps its assignments
    # and their order
    cfg = make_cfg()
    _scale, pts = cfg.cleared
    pts = [pts[i] for i in _scan_order(len(pts))]
    lps = count_lps(monkeypatch)
    for core in enumerate_cores(2, 0) + enumerate_cores(2, 1):
        scanner = _CoreScanner(core)
        # a table depends on its direction alone: both walks read one copy
        scanner.pair_table = functools.cache(scanner.pair_table)
        del lps[:]
        assert list(scanner.placements(pts)) == list(reference_placements(scanner, pts))
        # one LP for each complete placement the pair tables alone reach
        assert len(lps) == len(list(reference_placements(scanner, pts, lp=False)))


@pytest.mark.parametrize(
    "points",
    [make_stretched(5, 2).config.points, FRACTIONAL_POINTS],
    ids=["line", "fractional"],
)
def test_placements_build_each_table_once_per_call(points):
    # a depth fetches its tables on its first visit and a call keeps none
    # for the next: each call builds each direction at most once, those
    # of every depth down to the deepest it reaches and no others, so
    # points on a line build one table per core
    _scale, pts = PointConfiguration(points).cleared
    pts = [pts[i] for i in _scan_order(len(pts))]
    reached = [set()]  # the directions of depths 0..k, for each k
    for k, p in enumerate(pts[:-1]):
        reached.append(reached[-1] | {_direction(p, q)[0] for q in pts[k + 1 :]})
    sizes = set()
    for core in enumerate_cores(2, 0) + enumerate_cores(2, 1):
        scanner = _CoreScanner(core)
        built = []
        table = scanner.pair_table
        scanner.pair_table = lambda w: built.append(w) or table(w)
        for _call in range(2):
            del built[:]
            complete = list(scanner.placements(pts))
            assert len(built) == len(set(built)), core
            assert set(built) in reached[1:], core
            if complete:
                assert set(built) == reached[-1], core
        sizes.add(len(built))
    if len(reached[-1]) == 1:
        assert sizes == {1}
    else:
        # some cores stop before their last depth, and build less
        assert min(sizes) < len(reached[-1]) == max(sizes)


def walk_nodes(placements):
    """(the placements listed, the number of walk nodes `placements` made
    for them): calls of its inner `place`, counted by a profile hook."""
    nodes = []
    code = _CoreScanner.placements.__code__

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "place" and frame.f_code.co_filename == code.co_filename:
            nodes.append(None)

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        listed = list(placements)
    finally:
        sys.setprofile(outer)
    return listed, len(nodes)


def test_chain_pass_refutes_cores_before_the_walk():
    # on points on a line one table serves every consecutive pair of marks
    # in (x, y) order, and passing each domain forward through its fits
    # rows alone leaves some mark no site on 148 of the 207 cores of degree
    # 2 and Betti number at most 1: placements makes no walk node on them,
    # and the walk with neither forward checking nor LPs reaches no
    # complete placement there either
    _scale, pts = make_stretched(5, 2).config.cleared
    pts = [pts[i] for i in _scan_order(len(pts))]
    chain = sorted(range(len(pts)), key=pts.__getitem__)
    cores = enumerate_cores(2, 0) + enumerate_cores(2, 1)
    refuted = walked = 0
    for core in cores:
        scanner = _CoreScanner(core)
        fits, _back = site_sets(scanner, scanner.pair_table(_direction(pts[chain[0]], pts[chain[1]])[0]))
        domain = set(scanner.sites)
        for _link in chain[1:]:
            domain = set().union(*(fits[a] for a in domain))
        listed, nodes = walk_nodes(scanner.placements(pts))
        if domain:
            walked += nodes > 0
            continue
        refuted += 1
        assert (listed, nodes) == ([], 0), core
        assert not list(reference_placements(scanner, pts, lp=False)), core
    assert (len(cores), refuted, walked) == (207, 148, 59)


def test_scan_lp_verdict_is_fiber_emptiness():
    # the LP a complete placement asks for, on its marked type's fiber
    # rows, says nonempty exactly when `fiber`, on its own relative-interior
    # LP, does: over every placement the pair tables alone allow, so the
    # rejected ones are checked too
    _scale, pts = PointConfiguration(FRACTIONAL_POINTS).cleared
    pts = [pts[i] for i in _scan_order(len(pts))]
    cfg = PointConfiguration(tuple(pts))
    verdicts = []
    for core in enumerate_cores(2, 0) + enumerate_cores(2, 1):
        for assignment in reference_placements(_CoreScanner(core), pts, lp=False):
            t = _materialize(core, assignment, range(len(pts)), pts)
            feasible = feasible_nonneg(*fiber_rows(t, pts)[:2], len(t.edges))
            assert feasible == (not fiber(t, cfg).is_empty())
            verdicts.append(feasible)
    assert (len(verdicts), verdicts.count(False)) == (442, 353)


def test_pair_tables_match_per_pair_cone_tests():
    # pair_table folds each anchor pair's path once per direction; the
    # reference runs the pairwise cone test on every site pair's own list,
    # over the directions of the tier-1 off-line configurations plus the
    # axes, the diagonals and a steep one
    stretched = make_stretched(5, 2)
    configs = [
        FRACTIONAL_POINTS,
        shifted(stretched, lambda k: F(1, 7) if k == 2 else 0).config.points,
        shifted(stretched, lambda k: F(k * k, 7)).config.points,
    ]
    directions = {(1, 0), (0, 1), (1, 1), (1, -1), (1, -500)}
    for points in configs:
        _scale, pts = PointConfiguration(points).cleared
        directions |= {_direction(p, q)[0] for p, q in itertools.combinations(pts, 2)}
    assert len(directions) == 22
    for core in enumerate_cores(2, 0) + enumerate_cores(2, 1):
        scanner = _CoreScanner(core)
        gens = reference_pair_generators(scanner)
        for w in sorted(directions):
            fits = {a: {b for b in scanner.sites if reference_cone_contains(gens[a, b], w)} for a in scanner.sites}
            back = {b: {a for a in scanner.sites if b in fits[a]} for b in scanner.sites}
            assert site_sets(scanner, scanner.pair_table(w)) == (fits, back), (core, w)


def test_pair_tables_match_per_pair_cone_tests_on_trivalent_cubic_cores():
    # the tree walks and the one cross product per site pair against each
    # site pair's own generators, on every 16th trivalent d = 3 core; the
    # first direction is the one all points of the incidence benchmark's
    # seed-1 configuration share (perfbench/workloads.py)
    cores = enumerate_cores(3, 0, max_valency=3)[::16]
    assert len(cores) == 50
    for core in cores:
        scanner = _CoreScanner(core)
        gens = reference_pair_generators(scanner)
        for w in [(1, -6973568802), (1, -1), (2, -1), (0, 1)]:
            assert site_sets(scanner, scanner.pair_table(w)) == reference_pair_table(scanner, gens, w), (core, w)


def test_placements_of_no_point_and_of_one_point():
    # no point leaves the empty placement alone; one point may sit on
    # every site, and the sites come out in site order
    for core in enumerate_cores(2, 0) + enumerate_cores(2, 1):
        scanner = _CoreScanner(core)
        assert list(scanner.placements([])) == [()]
        assert list(scanner.placements([(3, -1)])) == [(site,) for site in scanner.sites]


def test_placements_with_full_later_domains():
    # along (1, 0) a mark on the leg of slope (-1, 0) leaves a later mark
    # every site, so after it both later marks' packed domains are full
    # fields side by side: neither may carry past its guard bit
    pts = [(0, 0), (5, 0), (9, 0)]
    for core in [tropical_line()] + enumerate_cores(2, 0):
        scanner = _CoreScanner(core)
        scanner.pair_table = functools.cache(scanner.pair_table)
        leg = scanner.sites.index(("leg", [leg.slope for leg in core.legs].index((-1, 0))))
        assert scanner.pair_table((1, 0))[0][leg] == (1 << len(scanner.sites)) - 1
        assert list(scanner.placements(pts)) == list(reference_placements(scanner, pts))


def test_forced_zero_fibers_frozen():
    # the only tier-1 scan whose fibers vanish on some edge lengths: 243 of
    # its 331 hits have lengths forced to zero, so the unit rows `fiber`
    # adds for them decide the dimensions and endpoints pinned here
    cfg = PointConfiguration(FORCED_ZERO_POINTS)
    hits = scan_fibers(2, 0, cfg)
    kinds = [fb.kind for _t, fb in hits]
    assert (len(hits), kinds.count("interval"), kinds.count("point"), kinds.count("higher")) == (331, 146, 132, 53)
    forced = [t for t, _fb in hits if reduced_fiber_polyhedron(t, cfg.points)[0].implicit_zero_vars()]
    assert len(forced) == 243
    encoded = dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in hits])
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    assert digest == "6bba56869c3c8355968f0057e0b43b21d0b476a0dfa1b9fb63232819fa4bd019"


def test_scan_evaluates_no_empty_fiber(monkeypatch):
    # the points fix the order of the marks sharing an edge or a leg, so
    # every placement builds one type, and each fiber `fiber` is asked
    # for is a hit
    import tropcurves.corpus as corpus

    kinds = []

    def counted(t, cfg):
        fb = fiber(t, cfg)
        kinds.append(fb.kind)
        return fb

    monkeypatch.setattr(corpus, "fiber", counted)
    hits = scan_fibers(2, 0, PointConfiguration(FORCED_ZERO_POINTS))
    assert (len(kinds), kinds.count("empty"), len(hits)) == (331, 0, 331)


def fanned_out_types(core, assignment, order):
    """The marked types of a site assignment for every ordering of the
    marks sharing an edge or a leg, each mark added through its own
    intermediate type: the materialization from before the points chose
    the ordering, kept as an oracle."""
    by_site = {}
    for k, site in enumerate(assignment):
        by_site.setdefault(site, []).append(order[k])
    for combo in itertools.product(*(itertools.permutations(marks) for marks in by_site.values())):
        t, attached, head = core, [], {}  # head: edge site -> its head piece
        for (kind, idx), seq in zip(by_site, combo):
            for mark in seq:  # from the tail of the edge or leg outwards
                edges, legs, host = list(t.edges), list(t.legs), t.n_vertices()
                if kind == "vertex":
                    host = idx
                elif kind == "edge":
                    i = head.get((kind, idx), idx)
                    e = edges[i]
                    edges[i] = Edge(e.u, host, e.slope)
                    edges.append(Edge(host, e.v, e.slope))
                    head[(kind, idx)] = len(edges) - 1
                else:
                    j = idx + len(attached)  # past the marks inserted so far
                    edges.append(Edge(legs[j].vertex, host, legs[j].slope))
                    legs[j] = Leg(host, legs[j].slope)
                legs.insert(sum(m < mark for m in attached), Leg(host, (0, 0)))
                weights = t.weights + (() if kind == "vertex" else (0,))
                t = CombinatorialType(weights, tuple(edges), tuple(legs))
                attached.append(mark)
        yield t


def test_one_ordering_of_a_shared_site_has_a_fiber():
    # of every ordering of the marks sharing an edge or a leg, exactly one
    # has a nonempty fiber, and it is the one type the scan builds
    cfg = PointConfiguration(FORCED_ZERO_POINTS)
    _scale, pts = cfg.cleared
    order = _scan_order(len(pts))
    pts = [pts[i] for i in order]
    shared = 0
    for core in enumerate_cores(2, 0):
        for assignment in _CoreScanner(core).placements(pts):
            if len(set(assignment)) == len(assignment):
                continue
            shared += 1
            nonempty = [t for t in fanned_out_types(core, assignment, order) if not fiber(t, cfg).is_empty()]
            assert [type_to_json(t) for t in nonempty] == [type_to_json(_materialize(core, assignment, order, pts))]
    assert shared == 149
