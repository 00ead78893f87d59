"""Multi-minute checks of README claims at their stated scale.

Marked `slow` and deselected by default; run them with
``python -m pytest -q -m slow``.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest
from fixtures import count_lps, is_stable, random_points, shifted

from tropcurves.canonical import canonical_key
from tropcurves.cones import is_realizable
from tropcurves.corpus import enumerate_cores, scan_fibers
from tropcurves.evaluation import PointConfiguration, curve_at
from tropcurves.floors import (
    MAX_DEGREE,
    count_severi,
    enumerate_curves,
    is_vertically_stretched,
    make_stretched,
    solution_diagrams,
)
from tropcurves.graphs import check_balancing
from tropcurves.recursion import irreducible_severi_degree
from tropcurves.serialize import dumps, trace_to_json
from tropcurves.walk import Terminal, run_walk


@pytest.mark.slow
def test_betti_one_cores_degree_three():
    cores = enumerate_cores(3, 1)
    keys = [canonical_key(t, labeled="none") for t in cores]
    assert len(cores) == 63871
    assert len(set(keys)) == len(keys)
    # the ordered keys, which no vertex numbering moves
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "924bb31440d2867384d3365a3da9aa040a3d86f438653401a1dc77c659110e0c"
    for t in cores:
        assert t.is_weightless()
        assert is_stable(t)
        assert check_balancing(t) is None
        assert t.first_betti() == 1
        assert all(max(abs(e.slope[0]), abs(e.slope[1])) <= 3 for e in t.edges)
        # the generator decides realizability by a planar cone test; the
        # LP here shares none of its code
        assert is_realizable(t)


@pytest.mark.slow
@pytest.mark.parametrize("shift", [None, lambda k: F(k * k, 97)], ids=["collinear", "shifted"])
def test_cubic_configuration_is_general(monkeypatch, shift):
    # the full genus-0 scan at d = 3: all 6422 tree cores, 8 points on a
    # line, or moved off it, where points j and k lie along a direction
    # fixed by j + k: up to 13 pair tables per core instead of one, so
    # the shifted test takes about 7-8 s against 1.5-2.3 s on the line on
    # a 2-core VM, most of the difference in building the extra tables
    cfg = make_stretched(8, 3)
    if shift is not None:
        cfg = shifted(cfg, shift)
        assert is_vertically_stretched(cfg.points, cfg.stretch)
    sol_keys = {canonical_key(c.ctype, labeled="contracted") for _d, c in enumerate_curves(3, 0, cfg)}
    assert len(sol_keys) == 9
    lps = count_lps(monkeypatch)
    hits = scan_fibers(3, 0, cfg.config)
    # one LP for each complete placement the pair tables leave: both
    # cases solve 9, all feasible
    assert len(lps) == 9
    assert len(hits) == 9
    assert {canonical_key(t, labeled="contracted") for t, _fb in hits} == sol_keys
    # is_general's own test: every nonempty fiber has codimension 2n
    for _t, fb in hits:
        assert fb.kind == "point"
        assert fb.codimension() == 16


@pytest.mark.slow
def test_scan_counts_rational_cubics_through_random_points(monkeypatch):
    # Mikhalkin's count from the scan alone at d = 3: through 8 random
    # rational points, drawn from two seeds, 9 hits, each a point fiber of
    # codimension 16, whose multiplicities sum to the oracle's 12
    lps = count_lps(monkeypatch)
    keys, counts = [], []
    for seed in (0, 1):
        before = len(lps)
        hits = scan_fibers(3, 0, PointConfiguration(random_points(random.Random(seed), 8)))
        counts.append(len(lps) - before)
        assert len(hits) == 9
        assert all(fb.kind == "point" and fb.codimension() == 16 for _t, fb in hits)
        assert sum(curve_at(t, fb.point)[1].multiplicity() for t, fb in hits) == irreducible_severi_degree(3, 0) == 12
        keys.append([canonical_key(t, labeled="contracted") for t, _fb in hits])
    assert counts == [714, 601]
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "bdfa665ae0c6c27245a86d67c2e48dca446b2a0ec2caeab27e84715782b38a92"


@pytest.mark.slow
def test_walk_from_every_start_to_degree_four():
    # the walk ends at a genus-drop witness from every floor decomposed
    # start at d <= 4: 451 walks, 64 of them through the heavy-elevator
    # descent; every trace is pinned byte for byte
    blob = hashlib.sha256()
    walks = descents = 0
    for d, g in ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (4, 3)):
        cfg = make_stretched(3 * d + g - 1, d)
        for seed in range(len(solution_diagrams(d, g, cfg))):
            trace = run_walk(d, g, cfg, seed=seed)
            blob.update(dumps(trace_to_json(trace)).encode())
            walks += 1
            descents += any(e[:2] == ("cross", "descend") for e in trace.events)
    assert (walks, descents) == (451, 64)
    assert blob.hexdigest() == "de33b0a5d92a99b4b18076c68069d7c1687d0ec800759b5524eb6823014acdcc"


@pytest.mark.slow
def test_walk_at_degree_five_from_a_seeded_sample():
    # the walk's certified scale, d = MAX_DEGREE = 5: 20 seeded starts per
    # genus, 140 walks, 15 of them through the heavy-elevator descent;
    # each ends at a genus-drop witness with (k, r) strictly decreasing,
    # and every trace is pinned byte for byte
    assert MAX_DEGREE == 5
    blob = hashlib.sha256()
    descents = 0
    for g in range(7):
        cfg = make_stretched(3 * 5 + g - 1, 5)
        for k in range(20):
            trace = run_walk(5, g, cfg, seed=7919 * k)
            assert isinstance(trace.terminal, Terminal), (g, k)
            assert trace.terminal.stratum.edges[trace.terminal.free_edge].slope == (0, 0)
            assert all(b < a for a, b in zip(trace.invariants, trace.invariants[1:])), (g, k)
            blob.update(dumps(trace_to_json(trace)).encode())
            descents += any(e[:2] == ("cross", "descend") for e in trace.events)
    assert descents == 15
    assert blob.hexdigest() == "5dfaffa4d5df581982f302a95cd89aec7acac4f1a68217a78b1eb5a8131e4a67"


@pytest.mark.slow
def test_degree_five_counts_through_curves():
    # the floor layer's certified scale: every (5, g) counted through the
    # curves it builds, one per marked diagram
    assert MAX_DEGREE == 5
    counts = [count_severi(5, g) for g in range(7)]
    assert counts == [87304, 87192, 36855, 7915, 882, 48, 1]
    assert counts == [irreducible_severi_degree(5, g) for g in range(7)]
