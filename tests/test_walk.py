import hashlib
from fractions import Fraction as F

import pytest
from fixtures import affine_image

from tropcurves.canonical import canonical_key
from tropcurves.cones import classify, resolve_wall
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.floors import make_stretched, solution_diagrams
from tropcurves.graphs import CombinatorialType, ParametrizedCurve, face_contract
from tropcurves.linalg import solve_affine
from tropcurves.serialize import dumps, fiber_to_json, trace_to_json
from tropcurves.walk import (
    StarVerdict,
    Terminal,
    WalkError,
    _elevator_foot,
    _forget_mark,
    _ladder,
    advance,
    check_harmonic_or_lcs,
    run_walk,
    start_walk,
)


def test_start_walk_d2():
    state = start_walk(2, 0)
    assert state.floor_index == 1  # E attaches to the bottom floor at once
    assert classify(state.ctype).is_nice()
    assert len(state.fixed) == 4


def test_start_walk_d3_genus1():
    state = start_walk(3, 1)
    assert state.floor_index in (1, 2)
    assert classify(state.ctype).is_nice()


def test_start_walk_rejects_degree_one():
    with pytest.raises(ValueError):
        start_walk(1, 0)


@pytest.mark.parametrize("seed", [1.5, "1", True])
def test_walk_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match="is not an int"):
        start_walk(3, 0, seed=seed)
    with pytest.raises(ValueError, match="is not an int"):
        run_walk(3, 0, None, seed)


def test_walk_clears_its_points_once(monkeypatch):
    # each configuration clears its points once: the stretched points for
    # the start curve, then the pinned points, which every fiber solve reads
    import tropcurves.evaluation

    calls = []
    clear = tropcurves.evaluation.clear_denominators

    def counting(values):
        calls.append(values)
        return clear(values)

    monkeypatch.setattr(tropcurves.evaluation, "clear_denominators", counting)
    for d, g, seed in ((3, 0, 8), (4, 2, 3)):
        calls.clear()
        trace = run_walk(d, g, None, seed)
        assert trace.crossings > 0
        n = 3 * d + g - 1
        assert [len(values) for values in calls] == [2 * n, 2 * (n - 1)], (d, g, seed)


def test_walk_records_are_immutable():
    state = start_walk(3, 0)
    _at_wall, event = advance(state)
    for record, field in ((state, "lengths"), (event, "parameter"), (classify(state.ctype), "kind")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_start_walk_rejects_unstretched():
    from tropcurves.evaluation import PointConfiguration
    from tropcurves.floors import StretchedConfig

    pts = tuple((F(i), F(-i)) for i in range(1, 6))
    cfg = StretchedConfig(PointConfiguration(pts), stretch=F(1, 2))
    with pytest.raises((ValueError, WalkError)):
        run_walk(2, 0, cfg)


def test_start_walk_picks_the_seeded_solution():
    # through a stretched configuration every marked diagram has one curve,
    # so choosing the diagram by seed chooses the same start as choosing
    # among the built solutions
    from tropcurves.floors import _marked_diagrams, enumerate_curves
    from tropcurves.walk import _forget_mark

    for d, g, seeds in ((3, 0, None), (4, 1, (0, 5, 38, 1001))):
        cfg = make_stretched(3 * d + g - 1, d)
        sols = enumerate_curves(d, g, cfg)
        n_diagrams = sum(1 for _ in _marked_diagrams(d, g))
        assert len(sols) == n_diagrams
        for seed in range(n_diagrams) if seeds is None else seeds:
            diag, curve = sols[seed % len(sols)]
            mark = [e for e in diag.elevators if e.top == d][0].mark
            state = start_walk(d, g, cfg, seed=seed)
            forgotten, _edge = _forget_mark(curve, mark - 1)
            assert state.ctype == forgotten.ctype
            # E is the one vertical edge whose image holds the mobile point
            px, py = cfg.points[mark - 1]
            through = []
            for i, e in enumerate(forgotten.ctype.edges):
                (ux, uy), (vx, vy) = forgotten.positions[e.u], forgotten.positions[e.v]
                if e.slope[0] == 0 and e.slope[1] != 0 and ux == px and min(uy, vy) <= py <= max(uy, vy):
                    through.append(i)
            assert through == [state.elevator]


def test_walk_start_lists_no_diagram(monkeypatch):
    # the start unranks its seeded diagram: with listing made to fail,
    # starts up to d = 5 and a whole d = 5 walk still succeed
    import tropcurves.floors

    def listing(*_args):
        raise AssertionError("the walk's start listed the diagrams")

    monkeypatch.setattr(tropcurves.floors, "_marked_diagrams", listing)
    for d in (3, 4, 5):
        assert classify(start_walk(d, 0).ctype).is_nice()
    trace = run_walk(5, 0)
    assert isinstance(trace.terminal, Terminal)
    assert trace.terminal.stratum.edges[trace.terminal.free_edge].slope == (0, 0)


def test_advance_reaches_simple_wall():
    state = start_walk(2, 0)
    at_wall, event = advance(state)
    assert not isinstance(event, Terminal)
    assert classify(event.wall_type).is_simple_wall()
    assert event.kind in (
        "elevator_meets_marked_point",
        "elevator_meets_elevator",
        "elevator_meets_floor_vertex",
    )
    # exactly one vanished length at the wall
    assert sum(1 for l in at_wall.lengths if l == 0) == 1


def test_walk_terminates_all_small_cases():
    for d, g in [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (4, 3)]:
        trace = run_walk(d, g)
        assert isinstance(trace.terminal, Terminal)
        t = trace.terminal.stratum
        assert t.edges[trace.terminal.free_edge].slope == (0, 0)
        # strict lexicographic descent
        for a, b in zip(trace.invariants, trace.invariants[1:]):
            assert b < a


def test_terminal_ray_moves_only_the_contracted_edge():
    trace = run_walk(3, 1)
    term = trace.terminal
    nv = term.stratum.n_vertices()
    ray = term.ray
    # vertex positions constant along the ray
    assert all(ray[j] == 0 for j in range(2 * nv))
    moving = [i for i in range(len(term.stratum.edges)) if ray[2 * nv + i] != 0]
    assert moving == [term.free_edge]


def test_terminal_fiber_is_unbounded_interval():
    trace = run_walk(2, 0)
    term = trace.terminal
    fb = fiber(term.stratum, trace_fixed_config(2, 0))
    assert fb.kind == "interval"
    assert not fb.bounded


def trace_fixed_config(d, g):
    # mirror of start_walk's bookkeeping: drop the mobile point
    from tropcurves.evaluation import PointConfiguration
    from tropcurves.floors import enumerate_curves

    cfg = make_stretched(3 * d + g - 1, d)
    sols = enumerate_curves(d, g, cfg)
    diag, _curve = sols[0]
    top = [e for e in diag.elevators if e.top == diag.d][0]
    return PointConfiguration(
        tuple(p for i, p in enumerate(cfg.points) if i != top.mark - 1)
    )


def test_case_two_descent_at_d3():
    # scanning the nine rational cubics, one start meets a weight-2
    # elevator with r = 1 and runs the three-wall descent
    traces = [run_walk(3, 0, seed=s) for s in range(9)]
    case2 = [
        tr
        for tr in traces
        if any(e[0] == "cross" and e[1] == "descend" for e in tr.events)
    ]
    assert case2, "no start exercised the heavy-elevator descent"
    tr = case2[0]
    ks = [inv[0] for inv in tr.invariants]
    assert ks[-1] < ks[0]  # the descent lowered the host floor


WALK_TRACE_SHA256 = {
    (3, 0, 0): "c79d465c4c8b86777ecfa686f59a7d08560e1df228fa8bc815a10df0ed2a4cfe",
    (3, 0, 1): "9c8ba4e13abe48237e84253fc4b89bf3b722c3026e7b17996b73a9414c24e8de",
    (3, 0, 2): "37d59b47b869808f03338fbcf51a54a9a879fa661df720d22b533cc51f65f99d",
    (3, 0, 3): "a250133188ca6a8fb8bb286bb15582d1ca35d5886303e7bea5ad6244e75e0218",
    (3, 0, 4): "926d940ac49ef3c8d2eba4cd4b7c6112ea18ad44da2d8566d8d4a53e90620476",
    (3, 0, 5): "cf611a27b632317985adc0c783a93e18023653c2ed82bd73c5c9b6e1c00a1e3b",
    (3, 0, 6): "dfb7819e00c638778b352604d6a1c07244f0a3feee54b815c76422f6cb855935",
    (3, 0, 7): "7dca682a138777316da743ec8a35de2ba5823f4964b96b942858d6d8df79f485",
    (3, 0, 8): "8d7b3dcb2a601ef5fc6074434387e590fa2c18fa7a93fb087c60e05a148e6b12",
    (3, 1, 0): "556ce73f2dcafd721533dd71fb29c20058acd5dd1513426662c0b128c30db02d",
    (4, 0, 0): "f758c9863eca0daf461be1ab59aee60e812490dabf96d5b9063e29622ba33ba9",
    (4, 1, 0): "dca2c2043de27660a202a6ae273bb6179f31357528c273b715327aca20673f3e",
    (4, 2, 0): "76132df2077dd5bf02501383a8380d50fd7113a419a2800db9d191da4d3994cc",
    (4, 3, 0): "9e106baf7f73f6dec26be0af611511bdd4062542d7381ee1411ae583e1ebc875",
}


def test_walk_traces_frozen():
    # every wall, crossing, invariant and terminal ray of these walks is
    # pinned byte for byte, including the three-wall descent of (3, 0, 8)
    for (d, g, seed), digest in WALK_TRACE_SHA256.items():
        blob = dumps(trace_to_json(run_walk(d, g, seed=seed)))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, (d, g, seed)


# sha256 of the start strata's fibers over their fixed points, one dumps
# of fiber_to_json per d = 3 walk, g = 0 then 1, seeds 0-11 each; pinned
# while the fiber rows were still measured from the first mark
START_FIBERS_SHA256 = "bfc8811a2a7ae10ad0ebe0f9cce2909a50838db08587478b0212ffb12c74ea7b"
# the same over the fixed points mapped by `affine_image`, so the fiber
# rows have Fraction right-hand sides; pinned while `Polyhedron` still
# kept its rows as dense Fraction lists
AFFINE_START_FIBERS_SHA256 = "9a044f2627790e6f651c317095188738d358f9d5a2d8f5d6bd9cf372e0c6f332"


def test_start_stratum_fibers_frozen():
    # each start stratum's fiber is a bounded interval whose two endpoint
    # curves are pinned byte for byte, over the fixed points and over
    # their affine image; on g = 1 the cone dimension takes an LP
    blob, affine = hashlib.sha256(), hashlib.sha256()
    for g in (0, 1):
        for seed in range(12):
            state = start_walk(3, g, seed=seed)
            for cfg, digest in ((state.fixed, blob), (affine_image(state.fixed.points), affine)):
                fb = fiber(state.ctype, cfg)
                assert (fb.kind, len(fb.endpoints), fb.bounded) == ("interval", 2, True), (g, seed)
                assert fb.codimension() in (14, 16), (g, seed)
                digest.update(dumps(fiber_to_json(fb)).encode())
    assert blob.hexdigest() == START_FIBERS_SHA256
    assert affine.hexdigest() == AFFINE_START_FIBERS_SHA256


def test_each_stratum_builds_its_path_coefficients_once(monkeypatch):
    # the walk state keeps the coefficients its fiber solve built: one
    # fiber_rows per stratum entered and, when the genus is positive, one
    # classify for the start stratum and one for each wall; a tree's cone
    # dimension needs no coefficients, so at genus 0 classify builds none.
    # Every module's binding of the name is counted, so a direct import is
    # counted too
    import sys

    from tropcurves.cones import path_coefficients as build

    calls = []

    def counting(t):
        calls.append(t)
        return build(t)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tropcurves") and getattr(module, "path_coefficients", None) is build:
            monkeypatch.setattr(module, "path_coefficients", counting)
    for d, g, seed in ((3, 0, 8), (4, 2, 3)):
        calls.clear()
        trace = run_walk(d, g, seed=seed)
        assert len(calls) == (2 if g else 1) * (trace.crossings + 1), (d, g, seed)


def test_walk_commutes_with_a_rational_affine_map():
    # the walk clears the moved points to ints; on them every length and
    # wall parameter is divided by 6 while the fiber lines stay, so the
    # strata, events, invariants and terminal ray must be the same
    starts = []
    for d, g in ((2, 0), (3, 0), (3, 1), (4, 0), (4, 2)):
        points = make_stretched(3 * d + g - 1, d).points
        n = 6 if d == 4 else len(solution_diagrams(d, g, PointConfiguration(points)))
        starts += [(d, g, points, seed) for seed in range(n)]
    for d, g, points, seed in starts:
        trace = run_walk(d, g, PointConfiguration(points), seed)
        moved = run_walk(d, g, affine_image(points), seed)
        scaled = [(e[0], e[1], e[2] / 6) if e[0] == "wall" else e for e in trace.events]
        assert list(moved.events) == scaled, (d, g, seed)
        assert moved.invariants == trace.invariants
        assert moved.walls == trace.walls
        assert moved.crossings == trace.crossings
        assert moved.terminal == trace.terminal


def test_interior_positions_pass_through_the_fixed_points(monkeypatch):
    # from every state the walk advances from, halfway to the next wall (or
    # one unit along the terminal ray, in Fraction arithmetic here) the
    # positions make a curve of the stratum with each mark on its point,
    # on integer points and on their affine image
    import tropcurves.walk

    states = []

    def recording_advance(state):
        states.append(state)
        return advance(state)

    monkeypatch.setattr(tropcurves.walk, "advance", recording_advance)
    for d, g, seed in ((3, 0, 8), (4, 2, 3)):
        points = make_stretched(3 * d + g - 1, d).points
        for cfg in (PointConfiguration(points), affine_image(points)):
            run_walk(d, g, cfg, seed)
    assert len(states) == 4 * 7  # six crossings each, then the terminal ray
    for state in states:
        state_lengths = [F(l, state.den) for l in state.lengths]
        direction = [F(v, state.dscale) for v in state.direction]
        ratios = [-l / v for l, v in zip(state_lengths, direction) if v < 0]
        t = min(ratios) / 2 if ratios else 1
        lengths = tuple(l + t * v for l, v in zip(state_lengths, direction))
        den, scaled = state._scaled_interior()
        positions = tuple((F(x, den), F(y, den)) for x, y in scaled)
        ParametrizedCurve(state.ctype, lengths, positions)  # refuses an inconsistent edge
        marks = [positions[state.ctype.legs[i].vertex] for i in range(len(state.fixed))]
        assert marks == list(state.fixed.points)


def test_terminal_ray_only_after_the_base_case(monkeypatch):
    # the witness comes only from the base case: a terminal ray given in
    # place of any earlier wall, on the main line or in the descent, is an
    # error and not a trace
    import tropcurves.walk

    trace = run_walk(3, 0, seed=8)
    refused = set()
    for i in range(trace.crossings):
        calls = []

        def ray_at_call_i(state):
            calls.append(state)
            if len(calls) == i + 1:
                return state, Terminal(stratum=state.ctype, free_edge=0, ray=())
            return advance(state)

        monkeypatch.setattr(tropcurves.walk, "advance", ray_at_call_i)
        with pytest.raises(WalkError, match="^terminal ray before ") as err:
            run_walk(3, 0, seed=8)
        refused.add(str(err.value))
    assert refused == {f"terminal ray before {w}" for w in ("the base case", "the mark wall", "reaching the floor")}


def test_base_case_must_reach_the_terminal_ray(monkeypatch):
    # the base case always gives the witness: a wall right after the
    # base-case merge, here the last wall replayed, is an error, not a
    # second merge on the (k, 1) read before the first
    import tropcurves.walk

    for d, g, seed in ((2, 0, 0), (3, 0, 8), (4, 2, 3)):
        walls = []

        def replaying(state):
            at_wall, outcome = advance(state)
            if isinstance(outcome, Terminal):
                return walls[-1]
            walls.append((at_wall, outcome))
            return at_wall, outcome

        monkeypatch.setattr(tropcurves.walk, "advance", replaying)
        with pytest.raises(WalkError, match="^the base case did not reach the terminal ray$"):
            run_walk(d, g, seed=seed)


def test_walk_ignores_the_sign_of_its_fiber_solve(monkeypatch):
    # the walk orients each fiber line itself, at the start toward the
    # nearest downward elevator and after a crossing away from the wall,
    # so a solve that hands back the negated direction gives the same bytes
    import tropcurves.walk

    def negated(rows, rhs, width):
        particular, basis = solve_affine(rows, rhs, width)
        return particular, [(scale, [-x for x in vec]) for scale, vec in basis]

    cases = ((2, 0, 0), (3, 0, 8), (3, 1, 5), (4, 2, 3))
    want = [dumps(trace_to_json(run_walk(d, g, seed=seed))) for d, g, seed in cases]
    monkeypatch.setattr(tropcurves.walk, "solve_affine", negated)
    assert [dumps(trace_to_json(run_walk(d, g, seed=seed))) for d, g, seed in cases] == want


def test_walk_ignores_edge_orientation(monkeypatch):
    # every edge of the start stratum stored the other way round, so each
    # vertical edge has its lower end first: the same curve, and the same
    # walls, crossings, invariants and terminal ray
    import tropcurves.walk
    from tropcurves.graphs import Edge

    def reversed_edges(curve, leg_index):
        new, elevator = _forget_mark(curve, leg_index)
        t = new.ctype
        edges = [Edge(e.v, e.u, (-e.slope[0], -e.slope[1])) for e in t.edges]
        flipped = CombinatorialType(t.weights, edges, t.legs)
        return ParametrizedCurve(flipped, new.lengths, new.positions), elevator

    cases = ((2, 0, 0), (3, 0, 8), (3, 1, 5), (4, 2, 3))
    want = [run_walk(d, g, seed=seed) for d, g, seed in cases]
    monkeypatch.setattr(tropcurves.walk, "_forget_mark", reversed_edges)
    for (d, g, seed), trace in zip(cases, want):
        got = run_walk(d, g, seed=seed)
        assert (got.events, got.invariants, got.crossings) == (trace.events, trace.invariants, trace.crossings)
        assert (got.terminal.free_edge, got.terminal.ray) == (trace.terminal.free_edge, trace.terminal.ray)


def test_ladder_counts_a_downward_leg_on_the_floor():
    # a downward elevator to infinity is a vertical edge down to its mark,
    # which carries the leg; contracting that edge puts the leg on the
    # floor, where `_ladder` must count it as the same downward elevator
    from tropcurves.floors import floors_of

    checked = 0
    for d, g in ((2, 0), (3, 0), (3, 1)):
        for seed in range(12):
            state = start_walk(d, g, seed=seed)
            t, positions = state.ctype, state._scaled_interior()[1]
            ladder = _ladder(t, positions, state.elevator)
            floor = floors_of(t, positions)[ladder[0] - 1]
            for i, e in enumerate(t.edges):
                if i == state.elevator or e.slope[0] != 0 or e.slope[1] == 0:
                    continue
                foot, top = _elevator_foot(t, positions, i)
                down = [leg for leg in t.legs if leg.vertex == foot and leg.slope[0] == 0 and leg.slope[1] < 0]
                if top not in floor or not down:
                    continue
                t2, vmap, emap = face_contract(t, [i], with_maps=True)
                moved = [None] * t2.n_vertices()
                for v, w in vmap.items():
                    if v != foot:  # the merged vertex keeps the floor's position
                        moved[w] = positions[v]
                assert _ladder(t2, moved, emap[state.elevator]) == ladder, (d, g, seed, i)
                checked += 1
    assert checked >= 40


def test_walls_resolve_and_contract_back():
    trace = run_walk(3, 0, seed=8)
    assert trace.walls
    for wall in trace.walls:
        cls = classify(wall)
        assert cls.is_simple_wall()
        key = canonical_key(wall)
        for new_t, new_e in resolve_wall(wall):
            assert canonical_key(face_contract(new_t, [new_e])) == key


def test_fig7_wall_has_contracted_resolution():
    # in every trace's base-case wall, two germs have opposite slopes and
    # one resolution carries a contracted new edge
    trace = run_walk(2, 0)
    last_wall = trace.walls[-1]
    out = resolve_wall(last_wall)
    assert any(new_t.edges[e].slope == (0, 0) for new_t, e in out)


def test_harmonic_star():
    from fixtures import tropical_line

    base = tropical_line()
    germs = [(base, (F(1), F(2))), (base, (F(-1), F(-2)))]
    verdict = check_harmonic_or_lcs(base, germs)
    assert verdict.mode == "harmonic" and verdict.ok
    assert check_harmonic_or_lcs(base, iter(germs)) == verdict == StarVerdict("harmonic", True, (F(0), F(0)))
    bad = check_harmonic_or_lcs(base, [(base, (F(1), F(0)))])
    assert bad.mode == "harmonic" and not bad.ok


def test_lcs_star():
    from fixtures import tropical_line

    wall = tropical_line(n_marks=1)
    res = resolve_wall(wall)
    germs = [(t, (F(1),)) for t, _e in res]
    verdict = check_harmonic_or_lcs(wall, germs)
    assert verdict.mode == "locally_combinatorially_surjective" and verdict.ok
    partial = check_harmonic_or_lcs(wall, [(res[0][0], (F(1),)), (res[1][0], (F(1),))])
    assert not partial.ok
    assert partial.witness  # the missing stratum is reported
    # the germs are read once, so an iterator gets the same verdicts
    assert check_harmonic_or_lcs(wall, iter(germs)) == verdict
    assert check_harmonic_or_lcs(wall, iter(germs[:2])) == partial

