"""The elevator-moving walk through the moduli space.

Starting from a floor decomposed solution through n stretched points,
the marked point on the top floor's elevator is forgotten and declared
mobile; forgetting it merges the elevator's two pieces into one edge, E.
The curve moves along the one-dimensional evaluation fiber of its nice
stratum until an edge length vanishes: a simple wall, where E becomes
adjacent to a 4-valent vertex.  What E met there is read once from that
vertex: a mark, else another vertical (an elevator), else nothing (a
floor vertex).  Crossing the wall follows a case analysis on the pair
(k, r) -- the index of E's host floor and the number of special points
between E and the nearest downward elevator E'.  `run_walk` is that
case analysis, and each case hands `cross` the germ that E's germ leaves
the wall with.  While r > 1, E slides past the point it met (the floor
germ beyond it).  At r = 1 it merges with E' (the met germ): when E' has
weight one this is the base case, and otherwise a heavy-elevator descent
of two more walls (the downward vertical germ, then the rightward floor
germ) lowers the host floor.  (k, r) strictly decreases
lexicographically.  The genus-drop witness, a stratum with an unbounded
contracted edge, is read only right after the base-case merge; a
terminal ray anywhere else, or none there, is a WalkError.

Everything is exact.  Every wall is re-checked to be a simple wall.  A
crossing enters one of the wall's resolutions by construction, since
`split_vertex` splits the wall's 4-valent vertex;
`test_walls_resolve_and_contract_back` checks that all three
resolutions of each wall met contract back to it.  The terminal ray is
certified to move nothing but one contracted edge length.

The geometry runs on Python ints, and a state keeps them: its lengths
are ints over `den` and its direction ints over `dscale`.  The start's
diagram is unranked from the seed (`floors.unrank_diagram`), not picked
from a list, and its lengths are the integer form of the mark-forgotten
curve; the fiber line is solved over the points times their lcm,
the pinned configuration's `cleared` form, made once per walk, which
leaves its direction as it was, and `solve_affine` answers it on ints;
the next wall is picked, and the wall lengths built over -b_k·den, on
those ints; positions and velocities are built on ints along the tree
edges (`cones.integer_positions`); and (k, r) is read from
positions that are ints times one positive denominator.  Each stratum's
path coefficients are built once, by its fiber solve, and kept on its
`WalkState`.  Fractions are made only for a wall's parameter, a terminal
ray and the mark-forgotten start curve when its denominator is not 1.
`WalkState` and `WallEvent` are named tuples: a crossing rebuilds the
state with `_replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from tropcurves.canonical import canonical_key
from tropcurves.cones import (
    classify,
    fiber_rows,
    integer_positions,
    resolve_wall,
    scaled_positions,
    split_vertex,
)
from tropcurves.errors import WalkError
from tropcurves.evaluation import PointConfiguration
from tropcurves.floors import diagram_curve, floors_of, make_stretched, top_floor_check, unrank_diagram
from tropcurves.graphs import (
    CombinatorialType,
    Edge,
    Leg,
    ParametrizedCurve,
    face_contract,
)
from tropcurves.linalg import solve_affine

F = Fraction


class WallEvent(NamedTuple):
    wall_type: CombinatorialType
    four_valent_vertex: int
    parameter: Fraction  # motion parameter at which the wall is hit
    edge_map: dict  # edge index before the contraction -> index in wall_type
    elevator_germ: tuple  # descriptor of E's germ at the wall vertex
    others: tuple  # the other three germs there, as (slope, descriptor)
    met: tuple | None  # the germ of what E met; None for a floor vertex

    @property
    def kind(self):
        if self.met is None:
            return "elevator_meets_floor_vertex"
        if self.met[0] == (0, 0):
            return "elevator_meets_marked_point"
        return "elevator_meets_elevator"


@dataclass(frozen=True)
class Terminal:
    """The genus-drop witness: one contracted edge of unbounded length."""

    stratum: CombinatorialType
    free_edge: int
    ray: tuple


class WalkState(NamedTuple):
    ctype: CombinatorialType  # n-1 contracted legs, mobile point unmarked
    lengths: tuple  # current point of the closed cone (entry wall: one zero), as ints over den
    den: int  # positive denominator of the lengths
    direction: tuple  # motion direction in length coordinates, as ints over dscale
    dscale: int  # positive denominator of the direction
    fixed: PointConfiguration  # the n-1 pinned points, cleared once per walk
    elevator: int  # edge index of E
    floor_index: int  # k: host floor of E, counted from the bottom
    ladder: int  # r
    coeffs: tuple  # ctype's tree-path coefficients, from its fiber solve

    def _scaled_interior(self):
        """(S, the vertex positions (x, y) times S, as ints) strictly inside
        the stratum along the motion ray: halfway to the next wall, or one
        unit along a ray."""
        a, scale, b, dscale = self.lengths, self.den, self.direction, self.dscale
        k = _wall_ahead(a, b)
        if k is None:  # lengths + direction, over L·D
            den, lengths = scale * dscale, [x * dscale + y * scale for x, y in zip(a, b)]
        else:  # lengths + (step / 2)·direction, over 2·L·(-b_k)
            den, lengths = 2 * scale * -b[k], [2 * x * -b[k] + a[k] * y for x, y in zip(a, b)]
        den, flat = scaled_positions(self.ctype, self.fixed.points, self.coeffs, lengths, den)
        return den, list(zip(flat[::2], flat[1::2]))


def _wall_ahead(a, b):
    """The index k of the first length a / L to vanish along the direction
    b / D, both on ints: the least a_k / -b_k over b_k < 0 (the first of
    equals), or None when no length falls.  The wall sits at step
    a_k·D / (-b_k·L)."""
    k = None
    for i, (x, y) in enumerate(zip(a, b)):
        if y < 0 and (k is None or x * -b[k] < a[k] * -y):
            k = i
    return k


def _fiber_line(t, points):
    """(D, the direction of t's one-dimensional fiber over the int points
    times D as ints, its rows' path coefficients).

    The points are the walk's pinned points times their lcm: scaling the
    right-hand side by it leaves the kernel, and whether the fiber is
    empty, as they were."""
    rows, rhs, coeffs = fiber_rows(t, points)
    sol = solve_affine(rows, rhs, len(t.edges))
    if sol is None:
        raise WalkError("evaluation fiber is empty")
    _base, basis = sol
    if len(basis) != 1:
        raise WalkError(f"fiber dimension {len(basis)} inside a nice stratum, expected 1")
    return (*basis[0], coeffs)


# ---------------------------------------------------------------------------
# structural bookkeeping: floors, elevators, ladders
# ---------------------------------------------------------------------------


def _elevator_foot(t, positions, edge_index):
    """(foot vertex, top vertex) of a vertical edge, by height; positions
    may be scaled by any positive number."""
    e = t.edges[edge_index]
    if positions[e.u][1] <= positions[e.v][1]:
        return e.u, e.v
    return e.v, e.u


def _ladder(t, positions, elevator):
    """(k, r, target x): the floor index k of the elevator's foot, the
    ladder r, and the x of the nearest other downward elevator on floor k.

    It only compares coordinates, takes their differences and collects x
    values, so the positions may be ints times one positive denominator;
    the target x is then in the same units."""
    floors = floors_of(t, positions)
    foot, _top = _elevator_foot(t, positions, elevator)
    k = next((k for k, vs in enumerate(floors, start=1) if foot in vs), None)
    if k is None:
        raise WalkError("mobile elevator foot is not on a floor")
    x_e = positions[foot][0]
    # downward elevator attachments on floor k (vertical germ pointing down)
    floor_vertices = set(floors[k - 1])
    attachments = []
    for i, e in enumerate(t.edges):
        if i == elevator or e.slope[0] != 0 or e.slope[1] == 0:
            continue
        to = _elevator_foot(t, positions, i)[1]
        if to in floor_vertices:
            attachments.append(positions[to][0])
    for leg in t.legs:
        if leg.slope[0] == 0 and leg.slope[1] < 0 and leg.vertex in floor_vertices:
            attachments.append(positions[leg.vertex][0])
    candidates = [(abs(x - x_e), x) for x in attachments if x != x_e]
    if not candidates:
        raise WalkError(f"floor {k} has no other downward elevator")
    _dist, x_target = min(candidates, key=lambda c: (c[0], -c[1]))  # nearest; ties prefer the right
    lo, hi = min(x_e, x_target), max(x_e, x_target)
    specials = set()
    for v in floor_vertices:
        x = positions[v][0]
        if lo < x <= hi if x_target > x_e else lo <= x < hi:
            specials.add(x)
    r = len(specials)
    return k, r, x_target


# ---------------------------------------------------------------------------
# the walk operations
# ---------------------------------------------------------------------------


def start_walk(d, g, cfg=None, seed=0):
    """Initial walk state: a floor decomposed solution with its top-floor
    elevator's marked point declared mobile.

    The solution is the curve of `solution_diagrams(d, g, cfg)[seed % n]`,
    which `floors.unrank_diagram` picks without listing the n diagrams.
    Forgetting its mark merges the two pieces of the top elevator into
    one edge, E.  The motion direction is the fiber line of the
    mark-forgotten stratum, oriented so that E's foot moves toward the
    nearest other downward elevator on its floor; (k, r) and that
    orientation are read from the new curve's integer form.
    """
    if d < 2:
        raise ValueError("the walk needs a non-top floor; degree 1 has a single floor")
    max_genus = (d - 1) * (d - 2) // 2
    if not 0 <= g <= max_genus:
        raise ValueError(f"genus {g} is out of range: degree {d} needs 0 <= g <= {max_genus}")
    n = 3 * d + g - 1
    if cfg is None:
        cfg = make_stretched(n, d)
    diag = unrank_diagram(d, g, seed, cfg)
    curve = diagram_curve(diag, cfg)
    if curve is None:
        raise ValueError("no floor decomposed solution: configuration is not stretched")
    if not top_floor_check(diag):
        raise WalkError("top floor elevator is not unique of weight one")
    (mobile_mark,) = [e.mark for e in diag.elevators if e.top == diag.d]
    new_curve, elevator = _forget_mark(curve, mobile_mark - 1)
    fixed = PointConfiguration(tuple(p for i, p in enumerate(cfg.points) if i != mobile_mark - 1))
    t, den, ints = new_curve.ctype, new_curve.den, new_curve.ints
    if not classify(t).is_nice():
        raise WalkError("initial stratum is not nice")
    dscale, v, coeffs = _fiber_line(t, fixed.cleared[1])
    ne = len(t.edges)
    positions = list(zip(ints[ne::2], ints[ne + 1 :: 2]))  # times den
    k, r, x_target = _ladder(t, positions, elevator)
    foot, _ = _elevator_foot(t, positions, elevator)
    dx = integer_positions(t, coeffs, v, (0, 0))[2 * foot]
    if dx == 0:
        raise WalkError("fiber direction does not move the mobile elevator")
    if (dx > 0) != (x_target > positions[foot][0]):
        v = [-x for x in v]
    return WalkState(
        ctype=t,
        lengths=ints[:ne],
        den=den,
        direction=tuple(v),
        dscale=dscale,
        fixed=fixed,
        elevator=elevator,
        floor_index=k,
        ladder=r,
        coeffs=coeffs,
    )


def _forget_mark(curve, leg_index):
    """Remove a contracted leg and stabilize the 2-valent vertex it leaves.

    Returns (curve, edge): the new curve and the merged edge that carried
    the mark.  The mark always sits on a weight-0 vertex between two
    edges: the top floor has in-weight 0 and divergence 1, so it has one
    elevator, of weight 1, and connectivity sends it to a lower floor,
    where the mark cuts it in two.  Any other shape is a WalkError.  The
    new lengths and positions are read from the curve's integer form:
    ints when its denominator is 1, else divided back by it exactly.
    """
    t = curve.ctype
    host = t.legs[leg_index].vertex
    legs = [leg for j, leg in enumerate(t.legs) if j != leg_index]
    others = [j for j, leg in enumerate(t.legs) if j != leg_index and leg.vertex == host]
    incident = [
        (i, e) for i, e in enumerate(t.edges) if e.u == host or e.v == host
    ]
    if t.weights[host] != 0 or others or len(incident) != 2:
        raise WalkError("the mobile mark is not on a weight-0 vertex between two edges")
    (i1, e1), (i2, e2) = incident
    # merge e1 and e2 through host; orientation via the far endpoints
    a = e1.v if e1.u == host else e1.u
    b = e2.v if e2.u == host else e2.u
    slope_a_to_host = e1.slope if e1.u == a else (-e1.slope[0], -e1.slope[1])
    ne, ints = len(t.edges), curve.ints
    edges = [e for i, e in enumerate(t.edges) if i not in (i1, i2)] + [Edge(a, b, slope_a_to_host)]
    lengths = [x for i, x in enumerate(ints[:ne]) if i not in (i1, i2)] + [ints[i1] + ints[i2]]
    positions = [p for v, p in enumerate(zip(ints[ne::2], ints[ne + 1 :: 2])) if v != host]
    if curve.den != 1:
        lengths = [F(x, curve.den) for x in lengths]
        positions = [(F(x, curve.den), F(y, curve.den)) for x, y in positions]

    # drop the host vertex, renumbering everything above it
    def ren(v):
        return v - 1 if v > host else v

    edges = tuple(e if max(e.u, e.v) < host else Edge(ren(e.u), ren(e.v), e.slope) for e in edges)
    legs = tuple(leg if leg.vertex < host else Leg(leg.vertex - 1, leg.slope) for leg in legs)
    weights = tuple(w for v, w in enumerate(t.weights) if v != host)
    t2 = CombinatorialType(weights, edges, legs)
    return ParametrizedCurve(t2, lengths, positions), len(edges) - 1


def advance(state: WalkState):
    """Move along the fiber direction to the next wall, or detect the
    terminal ray.

    At a wall, the germs of its 4-valent vertex are read once: E's own
    germ, the three others, and the one E met (`_met_germ`).
    """
    a, b = state.lengths, state.direction
    k = _wall_ahead(a, b)
    if k is None:
        return _terminal(state)
    # length i at the wall is (a_i·(-b_k) + a_k·b_i) / (-b_k·L)
    wall = [x * -b[k] + a[k] * y for x, y in zip(a, b)]
    den = -b[k] * state.den
    vanished = [i for i, (w, y) in enumerate(zip(wall, b)) if w == 0 and y < 0]
    if len(vanished) != 1:
        raise WalkError(f"{len(vanished)} lengths vanish simultaneously; wall is not simple")
    wall_type, _, edge_map = face_contract(state.ctype, vanished, with_maps=True)
    cls = classify(wall_type)
    if not cls.is_simple_wall():
        raise WalkError(f"wall stratum classified as {cls.kind}")
    u = cls.four_valent_vertex
    e_new = edge_map.get(state.elevator)
    if e_new is None:
        raise WalkError("the mobile elevator itself collapsed")
    germs = wall_type.star(u)
    e_germ = [d for _s, d in germs if d[0] == "edge" and d[1] == e_new]
    if not e_germ:
        raise WalkError("wall vertex is not adjacent to the mobile elevator")
    others = tuple((s, d) for s, d in germs if d != e_germ[0])
    if len(others) != 3:
        raise WalkError("wall vertex is not 4-valent")
    event = WallEvent(
        wall_type=wall_type,
        four_valent_vertex=u,
        parameter=F(a[k] * state.dscale, den),
        edge_map=edge_map,
        elevator_germ=e_germ[0],
        others=others,
        met=_met_germ(others),
    )
    return state._replace(lengths=tuple(wall), den=den), event


def _met_germ(others):
    """What E met at the wall: a mark, else another vertical, else None
    (a floor vertex)."""
    marks = [(s, d) for s, d in others if s == (0, 0) and d[0] == "leg"]
    verticals = [(s, d) for s, d in others if s[0] == 0 and s[1] != 0]
    return (marks + verticals + [None])[0]


def _terminal(state: WalkState):
    """Certify the unbounded direction as a genus-drop witness."""
    t = state.ctype
    moving = [i for i, d in enumerate(state.direction) if d != 0]
    if len(moving) != 1 or t.edges[moving[0]].slope != (0, 0):
        raise WalkError("terminal ray moves more than one contracted edge length")
    free_edge = moving[0]
    # vertex positions must be constant along the ray
    velocities = integer_positions(t, state.coeffs, state.direction, (0, 0))
    if any(velocities):
        raise WalkError("terminal ray moves vertex positions")
    ray = (F(0),) * len(velocities) + tuple(F(x, state.dscale) for x in state.direction)
    return state, Terminal(stratum=t, free_edge=free_edge, ray=ray)


def cross(state: WalkState, event: WallEvent, partner):
    """Split the wall's 4-valent vertex so that E's germ leaves with
    ``partner``, one of ``event.others``, and enter the stratum beyond.

    `run_walk` names the partner its case asks for: while r > 1, the floor
    germ on the far side of the point E met (`_far_floor_germ`), so E
    slides past it; at r = 1, the met germ, so E merges with E' (the base
    case, and the start of the heavy-elevator descent); in the descent,
    the downward vertical germ, then the rightward floor germ.
    """
    if sum(1 for l in state.lengths if l == 0) != 1:
        raise WalkError("cross expects a state sitting on its wall")
    new_type, new_edge = split_vertex(event.wall_type, event.four_valent_vertex, [partner[1], event.elevator_germ])
    lengths = [0] * len(new_type.edges)
    for old, new in event.edge_map.items():
        lengths[new] = state.lengths[old]
    dscale, v, coeffs = _fiber_line(new_type, state.fixed.cleared[1])
    if v[new_edge] == 0:
        raise WalkError("fiber direction ignores the resolving edge")
    if v[new_edge] < 0:
        v = [-x for x in v]  # away from the wall: the resolving edge grows
    # split_vertex keeps the wall's edge numbering, so E keeps its index
    return state._replace(
        ctype=new_type,
        lengths=tuple(lengths),
        direction=tuple(v),
        dscale=dscale,
        elevator=event.edge_map[state.elevator],
        coeffs=coeffs,
    )


def _far_floor_germ(state, event):
    """Of the floor germs at the wall vertex other than the met one, the
    one pointing the way E's foot moves.  The foot is an endpoint of the
    dead edge, and the first endpoint that moves horizontally gives that
    way."""
    t = state.ctype
    dead = t.edges[state.lengths.index(0)]
    velocities = integer_positions(t, state.coeffs, state.direction, (0, 0))
    dxs = [velocities[2 * v] for v in (dead.u, dead.v) if velocities[2 * v] != 0]
    if not dxs:
        raise WalkError("motion direction is vertically degenerate at the wall")
    for s, d in event.others:
        if (s, d) != event.met and s[0] != 0 and (s[0] > 0) == (dxs[0] > 0):
            return (s, d)
    raise WalkError("no floor germ on the far side")


# ---------------------------------------------------------------------------
# the full walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkTrace:
    """Record of a full walk: strata entered, wall events, the invariant
    (k, r) at every recorded main-line state, and the terminal witness."""

    events: tuple
    invariants: tuple
    terminal: Terminal
    crossings: int
    walls: tuple  # the simple-wall types encountered


def run_walk(d, g, cfg=None, seed=0):
    """Drive the walk through its case analysis (see the module
    docstring) until the genus-drop witness appears.

    Each wall is reached by one step that refuses a terminal ray, records
    the wall and checks the a-priori step bound.  Raises WalkError if a
    terminal ray comes anywhere but right after the base-case merge, or
    none comes there, if the lexicographic descent of (k, r) or any wall
    invariant fails, or if the step bound is exceeded.
    """
    state = start_walk(d, g, cfg, seed=seed)
    events = [("start", state.floor_index, state.ladder)]
    invariants = [(state.floor_index, state.ladder)]
    walls = []  # each wall is crossed once, so these count the crossings
    bound = 8 * d * (3 * d + g) + 40

    def to_wall(state, before):
        at_wall, event = advance(state)
        if isinstance(event, Terminal):
            raise WalkError(f"terminal ray before {before}")
        walls.append(event.wall_type)
        events.append(("wall", event.kind, event.parameter))
        if len(walls) > bound:
            raise WalkError("walk exceeded its a-priori step bound")
        return at_wall, event

    def recorded(state, choice):
        # read (k, r) inside the stratum just entered
        k, r, _x = _ladder(state.ctype, state._scaled_interior()[1], state.elevator)
        events.append(("cross", choice, k, r))
        invariants.append((k, r))
        return state._replace(floor_index=k, ladder=r)

    while True:
        at_wall, event = to_wall(state, "the base case")
        if event.met is None:
            raise WalkError("no met object at the wall vertex")
        if at_wall.ladder > 1:  # E slides past the point it met
            state = recorded(cross(at_wall, event, _far_floor_germ(at_wall, event)), "continue")
            continue
        # r == 1: E has reached the nearest downward elevator E' and merges with it
        k = at_wall.floor_index
        state = cross(at_wall, event, event.met)
        if event.kind != "elevator_meets_elevator" or abs(event.met[0][1]) == 1:
            break
        # heavy elevator: the three-wall descent of the induction step
        events.append(("cross", "merge", "descend-start"))
        at_wall, event = to_wall(state, "the mark wall")
        if event.kind != "elevator_meets_marked_point":
            raise WalkError(f"descent expected the elevator mark, got {event.kind}")
        down = [germ for germ in event.others if germ[0][0] == 0 and germ[0][1] < 0]
        if not down:
            raise WalkError("no downward germ to descend along")
        state = cross(at_wall, event, down[0])
        events.append(("cross", "descend", None))
        at_wall, event = to_wall(state, "reaching the floor")
        right = [germ for germ in event.others if germ[0][0] > 0]
        if not right:
            raise WalkError("no rightward floor germ to land beside")
        state = recorded(cross(at_wall, event, right[0]), "land")
        if state.floor_index >= k:
            raise WalkError(f"descent failed to lower the floor: {k} -> {state.floor_index}")
    # the base case: the fiber of the merged stratum must be the unbounded ray
    events.append(("cross", "merge", "base-case"))
    _state, terminal = advance(state)
    if not isinstance(terminal, Terminal):
        raise WalkError("the base case did not reach the terminal ray")
    events.append(("terminal", terminal.free_edge))
    for a, b in zip(invariants, invariants[1:]):
        if not b < a:
            raise WalkError(f"(k, r) failed to decrease: {a} -> {b}")
    return WalkTrace(
        events=tuple(events),
        invariants=tuple(invariants),
        terminal=terminal,
        crossings=len(walls),
        walls=tuple(walls),
    )


# ---------------------------------------------------------------------------
# harmonicity / local combinatorial surjectivity of a star of germs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarVerdict:
    mode: str  # "harmonic" | "locally_combinatorially_surjective"
    ok: bool
    witness: tuple = ()


def check_harmonic_or_lcs(base_type, germs):
    """Validate a star of germs around a point of the moduli space.

    Each germ is a pair (target type, direction vector).  When every germ
    stays in the base stratum, the directions must sum to zero
    (harmonicity).  Otherwise the base must be a simple wall and every
    one of its three resolutions must be hit by some germ (local
    combinatorial surjectivity).
    """
    germs = list(germs)
    base_key = canonical_key(base_type)
    hit = {canonical_key(t) for t, _v in germs} - {base_key}
    if not hit:
        width = max((len(v) for _t, v in germs), default=0)
        total = [F(0)] * width
        for _t, v in germs:
            for i, x in enumerate(v):
                total[i] += x
        ok = all(x == 0 for x in total)
        return StarVerdict("harmonic", ok, witness=tuple(total))
    resolution_keys = {canonical_key(t) for t, _e in resolve_wall(base_type)}
    missing = tuple(sorted(resolution_keys - hit))
    return StarVerdict("locally_combinatorially_surjective", not missing, witness=missing)
