"""Vertically stretched configurations, floor diagrams, and curve counts.

Through a sufficiently stretched point configuration, every solution
curve of degree d splits into d horizontal floors joined by vertical
elevators.  The combinatorics is recorded in a `FloorDiagram`: floors
ordered bottom to top, weighted elevators between them or dropping to
infinity, and one marked point on every floor and elevator, listed
without dead branches: shapes grow floor by floor from the top, and a
floor takes its mark only once it can.  Curves are rebuilt from marked
diagrams exactly, on ints: elevators stand at the x-coordinates of their
marks and the floor heights are pinned by theirs.

Counting sums the multiplicities (vertex |det| products) of the curves
built; it is certified against the independent recursion oracle in
`tropcurves.recursion` up to MAX_DEGREE.  Counting and enumeration share
one (d, g) check, in `solution_diagrams`.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import PointConfiguration, integer_points
from tropcurves.graphs import CombinatorialType, Edge, Leg, ParametrizedCurve, components

F = Fraction

DOWN = -1  # pseudo-floor index for downward infinity
UP = -2
MAX_DEGREE = 5  # the floor layer is certified against the oracle up to this degree


@dataclass(frozen=True)
class Elevator:
    """A vertical connection of weight w from floor `top` down to `bottom`.

    `bottom` is DOWN for a leg falling to infinity; `top` is UP for a leg
    rising to infinity (absent for the triangle degree, kept for the data
    model).  `mark` is the index (1-based) of the marked point on it.
    """

    top: int
    bottom: int
    weight: int
    mark: int


@dataclass(frozen=True)
class FloorDiagram:
    """Floors 1..d (bottom to top) with marks, plus weighted elevators."""

    d: int
    genus: int
    floor_marks: tuple[int, ...]  # mark of floor i at index i-1
    elevators: tuple[Elevator, ...]

    def n_marks(self):
        return self.d + len(self.elevators)

    def multiplicity(self):
        m = 1
        for e in self.elevators:
            if e.top > 0 and e.bottom > 0:
                m *= e.weight * e.weight
        return m

    def text(self):
        """One floor per line, elevators as weighted arcs w:Fi->Fj|down|up."""
        lines = []
        for i in range(self.d, 0, -1):
            lines.append(f"F{i}: mark={self.floor_marks[i - 1]}")
        for e in sorted(self.elevators, key=lambda e: e.mark):
            dst = "down" if e.bottom == DOWN else ("up" if e.top == UP else f"F{e.bottom}")
            src = f"F{e.top}" if e.top > 0 else "up"
            lines.append(f"{e.weight}:{src}->{dst} mark={e.mark}")
        return "\n".join(lines)


_FLOOR_LINE = re.compile(r"F(\d+):\s*mark=(\d+)")
_ELEVATOR_LINE = re.compile(r"(\d+):(F\d+|up)->(F\d+|down)\s+mark=(\d+)")


def parse_diagram(text):
    """Inverse of FloorDiagram.text().  Raises ValueError naming the
    problem in text the generator never writes: floors other than F1..Fd
    once each, an elevator from up, to a floor not below its own or of
    weight 0, or marks that are not a permutation of 1..n."""
    floors, elevators = [], []
    for line in filter(None, map(str.strip, text.splitlines())):
        if m := _FLOOR_LINE.fullmatch(line):
            floors.append((int(m[1]), int(m[2])))
        elif m := _ELEVATOR_LINE.fullmatch(line):
            if m[2] == "up":
                raise ValueError(f"an elevator starts at a floor, not up: {line!r}")
            top, bottom = int(m[2][1:]), DOWN if m[3] == "down" else int(m[3][1:])
            if int(m[1]) < 1:
                raise ValueError(f"elevator weight must be at least 1: {line!r}")
            if bottom != DOWN and not 1 <= bottom < top:
                raise ValueError(f"an elevator goes down to a lower floor or down: {line!r}")
            elevators.append(Elevator(top, bottom, int(m[1]), int(m[4])))
        else:
            raise ValueError(f"not a floor or elevator line: {line!r}")
    floors.sort()
    d = len(floors)
    if d == 0 or [i for i, _m in floors] != list(range(1, d + 1)):
        raise ValueError(f"floors must be F1..Fd, each once, not {[i for i, _m in floors]}")
    if any(e.top > d for e in elevators):
        raise ValueError(f"an elevator names a floor outside F1..F{d}")
    marks = tuple(m for _i, m in floors)
    if sorted(marks + tuple(e.mark for e in elevators)) != list(range(1, d + len(elevators) + 1)):
        raise ValueError(f"marks must be a permutation of 1..{d + len(elevators)}")
    bounded = sum(1 for e in elevators if e.top > 0 and e.bottom > 0)
    return FloorDiagram(d, bounded - (d - 1), marks, tuple(sorted(elevators, key=lambda e: e.mark)))


# ---------------------------------------------------------------------------
# stretched configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StretchedConfig:
    """A point configuration on the steep line y = -mu x, with witness
    stretching factor lambda."""

    config: PointConfiguration
    stretch: Fraction  # lambda
    mu: Fraction | None = None

    @property
    def points(self):
        return self.config.points

    def __len__(self):
        return len(self.config)


def is_vertically_stretched(points, stretch):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            (x1, y1), (x2, y2) = points[i], points[j]
            if abs(y1 - y2) <= stretch * abs(x1 - x2):
                return False
    return True


def make_stretched(n, d):
    """Points (i, -mu*i), i = 1..n, with mu = (3d)^(3d) * n.

    The witness stretching factor is mu / (2n); sufficiency of this
    explicit mu is certified by exhaustive solution enumeration in the
    test suite rather than by a closed-form bound.
    """
    if n < 1:
        raise ValueError("need at least one point")
    mu = F((3 * d) ** (3 * d) * n)
    pts = tuple((F(i), -mu * i) for i in range(1, n + 1))
    cfg = StretchedConfig(PointConfiguration(pts), stretch=mu / (2 * n), mu=mu)
    # every pair of these points has slope -mu, so the first pair decides
    assert is_vertically_stretched(cfg.points[:2], cfg.stretch)
    return cfg


# ---------------------------------------------------------------------------
# diagram enumeration
# ---------------------------------------------------------------------------


def _weighted_shapes(d, g):
    """Each connected weighted elevator shape with per-floor divergence one.

    A shape assigns floor-to-floor elevators (from a higher floor to a
    lower one, d - 1 + g of them for Betti number g) plus weight-one legs
    dropping to infinity; the weighted out-minus-in of every floor is 1.
    Floors go top down, so floor i's in-weight is final when it chooses
    its out-elevators: a non-decreasing run of (j, w), j < i, of weight
    at most 1 + in-weight, the rest going to legs.  No partial shape
    exceeds d - 1 + g elevators, and none is grown that cannot reach
    them: a unit of budget at floor k takes part in at most k - 1
    elevators, one per floor it drops, so floor i's unspent budget and
    the budgets of the floors below bound the elevators still to come.
    Connectivity is checked at the end.  Parallel elevators carry
    non-decreasing weights, so each shape comes once, sorted by (edge
    multiset, weights).
    """
    n_edges = d - 1 + g
    inflow = [0] * (d + 1)
    legs = [0] * (d + 2)  # the budget floor i leaves unspent
    edges = []  # (i, j, w): the runs of floors d, d-1, ... in turn
    found = []

    def run(i, options, start, budget, reach):
        # reach: budget * (i - 1) plus (1 + in-weight) * (k - 1) for 1 < k < i
        legs[i] = budget
        if len(edges) + reach < n_edges:
            return
        if i == 1:
            if len(set(components(d + 1, [e[:2] for e in edges])[1:])) == 1:
                es = sorted(edges)
                found.append((tuple(e[:2] for e in es), tuple(e[2] for e in es), tuple(legs[1 : d + 1])))
            return
        # floor i stops here, and floor i - 1 starts with its in-weight final
        options_below = [(j, w) for j in range(1, i - 1) for w in range(1, 2 + inflow[i - 1])]
        run(i - 1, options_below, 0, 1 + inflow[i - 1], reach - budget * (i - 1))
        if len(edges) == n_edges:
            return
        for k in range(start, len(options)):
            j, w = options[k]
            if w <= budget:
                edges.append((i, j, w))
                inflow[j] += w
                run(i, options, k, budget - w, reach - w * (i - j))
                edges.pop()
                inflow[j] -= w

    run(d + 1, [], 0, 0, d * (d - 1) // 2)  # a floor above the top that places nothing
    yield from sorted(found)


def _marked_diagrams(d, g):
    """All marked floor diagrams: linear extensions of the object poset.

    Objects are floors and elevators; floors are totally ordered top to
    bottom (the top floor's mark is the smallest), each elevator sits
    between its endpoints, legs come after their floor.  Each diagram
    comes once: identical elevators are interchangeable, which quotients
    out diagram automorphisms.
    """
    for combo, weights, legs in _weighted_shapes(d, g):
        edge_list = [(i, j, w) for (i, j), w in zip(combo, weights)]
        for fl in range(1, d + 1):
            edge_list += [(fl, DOWN, 1)] * legs[fl - 1]
        for floor_marks, elevator_marks in _linear_extensions(d, edge_list):
            elevators = sorted(
                (Elevator(i, j, w, m) for (i, j, w), m in zip(edge_list, elevator_marks)),
                key=lambda e: e.mark,
            )
            yield FloorDiagram(d, g, floor_marks, tuple(elevators))


def _linear_extensions(d, edge_list):
    """Assign marks 1..n to floors (top-down order) and elevators.

    Floor i gets mark f_i with f_d < f_{d-1} < ... < f_1; elevator k
    between floors gets f_top < m_k < f_bottom (DOWN = +infinity).
    Identical elevators sit next to each other in edge_list and take
    their marks in list order, so each marking comes once.  A floor
    takes its mark only once no elevator ending on it waits unmarked, so
    every partial marking extends to a full one.
    """
    n = d + len(edge_list)
    floor_marks = [None] * d
    elevator_marks = [None] * len(edge_list)
    waiting = [0] * (d + 2)  # unmarked elevators ending on floor i; legs count at DOWN = -1
    for _top, bottom, _w in edge_list:
        waiting[bottom] += 1

    def rec(pos, next_floor):
        if pos > n:
            yield tuple(floor_marks), tuple(elevator_marks)
            return
        # choose which object receives mark `pos`: the next floor down first
        if next_floor >= 1 and not waiting[next_floor]:
            floor_marks[next_floor - 1] = pos
            yield from rec(pos + 1, next_floor - 1)
            floor_marks[next_floor - 1] = None
        for k, (top, bottom, w) in enumerate(edge_list):
            if elevator_marks[k] is not None:
                continue
            if floor_marks[top - 1] is None:
                continue  # upper floor not yet marked
            if k and edge_list[k - 1] == edge_list[k] and elevator_marks[k - 1] is None:
                continue  # an identical elevator before it is still unmarked
            elevator_marks[k] = pos
            waiting[bottom] -= 1
            yield from rec(pos + 1, next_floor)
            waiting[bottom] += 1
            elevator_marks[k] = None

    return rec(1, d)


# ---------------------------------------------------------------------------
# curve construction from a marked diagram
# ---------------------------------------------------------------------------


def _ratio(n, den):
    """n / den as an int when it is one, else as a Fraction."""
    if den == 1:
        return n
    q, r = divmod(n, den)
    return F(n, den) if r else q


def diagram_curve(diag: FloorDiagram, cfg):
    """The unique parametrized curve of a marked diagram through cfg.

    The points are multiplied once by L, the lcm of their denominators,
    and the curve is built on ints.  Every value of the answer that is
    integral is passed as an int, so with integer points only the
    elevators of weight above 1 can have Fraction lengths; the curve
    keeps its integer form and makes Fractions only when they are read.
    Each floor is built in one pass: its elevator ends and its mark,
    sorted by x, change its slope by +w (an elevator leaves downward), -w
    (one arrives) or 0 (the mark); the running sum gives the slopes and
    the heights are integrated outward from the mark.  Returns None when
    the diagram admits no curve over this configuration (two events of a
    floor share an x, an elevator length fails to be positive, or a mark
    misses its object).
    """
    scale, points = integer_points(cfg.points)
    positions = []  # times L
    edges = []  # (tail, head, slope, length)
    mark_vertex = {}  # mark index -> vertex
    ends = []  # (vertex, slope) of the non-contracted legs
    attach_vertex = {}  # (elevator index, floor) -> vertex
    for fl in range(1, diag.d + 1):
        events = []  # (x, slope change, elevator index or None at the mark)
        for k, e in enumerate(diag.elevators):
            x = points[e.mark - 1][0]
            if e.top == fl:
                events.append((x, e.weight, k))
            if e.bottom == fl:
                events.append((x, -e.weight, k))
        mark = diag.floor_marks[fl - 1]
        mx, my = points[mark - 1]
        events.append((mx, 0, None))
        events.sort(key=lambda ev: ev[0])
        xs = [x for x, _ds, _k in events]
        # slopes[i] is the slope on (xs[i-1], xs[i]); 0 left of every event
        slopes = list(itertools.accumulate((ds for _x, ds, _k in events), initial=0))
        at = next(i for i, ev in enumerate(events) if ev[2] is None)
        heights = [my] * len(events)
        for i in range(at + 1, len(events)):
            heights[i] = heights[i - 1] + slopes[i] * (xs[i] - xs[i - 1])
        for i in range(at - 1, -1, -1):
            heights[i] = heights[i + 1] - slopes[i + 1] * (xs[i + 1] - xs[i])
        first = len(positions)
        for i, (x, _ds, k) in enumerate(events):
            if k is None:
                mark_vertex[mark] = first + i
            else:
                attach_vertex[(k, fl)] = first + i
            positions.append((x, heights[i]))
        ends += [(first, (-1, 0)), (len(positions) - 1, (1, 1))]
        for i in range(1, len(events)):
            dx = xs[i] - xs[i - 1]
            if dx <= 0:
                return None  # coincident events: not a valid solution
            edges.append((first + i - 1, first + i, (1, slopes[i]), _ratio(dx, scale)))

    for k, e in enumerate(diag.elevators):
        x, qy = points[e.mark - 1]
        top_v = attach_vertex[(k, e.top)]
        y_top = positions[top_v][1]
        mark_v = len(positions)
        positions.append((x, qy))
        mark_vertex[e.mark] = mark_v
        if qy >= y_top:
            return None  # the mark must lie strictly below the upper floor
        edges.append((top_v, mark_v, (0, -e.weight), _ratio(y_top - qy, e.weight * scale)))
        if e.bottom == DOWN:
            ends.append((mark_v, (0, -1)))
        else:
            bot_v = attach_vertex[(k, e.bottom)]
            y_bot = positions[bot_v][1]
            if y_bot >= qy:
                return None
            edges.append((mark_v, bot_v, (0, -e.weight), _ratio(qy - y_bot, e.weight * scale)))

    n = diag.n_marks()
    if sorted(mark_vertex) != list(range(1, n + 1)):
        return None
    legs = [Leg(mark_vertex[m], (0, 0)) for m in range(1, n + 1)]
    legs += [Leg(v, s) for v, s in sorted(ends, key=lambda t: (t[1], t[0]))]
    ctype = CombinatorialType(
        weights=(0,) * len(positions),
        edges=tuple(Edge(u, v, s) for u, v, s, _l in edges),
        legs=tuple(legs),
    )
    if scale != 1:
        positions = [(_ratio(x, scale), _ratio(y, scale)) for x, y in positions]
    return ParametrizedCurve(ctype, [l for _u, _v, _s, l in edges], positions)


def enumerate_curves(d, g, cfg=None):
    """All genus-g degree-d curves through a stretched configuration.

    cfg must carry 3d + g - 1 points (default: `make_stretched`, built
    only when there are diagrams); every solution is floor decomposed and
    is produced from its marked floor diagram.  Through points the floor
    method covers each diagram has exactly one curve, so a diagram with
    none proves cfg is outside it: ValueError.
    """
    diags = solution_diagrams(d, g, cfg)
    if diags and cfg is None:
        cfg = make_stretched(3 * d + g - 1, d)
    out = []
    for i, diag in enumerate(diags):
        curve = diagram_curve(diag, cfg)
        if curve is None:
            raise ValueError(
                f"diagram {i} has no curve through the points: the floor method needs them stretched, top down"
            )
        out.append((diag, curve))
    return out


def solution_diagrams(d, g, cfg=None):
    """The marked floor diagrams behind `enumerate_curves`, in its order.

    Through a stretched configuration each diagram has exactly one curve
    (Brugalle-Mikhalkin), so the i-th diagram gives the i-th solution.
    The floor layer's only (d, g) check: a genus outside 0..(d-1)(d-2)/2
    has no diagrams.
    """
    if d > MAX_DEGREE:
        raise ScaleRefusal(f"the floor layer is certified for d <= {MAX_DEGREE} only")
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0 or g > (d - 1) * (d - 2) // 2:
        return []
    n = 3 * d + g - 1
    if cfg is not None and len(cfg.points) != n:
        raise ValueError(f"expected {n} points for degree {d} genus {g}")
    return list(_marked_diagrams(d, g))


def count_severi(d, g, cfg=None):
    """Multiplicity-weighted count of the curves `enumerate_curves`
    builds through 3d + g - 1 stretched points (the Severi degree)."""
    return sum(curve.multiplicity() for _diag, curve in enumerate_curves(d, g, cfg))


def top_floor_check(diag: FloorDiagram):
    """Exactly one elevator at the top floor, of weight one, and every
    floor has an adjacent downward elevator."""
    top = [e for e in diag.elevators if e.top == diag.d or e.bottom == diag.d]
    if len(top) != 1 or top[0].weight != 1 or top[0].top != diag.d:
        return False
    for fl in range(1, diag.d + 1):
        if not any(e.top == fl for e in diag.elevators):
            return False
    return True


# ---------------------------------------------------------------------------
# decomposition of a parametrized curve into floors and elevators
# ---------------------------------------------------------------------------


class NotFloorDecomposed(ValueError):
    def __init__(self, slope):
        super().__init__(f"edge slope {slope} is neither (+-1, *) nor (0, *)")
        self.slope = slope


@dataclass(frozen=True)
class Decomposition:
    """Floors and elevators of a floor decomposed curve.

    floors: tuple of vertex tuples, ordered bottom to top by height;
    elevators: tuple of (edge chain, weight, top vertex, bottom vertex),
    the chain's edge indices increasing and its weight that of its first
    edge, ordered by first edge; diagram: the marked FloorDiagram when the
    marking is one point per object, else None with problems.
    """

    floors: tuple
    elevators: tuple
    diagram: FloorDiagram | None
    problems: tuple


def floors_of(t: CombinatorialType, positions):
    """The floors of a floor decomposed type, as sorted vertex tuples.

    A floor is a component of the type without its vertical edges that
    carries an edge or leg of nonzero horizontal slope.  Floors are
    ordered bottom to top by lowest height, then by vertices.  Raises
    NotFloorDecomposed when some edge or leg has a slope other than
    (+-1, *) or (0, *).
    """
    for s in [e.slope for e in t.edges] + [leg.slope for leg in t.legs]:
        if abs(s[0]) not in (0, 1):
            raise NotFloorDecomposed(s)
    root = components(t.n_vertices(), [(e.u, e.v) for e in t.edges if e.slope[0] != 0 or e.slope[1] == 0])
    carriers = {root[e.u] for e in t.edges if e.slope[0] != 0}
    carriers |= {root[leg.vertex] for leg in t.legs if leg.slope[0] != 0}
    comps = {}
    for v, r in enumerate(root):
        comps.setdefault(r, []).append(v)
    floors = [tuple(vs) for r, vs in comps.items() if r in carriers]
    return tuple(sorted(floors, key=lambda vs: (min(positions[v][1] for v in vs), vs)))


def decompose(curve: ParametrizedCurve):
    """Split a curve into its floors (`floors_of`) and elevators.

    An elevator is a chain of vertical edges: a component of them, two
    joined only at a vertex off every floor that carries exactly these two
    vertical edges.  So a chain ends at each floor and at every other
    vertex, whatever the edge numbering: at one with a single vertical
    edge, or three or more.  Its marks are the marks at its vertices off
    the floors.  The diagram needs one mark on every floor and elevator; a
    vertical leg at a floor is an elevator without a mark.  Raises
    NotFloorDecomposed when some edge or leg has a slope other than
    (+-1, *) or (0, *).
    """
    t, pos = curve.ctype, curve.positions
    floors = floors_of(t, pos)
    floor_of = {v: i for i, vs in enumerate(floors, start=1) for v in vs}
    marks_at = {}  # vertex -> the marks there
    for j in t.contracted_legs():
        marks_at.setdefault(t.legs[j].vertex, []).append(j + 1)

    def marks(vs):
        return sorted(m for v in vs for m in marks_at.get(v, ()))

    ne = len(t.edges)
    germs = [(i, v) for i, e in enumerate(t.edges) if e.slope[0] == 0 and e.slope[1] != 0 for v in (e.u, e.v)]
    count = Counter(v for _i, v in germs)
    joints = {v for v, k in count.items() if k == 2 and v not in floor_of}
    root = components(ne + len(pos), [(i, ne + v) for i, v in germs if v in joints])
    chains = {}  # root -> the (edge, vertex) germs of one chain, by edge index
    for i, v in germs:
        chains.setdefault(root[i], []).append((i, v))
    elevators, spans, problems, issues = [], [], [], []
    for pairs in chains.values():
        chain = tuple(dict.fromkeys(i for i, _v in pairs))
        vs = {v for _i, v in pairs}
        w = abs(t.edges[chain[0]].slope[1])
        problems += [f"elevator chain {chain} mixes weights" for i in chain if abs(t.edges[i].slope[1]) != w]
        # highest first, ties by vertex; a closed chain has no ends, so its
        # highest and lowest vertices stand in
        tips = sorted(vs - joints or vs, key=lambda v: (pos[v][1], -v), reverse=True)
        elevators.append((chain, w, tips[0], tips[-1]))
        ms = marks(vs - floor_of.keys())
        if floors and len(ms) != 1:
            issues.append(f"elevator with marks {ms}")
        spans.append((floor_of.get(tips[0], UP), floor_of.get(tips[-1], DOWN), w, ms))
    issues += [
        "unmarked vertical leg elevator"
        for leg in t.legs
        if leg.slope[0] == 0 and leg.slope[1] != 0 and leg.vertex in floor_of
    ]
    floor_marks = [marks(vs) for vs in floors]
    issues += [f"floor {i} with marks {ms}" for i, ms in enumerate(floor_marks, start=1) if len(ms) != 1]
    diagram = None
    if floors and not issues:
        bounded = sum(1 for top, bottom, _w, _ms in spans if top > 0 and bottom > 0)
        records = sorted((Elevator(top, bottom, w, ms[0]) for top, bottom, w, ms in spans), key=lambda e: e.mark)
        genus = bounded - (len(floors) - 1)
        diagram = FloorDiagram(len(floors), genus, tuple(ms[0] for ms in floor_marks), tuple(records))
    return Decomposition(floors, tuple(elevators), diagram, tuple(problems + issues))
