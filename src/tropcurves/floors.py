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
`tropcurves.recursion` up to MAX_DEGREE.  One marking rule, the moves of
`_completions`, says which object may take the next mark: listing walks
it, a shape's markings are counted from it without listing them, and
`unrank_diagram` follows it to pick the i-th diagram in listing order:
the walk's start.  Listing, counting and unranking share one (d, g)
check, `_has_diagrams`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import PointConfiguration, integer_points
from tropcurves.graphs import CombinatorialType, Edge, Leg, ParametrizedCurve, components

F = Fraction

DOWN = -1  # pseudo-floor index for downward infinity
UP = -2
MAX_DEGREE = 5  # the floor layer is certified against the oracle up to this degree


class Elevator(NamedTuple):
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
    """All marked floor diagrams, shape by shape, each shape's markings
    by a depth-first walk over `_completions`' moves from the empty
    marking.  Identical elevators take their marks in list order, which
    quotients out diagram automorphisms, so each diagram comes once.
    """
    for shape in _weighted_shapes(d, g):
        edge_list = _edge_list(d, shape)
        moves, _count, empty = _completions(d, edge_list)
        n = d + len(edge_list)
        path = [None] * n  # the object of each mark, rewritten as the walk backs up
        stack = [iter(moves(empty))]  # the moves not yet taken at each depth
        while stack:
            for k, after in stack[-1]:
                path[len(stack) - 1] = k
                if len(stack) == n:
                    yield _diagram(d, g, edge_list, path)
                else:
                    stack.append(iter(moves(after)))
                    break
            else:
                stack.pop()


def _edge_list(d, shape):
    """A shape's elevators (top, bottom, weight): its floor-to-floor
    elevators in shape order, then its legs floor by floor, so identical
    elevators sit next to each other."""
    combo, weights, legs = shape
    edge_list = [(i, j, w) for (i, j), w in zip(combo, weights)]
    for fl in range(1, d + 1):
        edge_list += [(fl, DOWN, 1)] * legs[fl - 1]
    return edge_list


def _diagram(d, g, edge_list, path):
    """The FloorDiagram whose marks 1, 2, ... go to the objects of path
    in turn, named as moves name them: None for the next floor down,
    else the elevator's index in edge_list."""
    floor_marks = [mark for mark, k in enumerate(path, 1) if k is None]
    elevators = [Elevator(*edge_list[k], mark) for mark, k in enumerate(path, 1) if k is not None]
    return FloorDiagram(d, g, tuple(floor_marks[::-1]), tuple(elevators))


def _completions(d, edge_list):
    """(moves, count, empty) for one shape's partial markings.  `moves`
    is the one marking rule: listing, counting and unranking all read it.

    Floors take their marks top down, each elevator after its top floor
    and before its bottom one, identical elevators in list order; so a
    partial marking is (next floor to mark, unmarked count per class of
    identical elevators).  moves(state) lists (object, next state) for
    each object that may take the next mark, in listing order: the next
    floor (object None), when no unmarked elevator ends on it, then each
    class whose top floor is marked, by its first unmarked elevator's
    index in edge_list.  count(state) is the number of full markings that
    complete it, memoized on the state for this shape only; once every
    floor is marked only legs are left, in any order, so it is a
    multinomial there.  `empty` is the state of the empty marking, (d,
    class sizes).  Every partial marking reached completes, so count
    never reads 0.
    """
    classes = []  # [top, index after the run, size] of each run of identical elevators
    ending = [[] for _ in range(d + 1)]  # the classes whose elevators end on floor i
    for k, (top, bottom, _w) in enumerate(edge_list):
        if k and edge_list[k - 1] == edge_list[k]:
            classes[-1][1] += 1
            classes[-1][2] += 1
        else:
            if bottom != DOWN:
                ending[bottom].append(len(classes))
            classes.append([top, k + 1, 1])
    spans = [(c, top, end) for c, (top, end, _size) in enumerate(classes)]
    memo = {}

    def moves(state):
        next_floor, left = state
        out = []
        if next_floor:
            for c in ending[next_floor]:
                if left[c]:
                    break
            else:
                out.append((None, (next_floor - 1, left)))
        for c, top, end in spans:
            n = left[c]
            if n and top > next_floor:
                out.append((end - n, (next_floor, left[:c] + (n - 1,) + left[c + 1 :])))
        return out

    def count(state):
        total = memo.get(state)
        if total is None:
            next_floor, left = state
            if next_floor:
                total = sum([count(after) for _k, after in moves(state)])
            else:  # every floor is marked, so only legs are left, in any order
                total = factorial(sum(left))
                for n in left:
                    total //= factorial(n)
            memo[state] = total
        return total

    return moves, count, (d, tuple(size for _top, _end, size in classes))


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
    One pass over the elevators puts each end on its floor.  A floor's
    events, its elevator ends and its mark sorted by x, change its slope
    by +w (an elevator leaves downward), -w (one arrives) or 0 (the mark);
    one loop integrates slopes and heights from its left end, and the
    mark's height then shifts the heights into place.  Returns None when
    the diagram admits no curve over this configuration (two events of a
    floor share an x, an elevator length fails to be positive, or a mark
    misses its object).  cfg is a point configuration, or the pair
    (L, int points) that `integer_points` makes of one, which is how
    `enumerate_curves` clears its points once for all its diagrams.
    """
    scale, points = cfg if isinstance(cfg, tuple) else integer_points(cfg.points)
    d, n = diag.d, diag.n_marks()
    # (x, slope change, slot) per floor, slot 2k (2k + 1) elevator k's top
    # (bottom) vertex; DOWN and UP land in buckets d + 2 and d + 1, unread
    events = [[] for _ in range(d + 3)]
    for k, (top, bottom, w, m) in enumerate(diag.elevators):
        x = points[m - 1][0]
        events[top].append((x, w, 2 * k))
        events[bottom].append((x, -w, 2 * k + 1))
    positions, edges, lengths = [], [], []  # positions times L
    mark_vertex = {}  # mark index -> vertex
    attach = [None] * (2 * len(diag.elevators))  # slot -> vertex
    lefts, downs, rights = [], [], []  # legs of slope (-1, 0), (0, -1), (1, 1): so sorted by (slope, vertex)
    for fl in range(1, d + 1):
        mark = diag.floor_marks[fl - 1]
        mx, my = points[mark - 1]
        floor = events[fl]
        floor.append((mx, 0, None))
        floor.sort(key=lambda ev: ev[0])
        first = len(positions)
        x0, slope, h, heights = floor[0][0], 0, 0, []
        for v, (x, ds, slot) in enumerate(floor, first):
            if v > first:
                if x == x0:
                    return None  # coincident events: not a valid solution
                edges.append(Edge(v - 1, v, (1, slope)))
                lengths.append(_ratio(x - x0, scale))
                h += slope * (x - x0)
            heights.append(h)
            if slot is None:
                mark_vertex[mark], shift = v, my - h
            else:
                attach[slot] = v
            x0, slope = x, slope + ds
        positions += [(x, y + shift) for (x, _ds, _slot), y in zip(floor, heights)]
        lefts.append(first)
        rights.append(v)

    for k, (_top, bottom, w, m) in enumerate(diag.elevators):
        x, qy = points[m - 1]
        top_v = attach[2 * k]
        y_top = positions[top_v][1]
        mark_v = mark_vertex[m] = len(positions)
        positions.append((x, qy))
        if qy >= y_top:
            return None  # the mark must lie strictly below the upper floor
        edges.append(Edge(top_v, mark_v, (0, -w)))
        lengths.append(_ratio(y_top - qy, w * scale))
        if bottom == DOWN:
            downs.append(mark_v)
        else:
            bot_v = attach[2 * k + 1]
            y_bot = positions[bot_v][1]
            if y_bot >= qy:
                return None
            edges.append(Edge(mark_v, bot_v, (0, -w)))
            lengths.append(_ratio(qy - y_bot, w * scale))

    if sorted(mark_vertex) != list(range(1, n + 1)):
        return None
    legs = [Leg(mark_vertex[m]) for m in range(1, n + 1)]
    legs += [Leg(v, (-1, 0)) for v in lefts] + [Leg(v, (0, -1)) for v in downs] + [Leg(v, (1, 1)) for v in rights]
    ctype = CombinatorialType((0,) * len(positions), tuple(edges), tuple(legs))
    if scale != 1:
        positions = [(_ratio(x, scale), _ratio(y, scale)) for x, y in positions]
    return ParametrizedCurve(ctype, lengths, positions)


def enumerate_curves(d, g, cfg=None):
    """All genus-g degree-d curves through a stretched configuration.

    cfg must carry 3d + g - 1 points (default: `make_stretched`, built
    only when there are diagrams); every solution is floor decomposed and
    is produced from its marked floor diagram.  Through points the floor
    method covers each diagram has exactly one curve, so a diagram with
    none proves cfg is outside it: ValueError.
    """
    return list(_curves(d, g, cfg))


def _curves(d, g, cfg):
    """The (diagram, curve) pairs of `enumerate_curves`, one at a time."""
    if not _has_diagrams(d, g, cfg):
        return
    if cfg is None:
        cfg = make_stretched(3 * d + g - 1, d)
    cleared = integer_points(cfg.points)
    for i, diag in enumerate(_marked_diagrams(d, g)):
        curve = diagram_curve(diag, cleared)
        if curve is None:
            raise ValueError(
                f"diagram {i} has no curve through the points: the floor method needs them stretched, top down"
            )
        yield diag, curve


def _has_diagrams(d, g, cfg):
    """The floor layer's one (d, g) check: refuses d past MAX_DEGREE and
    d < 1, answers False for a genus outside 0..(d-1)(d-2)/2, which has
    no diagrams, and otherwise refuses a cfg without 3d + g - 1 points."""
    if d > MAX_DEGREE:
        raise ScaleRefusal(f"the floor layer is certified for d <= {MAX_DEGREE} only")
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0 or g > (d - 1) * (d - 2) // 2:
        return False
    n = 3 * d + g - 1
    if cfg is not None and len(cfg.points) != n:
        raise ValueError(f"expected {n} points for degree {d} genus {g}")
    return True


def solution_diagrams(d, g, cfg=None):
    """The marked floor diagrams behind `enumerate_curves`, in its order.

    Through a stretched configuration each diagram has exactly one curve
    (Brugalle-Mikhalkin), so the i-th diagram gives the i-th solution.
    """
    return list(_marked_diagrams(d, g)) if _has_diagrams(d, g, cfg) else []


def unrank_diagram(d, g, i, cfg=None):
    """solution_diagrams(d, g, cfg)[i % n], n their number, without
    listing them.

    Each shape's markings are counted by `_completions`, one shape at a
    time; the prefix sums of the counts, in `_weighted_shapes` order,
    pick the shape, and the marking is read mark by mark from the same
    moves that listing walks, skipping each move by its number of
    completions.  One shape's memo is held at a time: the chosen shape
    is counted again unless it was the last, and nothing outlives the
    call.  ValueError when (d, g) has no diagrams.
    """
    if not _has_diagrams(d, g, cfg):
        raise ValueError(f"degree {d} genus {g} has no marked floor diagrams")
    shapes = list(_weighted_shapes(d, g))
    counts = []
    for shape in shapes:
        edge_list = _edge_list(d, shape)
        moves, count, state = _completions(d, edge_list)
        counts.append(count(state))
    i %= sum(counts)
    at = 0
    while i >= counts[at]:
        i -= counts[at]
        at += 1
    if at < len(shapes) - 1:  # the last shape's memo is the one still held
        edge_list = _edge_list(d, shapes[at])
        moves, count, state = _completions(d, edge_list)
    path = []
    for _mark in range(d + len(edge_list)):
        for k, after in moves(state):
            completions = count(after)
            if i < completions:
                break
            i -= completions
        path.append(k)
        state = after
    return _diagram(d, g, edge_list, path)


def count_severi(d, g, cfg=None):
    """Multiplicity-weighted count of the curves `enumerate_curves`
    builds through 3d + g - 1 stretched points (the Severi degree), one
    curve at a time."""
    return sum(curve.multiplicity() for _diag, curve in _curves(d, g, cfg))


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
