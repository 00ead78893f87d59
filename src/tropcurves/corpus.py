"""Bounded enumeration of combinatorial types of plane curves.

The corpus of degree-d, genus-g types is produced in two stages:

1.  `enumerate_cores(d, b1)` -- all weightless stable types with every
    edge slope nonzero, d legs each of slopes (1,1), (-1,0), (0,-1), and
    first Betti number b1, realizable ones only.

    A tree is fixed by its legs: balancing forces the slope of each edge
    to be the sum of the leg slopes beyond it, and any positive lengths
    realize it.  So trees are generated rather than searched for.  A
    rooted subtree is a sorted multiset of at least two children, each a
    leg or a subtree hung from an edge whose forced slope is nonzero and
    within the bound.  Every tree is rooted at its leg centroid: the one
    vertex all of whose branches hold fewer than half the legs or, when
    there is none, the one edge that splits the legs in half.  Then each
    tree comes out exactly once (Wright, Richmond, Odlyzko and McKay,
    "Constant time generation of free trees", SIAM J. Comput. 1986).

    A core of Betti number 1 is a cycle of k >= 2 vertices, each carrying
    children drawn from the same subtrees (Harary and Palmer, "Graphical
    Enumeration", 1973).  Balancing fixes each cycle slope from the one
    before it, and one cycle closes with positive lengths iff the negative
    of each of its slopes lies in the cone of them all, an exact planar
    test.  A cycle is kept as the least of its rotations and reflections,
    so each core comes out once too.  Higher Betti numbers are refused.

    Slope coordinates are bounded by d (the dual-polygon bound).  An
    edge's slope, weight included, is a dual edge of the Newton
    subdivision of the triangle (0,0), (d,0), (0,d) turned by a right
    angle, and both coordinates of a vector between two points of that
    triangle lie in [-d, d].

2.  `scan_fibers(d, g, cfg)` -- all ways of attaching len(cfg) contracted
    legs to a core, pruned by exact LP feasibility of the
    partially-constrained fiber polyhedron.  Every marked type whose
    fiber over cfg is nonempty appears in the scan; all others have empty
    fibers by construction.

Decorated types -- with vertex weights, contracted loops or contracted
bridges -- need no stage of their own: each reduces onto a weightless
core of genus at most g with the same marked points (see `scan_fibers`),
so scanning the cores of every genus g' <= g certifies them too.

Unrealizable types (empty open cone) are dropped everywhere: they bound
no stratum of the moduli space.
"""

from __future__ import annotations

import itertools
from math import lcm

from tropcurves.canonical import canonical_key
from tropcurves.cones import cycle_system, path, path_coefficients, xy_rows
from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.graphs import CombinatorialType, Edge, Leg
from tropcurves.linalg import feasible_nonneg

_CLASS_SLOPES = ((1, 1), (-1, 0), (0, -1))


def _cone_contains(gens, w):
    """Exact 2D test: is w a nonnegative combination of the generators?"""
    wx, wy = w
    if wx == 0 and wy == 0:
        return True
    for gx, gy in gens:
        if gx * wy - gy * wx == 0 and gx * wx + gy * wy > 0:
            return True
    n = len(gens)
    for i in range(n):
        gi = gens[i]
        for j in range(i + 1, n):
            gj = gens[j]
            det = gi[0] * gj[1] - gi[1] * gj[0]
            if det == 0:
                continue
            x = (wx * gj[1] - wy * gj[0])
            y = (gi[0] * wy - gi[1] * wx)
            if det < 0:
                x, y, det = -x, -y, -det
            if x >= 0 and y >= 0:
                return True
    return False


def _slope_sum(m):
    """The summed slope of m[k] legs of each class k of _CLASS_SLOPES."""
    return (m[0] - m[1], m[0] - m[2])


def _shapes(counts, bound, cap, b1):
    """Each stable core with counts[k] legs of class k and Betti number
    b1 <= 1 once, as (kids, cycle).

    Vertex i < len(kids) carries the children kids[i]; with b1 = 1 the
    vertices form a cycle whose edge i -> i + 1 has slope cycle[i], and
    a tree is one vertex and no cycle.  Edge slopes must be nonzero with
    coordinates in [-bound, bound], and no vertex has more than cap
    germs.  A leg multiset is a tuple of counts per class, and a rooted
    subtree is a sorted tuple of children (multiset, subtree), where the
    subtree of a single leg is ().
    """
    n = sum(counts)
    hung_forms = {}

    def sub_multisets(m):
        return [s for s in itertools.product(*(range(k + 1) for k in m)) if any(s)]

    def in_bound(s):
        return s != (0, 0) and max(abs(s[0]), abs(s[1])) <= bound

    def hung(m):
        """The subtrees holding legs m that can hang below an edge."""
        if sum(m) == 1:
            return [()]
        if m not in hung_forms:
            # proper parts force at least two children
            parts = [p for p in sub_multisets(m) if p != m]
            hung_forms[m] = list(children(m, parts, cap - 1)) if in_bound(_slope_sum(m)) else []
        return hung_forms[m]

    def children(rem, parts, k, i=0):
        """Sorted tuples of at most k children whose legs sum to rem, their
        multisets drawn from parts[i:] (ascending)."""
        if not any(rem):
            yield ()
            return
        for j in range(i, len(parts)):
            m = parts[j]
            if any(a > b for a, b in zip(m, rem)):
                continue
            options = hung(m)
            if not options:
                continue
            left = rem
            for r in range(1, k + 1):
                left = tuple(a - b for a, b in zip(left, m))
                if min(left) < 0:
                    break
                tails = list(children(left, parts, k - r, j + 1))
                if not tails:
                    continue
                for combo in itertools.combinations_with_replacement(options, r):
                    head = tuple((m, f) for f in combo)
                    for tail in tails:
                        yield head + tail

    def beads(rem, seq):
        """Cycles extending seq, a list of beads (multiset, slope out of
        the vertex), each the least of its rotations and reflections."""
        if not any(rem):
            yield from closed(seq)
            return
        c = seq[-1][1]
        for m in sub_multisets(rem):
            s = _slope_sum(m)
            out = (c[0] - s[0], c[1] - s[1])  # balancing at the new vertex
            # a least sequence starts with its least bead, in either direction
            if in_bound(out) and min((m, out), (m, (-c[0], -c[1]))) >= seq[0] and pendants[m]:
                yield from beads(tuple(a - b for a, b in zip(rem, m)), seq + [(m, out)])

    def closed(seq):
        cycle = tuple(c for _m, c in seq)
        # one cycle closes with positive lengths iff -v is in its cone for each v
        if not all(_cone_contains(cycle, (-x, -y)) for x, y in cycle):
            return
        for kids in itertools.product(*(pendants[m] for m, _c in seq)):
            ahead = [(m, c, p) for (m, c), p in zip(seq, kids)]
            # reversed, vertex i leaves along its edge from vertex i - 1
            back = [(m, (-x, -y), p) for (m, _c, p), (x, y) in zip(ahead, cycle[-1:] + cycle)][::-1]
            if all(ahead <= b[r:] + b[:r] for b in (ahead, back) for r in range(len(seq))):
                yield kids, cycle

    if b1 == 1:
        parts = sub_multisets(counts)[:-1]  # all legs at one vertex close no cycle
        # the children a cycle vertex holding legs m can carry
        pendants = {m: list(children(m, sub_multisets(m), cap - 2)) for m in parts}
        box = range(-bound, bound + 1)
        for m, c in itertools.product(parts, itertools.product(box, box)):
            if pendants[m] and c != (0, 0):
                yield from beads(tuple(a - b for a, b in zip(counts, m)), [(m, c)])
        return
    # a centroid vertex: every branch below n/2 legs, hence at least three
    for kids in children(counts, [m for m in sub_multisets(counts) if 2 * sum(m) < n], cap):
        yield (kids,), ()
    # a centroid edge: both sides n/2 legs, taken as an unordered pair
    for m in sub_multisets(counts):
        rest = tuple(a - b for a, b in zip(counts, m))
        if 2 * sum(m) != n or m > rest:
            continue
        if m == rest:
            pairs = itertools.combinations_with_replacement(hung(m), 2)
        else:
            pairs = itertools.product(hung(m), hung(rest))
        for a, b in pairs:
            yield (a + ((rest, b),),), ()


def _core(kids, cycle):
    """The core of a shape of `_shapes`: cycle vertices first, then each
    subtree's vertices depth first; tree edges in that order, then cycle edges."""
    k = len(kids)
    edges = []
    legs = []  # (slope, vertex)

    def place(v, kids):
        for m, sub in kids:
            if not sub:
                legs.append((_CLASS_SLOPES[m.index(1)], v))
                continue
            w = len(edges) + k
            edges.append(Edge(v, w, _slope_sum(m)))
            place(w, sub)

    for v, at_v in enumerate(kids):
        place(v, at_v)
    weights = (0,) * (len(edges) + k)
    edges += [Edge(v, (v + 1) % k, c) for v, c in enumerate(cycle)]
    return CombinatorialType(weights, tuple(edges), tuple(Leg(v, s) for s, v in sorted(legs)))


_CORE_CACHE = {}


def enumerate_cores(d, b1, max_valency=None, slope_bound=None):
    """All weightless cores with nonzero edge slopes, degree d, Betti b1.

    Returns canonical CombinatorialTypes (legs unlabeled within a slope
    class), realizable ones only, sorted by canonical key.  `slope_bound`
    widens the slope alphabet beyond the dual-polygon bound d, for
    falsification tests of the corpus contract.  Betti numbers above 1
    are refused: at d <= 3, the scale `is_general` certifies, the genus
    is at most 1.  Results are memoized per process.
    """
    if b1 > 1:
        raise ScaleRefusal("enumerate_cores is certified for Betti number b1 <= 1 only")
    cache_key = (d, b1, max_valency, slope_bound)
    if cache_key in _CORE_CACHE:
        return _CORE_CACHE[cache_key]
    bound = d if slope_bound is None else slope_bound
    # no cap: a vertex has at most its 3d legs and two cycle edges
    cap = 3 * d + 2 if max_valency is None else max_valency
    cores = [_core(kids, cycle) for kids, cycle in _shapes((d, d, d), bound, cap, b1)]
    cores.sort(key=lambda t: canonical_key(t, labeled="none"))
    _CORE_CACHE[cache_key] = cores
    return cores


# ---------------------------------------------------------------------------
# marked types and fiber scan
# ---------------------------------------------------------------------------


def _split_edge(t, i):
    """Split edge i with a new 2-valent vertex; returns (type, new_vertex).

    The two pieces keep the slope of the original edge; new edge indices
    are len(edges)-1 order-stable: piece one replaces i, piece two appended.
    """
    e = t.edges[i]
    if e.is_loop():
        raise ValueError("cannot split a loop")
    w = t.n_vertices()
    edges = list(t.edges)
    edges[i] = Edge(e.u, w, e.slope)
    edges.append(Edge(w, e.v, e.slope))
    return CombinatorialType(t.weights + (0,), tuple(edges), t.legs), w


def _split_leg(t, j):
    """Turn leg j into edge + leg through a new 2-valent vertex."""
    leg = t.legs[j]
    w = t.n_vertices()
    edges = list(t.edges) + [Edge(leg.vertex, w, leg.slope)]
    legs = list(t.legs)
    legs[j] = Leg(w, leg.slope)
    return CombinatorialType(t.weights + (0,), tuple(edges), tuple(legs)), w


def _attach_mark(t, site):
    """Attach the next contracted leg at a site.

    Contracted legs stay grouped at the front of the leg order; the new
    mark gets index n_marks.
    """
    kind, idx = site
    n = t.n_marks()
    if kind == "vertex":
        host = idx
        base = t
    elif kind == "edge":
        base, host = _split_edge(t, idx)
    else:
        base, host = _split_leg(t, idx)
    legs = list(base.legs)
    legs.insert(n, Leg(host, (0, 0)))
    return CombinatorialType(base.weights, base.edges, tuple(legs))


class _CoreScanner:
    """Incidence search over one core: marks are linearized.

    A mark on an edge contributes the row  q = pos(u) + tau * slope(e)
    with 0 <= tau <= length(e); no edge is split during the search, so
    the constraint system only grows by rows as points are placed.
    Variables: edge lengths (nonneg), one tau per on-edge or on-leg mark
    (nonneg; on-edge taus are bounded by the edge length via a slack).
    The points it is given are integer: `scan_fibers` clears their
    denominators once, so every row it builds holds only ints.
    """

    def __init__(self, core):
        self.core = core
        self.ne = len(core.edges)
        self.coeffs = path_coefficients(core)
        self.cycles = cycle_system(core, self.coeffs)
        # sites: vertices, edges (tau in [0, length]), non-contracted legs
        self.sites = [("vertex", v) for v in range(core.n_vertices())]
        self.sites += [("edge", i) for i in range(self.ne)]
        self.sites += [
            ("leg", j) for j, leg in enumerate(core.legs) if not leg.is_contracted()
        ]

    def _site_pos_terms(self, site, tau_var):
        """(vertex, {var: slope-contribution}) of a point on the site."""
        t = self.core
        kind, idx = site
        if kind == "vertex":
            return idx, {}
        if kind == "edge":
            e = t.edges[idx]
            return e.u, {tau_var: e.slope}
        leg = t.legs[idx]
        return leg.vertex, {tau_var: leg.slope}

    def _pair_generators(self, a, b):
        """Generators of the relaxed displacement cone from site a to b.

        Exact for trees (disjoint free lengths along the path); for
        positive Betti number the cycle equations are dropped, so the
        cone only over-approximates and a confirming LP is needed.
        """
        t = self.core
        ka, va = a
        kb, vb = b
        anchor_a, anchor_b = (self._site_pos_terms(s, None)[0] for s in (a, b))
        diff = path(self.coeffs, anchor_a, anchor_b)
        gens = []
        for j, c in diff.items():
            if c == 0:
                continue
            s = t.edges[j].slope
            gens.append((c * s[0], c * s[1]))
        # a point sliding on an edge already traversed by the path stays
        # within that path generator's span (tau <= length); only edges
        # off the path contribute their own direction
        if ka == "edge" and diff.get(va, 0) == 0:
            s = t.edges[va].slope
            gens.append((-s[0], -s[1]))
        elif ka == "leg":
            s = t.legs[va].slope
            gens.append((-s[0], -s[1]))
        if kb == "edge" and diff.get(vb, 0) == 0:
            gens.append(t.edges[vb].slope)
        elif kb == "leg":
            gens.append(t.legs[vb].slope)
        return [g for g in gens if g != (0, 0)]

    def pair_ok(self, a, b, w):
        """Can a curve place two points on sites a, b with difference
        along the integer vector w?  The two-point system is a cone, so
        the answer is scale-free.  Trees are decided by cross products;
        with cycles the generator test is a sound pre-filter and the
        exact LP confirms."""
        if not _cone_contains(self._pair_generators(a, b), w):
            return False
        return not self.cycles or self.feasible((a, b), ((0, 0), w))

    def pair_table(self, w):
        """(fits, back): fits[a] holds the sites b with pair_ok(a, b, w),
        the sites a later mark may take after a mark on a, and back[b]
        holds the sites a with pair_ok(a, b, w).  Every ordered pair is
        tested once, in site order."""
        fits = {a: set() for a in self.sites}
        back = {b: set() for b in self.sites}
        for a in self.sites:
            for b in self.sites:
                if self.pair_ok(a, b, w):
                    fits[a].add(b)
                    back[b].add(a)
        return fits, back

    def feasible(self, assignment, points):
        """Relaxed feasibility: the chosen sites can hit the chosen integer
        points."""
        rows = list(self.cycles)
        rhs = [0] * len(rows)
        tau_at = self.ne
        terms = []
        slack_rows = []
        for site in assignment:
            if site[0] == "vertex":
                terms.append(self._site_pos_terms(site, None))
            else:
                terms.append(self._site_pos_terms(site, tau_at))
                if site[0] == "edge":
                    slack_rows.append((site[1], tau_at))
                tau_at += 1
        width = tau_at + len(slack_rows)
        slack_at = tau_at
        for edge_idx, tvar in slack_rows:
            rows.append({edge_idx: 1, tvar: -1, slack_at: -1})
            rhs.append(0)
            slack_at += 1
        base_vertex, base_extra = terms[0]
        for i in range(1, len(assignment)):
            vi, extra = terms[i]
            for coord, row in enumerate(xy_rows(self.core, path(self.coeffs, base_vertex, vi))):
                # every mark has its own tau variable, off the edge columns
                for var, slope in extra.items():
                    row[var] = slope[coord]
                for var, slope in base_extra.items():
                    row[var] = -slope[coord]
                rows.append(row)
                rhs.append(points[i][coord] - points[0][coord])
        return feasible_nonneg(rows, rhs, width)


def _scan_order(n):
    """Process extreme points first: far separations kill branches early."""
    lo, hi = 0, n - 1
    order = []
    while lo <= hi:
        order.append(lo)
        if hi != lo:
            order.append(hi)
        lo += 1
        hi -= 1
    return order


def _materialize(core, assignment, order, n):
    """Build the marked types consistent with a full site assignment.

    Marks landing on a common edge or leg can sit in any order along it;
    every order is a distinct combinatorial type, so all are produced and
    the empty-fiber ones are discarded by the caller.
    """
    by_site = {}
    for pos_in_order, site in enumerate(assignment):
        by_site.setdefault(site, []).append(order[pos_in_order])
    groups = []
    site_list = list(by_site)
    for site in site_list:
        marks = by_site[site]
        if site[0] == "vertex" or len(marks) == 1:
            groups.append([tuple(marks)])
        else:
            groups.append(list(itertools.permutations(marks)))
    out = []
    for combo in itertools.product(*groups):
        t = core
        attached = []  # mark indices already carrying legs, any order
        last_piece = {}  # edge site -> edge index of its head-most piece
        ok = True
        for site, seq in zip(site_list, combo):
            for mark in seq:  # rank order along the site
                kind, idx = site
                if kind == "vertex":
                    base, host = t, idx
                elif kind == "edge":
                    target = last_piece.get(site, idx)
                    base, host = _split_edge(t, target)
                    last_piece[site] = len(base.edges) - 1
                else:
                    # contracted legs inserted so far shift the leg indices
                    base, host = _split_leg(t, idx + len(attached))
                insert_pos = sum(1 for m in attached if m < mark)
                legs = list(base.legs)
                legs.insert(insert_pos, Leg(host, (0, 0)))
                try:
                    t = CombinatorialType(base.weights, base.edges, tuple(legs))
                except ValueError:
                    ok = False
                    break
                attached.append(mark)
            if not ok:
                break
        if ok:
            out.append(t)
    return out


def scan_fibers(d, g, cfg: PointConfiguration, cores=None):
    """All marked types over pure cores with a nonempty fiber over cfg.

    Branch-and-prune over mark placements on each Betti-g weightless
    core: points are processed extremes-first and every partial placement
    is tested by an exact LP on the linearized system (lengths plus
    position-along-edge variables).  The points are multiplied once by
    the lcm of their denominators, so the LPs and cone tests run on ints.
    When the points are collinear, a per-core table of the pair tests
    (`_CoreScanner.pair_table`) prunes each placement before its LP.
    Site assignments that survive all points are materialized into marked
    types (one per ordering of marks sharing an edge) and classified
    exactly over cfg itself.

    Types outside the pure corpus reduce onto it: deleting a contracted
    loop or cycle edge, zeroing a weight, or contracting a contracted cut
    edge turns a nonempty fiber of a decorated genus-g type into a
    nonempty fiber of a weightless nonzero-slope type of genus at most g
    with the same marked points (contracted cut edges have free length
    and no position effect; deletions only relax constraints).  Scanning
    every genus g' <= g over the same configuration therefore certifies
    emptiness for all decorated types at once.
    """
    n = len(cfg)
    if cores is None:
        cores = enumerate_cores(d, g)
    order = _scan_order(n)
    # every scan LP is {A x = b, x >= 0} with b a point difference, so
    # scaling the points by L > 0 scales solutions by L: same verdicts
    scale = lcm(*(c.denominator for p in cfg.points for c in p))
    pts = [tuple(c.numerator * (scale // c.denominator) for c in cfg.points[i]) for i in order]
    # exact collinearity unlocks the scale-free pairwise filter
    w = None
    if n >= 2:
        dx = pts[1][0] - pts[0][0]
        dy = pts[1][1] - pts[0][1]
        if all(
            (pts[i][0] - pts[0][0]) * dy == (pts[i][1] - pts[0][1]) * dx for i in range(2, n)
        ):
            w = (dx, dy)
    results = {}
    for core in cores:
        scanner = _CoreScanner(core)
        if w is not None:
            # step 1 would test every ordered pair of sites anyway
            fits, back = scanner.pair_table(w)
        stack = [()]
        for k in range(n):
            # translations absorb one point; for two the pair test is exact
            exact = k == 0 or (k == 1 and w is not None)
            tables = [fits if order[j] < order[k] else back for j in range(k)] if w is not None else []
            nxt = []
            for assignment in stack:
                sites = scanner.sites
                if tables:
                    allowed = set.intersection(*(t[a] for t, a in zip(tables, assignment)))
                    sites = [s for s in sites if s in allowed]
                for site in sites:
                    cand = assignment + (site,)
                    if exact or scanner.feasible(cand, pts[: k + 1]):
                        nxt.append(cand)
            stack = nxt
            if not stack:
                break
        evaluated = set()
        for assignment in stack:
            for t in _materialize(core, assignment, order, n):
                key = canonical_key(t, labeled="contracted")
                if key in evaluated or key in results:
                    continue
                evaluated.add(key)
                fb = fiber(t, cfg)
                if not fb.is_empty():
                    results[key] = (t, fb)
    return [results[k] for k in sorted(results)]
