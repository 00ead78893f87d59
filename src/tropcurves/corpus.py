"""Bounded enumeration of combinatorial types of plane curves.

The corpus of degree-d, genus-g types is produced and read in three stages:

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
    so each core comes out once too.

    Slope coordinates are bounded by d (the dual-polygon bound).  An
    edge's slope, weight included, is a dual edge of the Newton
    subdivision of the triangle (0,0), (d,0), (0,d) turned by a right
    angle, and both coordinates of a vector between two points of that
    triangle lie in [-d, d].

2.  `scan_fibers(d, g, cfg)` -- every marked type over a genus-g core
    whose fiber over cfg is nonempty: the placements of len(cfg)
    contracted legs on each core, pruned by planar pair tests
    (`_CoreScanner.pair_table`), walked depth first and, where those
    tests are not exact, settled by one LP on the fiber
    (`_CoreScanner.placements`).  Decorated types reduce onto these
    cores; `scan_fibers` states the reduction.

3.  `is_general(cfg, d, g)` -- no scan below genus g has a hit, and
    every hit at genus g has codimension 2 len(cfg).  Where it answers
    "unknown" instead is stated once, in its own docstring.

Stages 1 and 2 share the core layer's one scale check, `_cores`.

Unrealizable types (empty open cone) are dropped everywhere: they bound
no stratum of the moduli space.
"""

from __future__ import annotations

import itertools
from math import gcd

from tropcurves.canonical import canonical_key
from tropcurves.cones import fiber_rows, path_coefficients
from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.graphs import CombinatorialType, Edge, Leg
from tropcurves.linalg import feasible_nonneg

_CLASS_SLOPES = ((1, 1), (-1, 0), (0, -1))

# the cores' certified scale, which bounds all three stages
MAX_DEGREE = 3
MAX_BETTI = 1


def _cone_contains(gens, w):
    """Exact 2D test: is w a nonnegative combination of the generators?
    w = 0 always is; any other w takes one O(n) fold into (ahead, left,
    right): whether a generator is a positive multiple of w, and the ones
    nearest w counterclockwise and clockwise of it.  w is inside when one
    is ahead, or the nearest on either side span less than a half-turn
    through w, det(left, right) < 0."""
    if w == (0, 0):
        return True
    ahead, left, right = False, None, None
    wx, wy = w
    for g in gens:
        gx, gy = g
        side = wx * gy - wy * gx
        if side > 0:
            if left is None or gx * left[1] - gy * left[0] > 0:
                left = g
        elif side < 0:
            if right is None or right[0] * gy - right[1] * gx > 0:
                right = g
        elif gx * wx + gy * wy > 0:
            ahead = True
    return ahead or (left is not None and right is not None and left[0] * right[1] < left[1] * right[0])


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


def enumerate_cores(d, b1, max_valency=None):
    """All weightless cores with nonzero edge slopes, degree d, Betti b1.

    Returns the generated cores, one CombinatorialType per isomorphism
    class (legs unlabeled within a slope class), realizable ones only,
    sorted by canonical key; a core is not relabeled to its canonical
    form.  d and b1 are checked by `_cores`.
    """
    return sorted(_cores(d, b1, max_valency), key=lambda t: canonical_key(t, labeled="none"))


def _cores(d, b1, max_valency=None):
    """The cores of `enumerate_cores` as an iterator, in the order they are
    generated, after the core layer's one (d, b1) check, made at the call:
    a degree below 1 or a negative b1 is a ValueError, and a degree past
    MAX_DEGREE or a Betti number past MAX_BETTI is refused."""
    if d < 1:
        raise ValueError(f"degree d must be at least 1, got {d}")
    if b1 < 0:
        raise ValueError(f"Betti number b1 must be non-negative, got {b1}")
    if d > MAX_DEGREE or b1 > MAX_BETTI:
        raise ScaleRefusal(f"the core layer is certified for d <= {MAX_DEGREE} and b1 <= {MAX_BETTI} only")
    # no cap: a vertex has at most its 3d legs and two cycle edges
    cap = 3 * d + 2 if max_valency is None else max_valency
    return (_core(kids, cycle) for kids, cycle in _shapes((d, d, d), d, cap, b1))


# ---------------------------------------------------------------------------
# marked types and fiber scan
# ---------------------------------------------------------------------------


class _CoreScanner:
    """Incidence search over one core: its sites, the tree walks its
    pair tables (`pair_table`) read, and the placement walk
    (`placements`)."""

    def __init__(self, core):
        self.core = core
        self.coeffs = path_coefficients(core)
        edges, nv = core.edges, core.n_vertices()
        # sites: vertices, edges and non-contracted legs, a mark anywhere along one;
        # anchor -> its sites past its own vertex (index, edge slid on, slope, minus
        # slope): an edge from its tail, a leg from its root with edge -1, the first
        # of no path
        self.sites = [("vertex", v) for v in range(nv)]
        self.at = [[] for _ in range(nv)]
        self.every = [1 << v for v in range(nv)]  # each anchor's sites as a mask
        for kind, pieces in (("edge", edges), ("leg", core.legs)):
            for idx, piece in enumerate(pieces):
                x, y = s = piece.slope
                if kind == "edge" or x or y:
                    i, u = len(self.sites), piece[0]
                    self.at[u].append((i, idx if kind == "edge" else -1, s, (-x, -y)))
                    self.every[u] |= 1 << i
                    self.sites.append((kind, idx))
        # the tree path_coefficients runs along, walked breadth first from each
        # anchor u: each vertex v with its parent's place (from 1), its step,
        # the path's first and last edge, and the last one's site bit if at v
        tree = [[] for _ in range(nv)]
        for j in (next(reversed(c)) for c in self.coeffs[1:]):  # each vertex's own tree edge
            x, y, (sx, sy) = edges[j]
            tree[x].append((y, j, (sx, sy), 0))
            tree[y].append((x, j, (-sx, -sy), 1 << nv + j))
        self.walks = [[(u, 0, (0, 0), None, None, 0)] for u in range(nv)]
        for walk in self.walks:
            for p, (x, _p, _s, first, last, _skip) in enumerate(walk, 1):
                for y, j, step, skip in tree[x]:
                    if j != last:
                        walk.append((y, p, step, first if p > 1 else j, j, skip))

    def pair_table(self, w):
        """(fits, back), lists of site masks indexed by site: bit b of
        fits[a] is set when the displacement cone from site a to site b
        contains w, so a later mark may take b after a mark on a when its
        point lies ahead along w; bit a of back[b] is set by the same
        test, so a later mark may take a after a mark on b when its point
        lies behind.  Sites are numbered by their index in `sites`.  The
        two-point system is a cone, so the test is scale-free.

        The cone from a to b is generated by the path between the vertices
        the two points are measured from, their anchors, each path edge's
        slope times its coefficient, plus the direction each site adds: a
        leg's slope, or an edge's when the path does not traverse it (a
        point sliding on a traversed edge stays within that path
        generator's span, tau <= length).  It is exact for trees, whose
        path lengths are free; with cycles the cycle equations are
        dropped, so the cone only over-approximates, and the placement
        LPs, which carry the cycle rows, decide.

        Each site's slope is classified against w once per table.  One
        walk of the tree from each anchor u folds one step per vertex v
        inline, as `_cone_contains` folds a list, into (ahead, left,
        right): whether a generator is a positive multiple of w, and the
        ones nearest w on either side; its first and last edge say
        whether it traverses a's edge or b's.  A site a at u adds its own
        generator, minus its slope, to that; the cone holds w when one is
        ahead or left x right < 0.  Otherwise a site b at v closes it with
        one cross product: ahead of w, left with b x right < 0, or right
        with left x b < 0 (a generator past the nearest on its side cannot
        close a gap the nearest leaves open)."""
        wx, wy = w
        # per anchor: its sites along w as a mask, those off w's line as (bit,
        # slope, left of w), and each site's own generator, minus its slope,
        # folded alone: (index, edge, ahead, left, right); a vertex adds none
        along, sides, leaving = [], [], []
        for u, at in enumerate(self.at):
            m, off, own = 0, [], [(u, None, False, None, None)]
            for i, e, s, neg in at:
                x, y = s
                side = wx * y - wy * x
                if side > 0:
                    off.append((1 << i, s, True))
                    own.append((i, e, False, None, neg))
                elif side < 0:
                    off.append((1 << i, s, False))
                    own.append((i, e, False, neg, None))
                else:
                    dot = wx * x + wy * y
                    m |= (dot > 0) << i
                    own.append((i, e, dot < 0, None, None))
            along.append(m)
            sides.append(off)
            leaving.append(own)
        every = self.every
        fits = [0] * len(self.sites)
        for u, walk in enumerate(self.walks):
            folded = [(False, None, None)]  # the empty path, then u -> v for each v walked
            for v, p, step, first, _last, skip in walk:
                ahead, left, right = folded[p]
                sx, sy = step
                side = wx * sy - wy * sx
                if side > 0:
                    if left is None or sx * left[1] - sy * left[0] > 0:
                        left = step
                elif side < 0:
                    if right is None or right[0] * sy - right[1] * sx > 0:
                        right = step
                elif sx * wx + sy * wy > 0:
                    ahead = True
                folded.append((ahead, left, right))
                for a, ea, a_ahead, a_left, a_right in leaving[u]:
                    l, r = left, right
                    if ea != first:  # the path does not traverse a's edge
                        if a_left and (l is None or a_left[0] * l[1] - a_left[1] * l[0] > 0):
                            l = a_left
                        elif a_right and (r is None or r[0] * a_right[1] - r[1] * a_right[0] > 0):
                            r = a_right
                        elif a_ahead:
                            fits[a] |= every[v]
                            continue
                    if ahead or (l and r and l[0] * r[1] < l[1] * r[0]):
                        fits[a] |= every[v]
                        continue
                    m = along[v]
                    for bit, (x, y), is_left in sides[v]:
                        if (r and x * r[1] < y * r[0]) if is_left else (l and l[0] * y < l[1] * x):
                            m |= bit
                    fits[a] |= m & ~skip
        back = [0] * len(fits)
        for a, row in enumerate(fits):
            while row:
                low = row & -row
                back[low.bit_length() - 1] |= 1 << a
                row ^= low
        return fits, back

    def placements(self, points):
        """Every site assignment of the points that passes all tests, in
        lexicographic order of site indices.

        The walk is depth first, in site order, and carries the domains of
        the marks not yet placed, the sites each may still take, in one
        int: mark k + m's is field m, a bit per site under a zero guard.
        When mark k takes site i, each later mark keeps the sites row i of
        the pair table of the direction from points[k] to its point allows:
        one AND with col[i], those rows packed alike.  The site is dropped
        if some later mark has none left (forward checking): adding
        2^len(sites) - 1 to a field carries into its guard iff it is
        nonzero.  A domain's sites are visited lowest bit first, in site
        order.  Depth k works out its directions and packs its rows on its
        first visit, each table built when first needed, so a depth never
        reached builds none.

        Before the walk, one chain pass narrows the domains: with the marks
        sorted by their points' (x, y), each consecutive pair whose
        direction is one of depth 0's tables passes the earlier mark's
        domain forward through the fits rows, then, in reverse, the later
        mark's back through the back rows.  A placement that passes every
        pair test passes these links, so the walk starts from the narrowed
        domains and yields the same placements; a core where one empties
        is refuted before any walk node.  Depth 0's tables are the ones the
        walk fetches first, so the pass builds no other.

        Only a complete placement asks for an LP, and only when some
        prefix needs one: from its third mark on, or from its second on a
        core with a cycle, whose rows the pair test only relaxes;
        translations absorb the first point.  The LP asks whether the
        fiber of the placement's marked type is nonempty.  A piece of a
        split edge or leg has nonnegative length exactly when the marks
        on it lie in the order `_materialize` gives them, and forgetting
        the later marks maps that fiber into the fiber of each prefix, so
        this one LP decides as an LP at every prefix would.
        """
        n = len(points)
        sites = self.sites
        first = 1 if self.core.first_betti() else 2  # the first mark whose prefix needs an LP
        tables = {}  # primitive direction -> its pair table
        width = len(sites) + 1
        full = (1 << width - 1) - 1  # a field's sites
        # depth k -> each table half (direction, side) it reads -> a 1 in the field of each mark reading it
        fields = [{} for _ in range(n)]
        cols = [None] * n  # depth k -> (col, full * ones, guards) once visited

        def fetch(k):
            for j in range(k + 1, n):
                half = _direction(points[k], points[j])
                fields[k][half] = fields[k].get(half, 0) | 1 << (j - k - 1) * width
            tables.update((w, self.pair_table(w)) for w, _side in fields[k] if w not in tables)

        doms = [full] * n
        if n:
            fetch(0)  # depth 0's tables, the walk's first
            chain = sorted(range(n), key=points.__getitem__)
            # (x, y) order makes each link's later point lie ahead of its earlier one
            links = [(a, b, tables.get(_direction(points[a], points[b])[0])) for a, b in zip(chain, chain[1:])]
            links = [link for link in links if link[2]]
            for a, b, (fits, _back) in links:
                doms[b] &= _reach(fits, doms[a])
            for a, b, (_fits, back) in reversed(links):
                doms[a] &= _reach(back, doms[b])
            if not all(doms):
                return

        def feasible(assignment):
            """Is the fiber of the assignment's marked type nonempty?"""
            t = _materialize(self.core, assignment, range(n), points)
            return feasible_nonneg(*fiber_rows(t, points)[:2], len(t.edges))

        def place(assignment, domains):
            k = len(assignment)
            if k == n:
                if n <= first or feasible(assignment):
                    yield assignment
                return
            if cols[k] is None:
                if k:
                    fetch(k)
                col, ones = [0] * len(sites), sum(fields[k].values())  # ones: a 1 in each later field
                for (w, side), marks in fields[k].items():
                    col = [c | h * marks for c, h in zip(col, tables[w][side])]
                cols[k] = col, full * ones, ones << width - 1
            col, fill, guards = cols[k]
            dom, rest = domains & full, domains >> width
            while dom:
                low = dom & -dom
                i = low.bit_length() - 1
                # the domains of marks k + 1, ..., n - 1 once mark k is on site i
                later = rest & col[i]
                if (later + fill) & guards == guards:
                    yield from place(assignment + (sites[i],), later)
                dom ^= low

        yield from place((), sum(dom << m * width for m, dom in enumerate(doms)))


def _reach(rows, dom):
    """The union of rows[i] over the bits i set in dom."""
    out = 0
    while dom:
        low = dom & -dom
        out |= rows[low.bit_length() - 1]
        dom ^= low
    return out


def _direction(p, q):
    """(w, side): the primitive vector w parallel to q - p whose first
    nonzero coordinate is positive, and the half of w's pair table that
    lists the sites of a mark on q after a mark on p: 0 (fits) when q - p
    is a positive multiple of w, else 1 (back)."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    g = gcd(dx, dy) if (dx, dy) > (0, 0) else -gcd(dx, dy)
    return (dx // g, dy // g), int(g < 0)


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


def _materialize(t, assignment, order, points):
    """The marked type of t with mark order[k], at points[k], on site
    assignment[k], built in one pass.

    A mark at tau along an edge or a leg of slope s lies at pos + tau * s,
    so the marks sharing one take the order of their points' projections
    on s, the only order whose fiber can be nonempty.  Sites are split in
    order of first appearance, each new 2-valent vertex numbered next: an
    edge keeps its index for the piece at its tail and appends the head
    piece, a leg appends the piece up to the new vertex and moves to it.
    The new contracted legs follow t's own marks, in mark order.
    """
    by_site = {}
    for k, site in enumerate(assignment):
        by_site.setdefault(site, []).append(k)
    edges, legs = list(t.edges), list(t.legs)
    nv = t.n_vertices()
    hosts = {}  # mark -> the vertex carrying it
    for (kind, idx), ks in by_site.items():
        if kind == "vertex":
            hosts.update((order[k], idx) for k in ks)
            continue
        s = (edges if kind == "edge" else legs)[idx].slope
        head = idx
        for k in sorted(ks, key=lambda k: points[k][0] * s[0] + points[k][1] * s[1]):
            hosts[order[k]] = nv
            if kind == "edge":
                e = edges[head]
                edges[head] = Edge(e.u, nv, s)
                edges.append(Edge(nv, e.v, s))
                head = len(edges) - 1
            else:
                edges.append(Edge(legs[idx].vertex, nv, s))
                legs[idx] = Leg(nv, s)
            nv += 1
    m = t.n_marks()
    legs[m:m] = [Leg(hosts[i], (0, 0)) for i in sorted(hosts)]
    return CombinatorialType(t.weights + (0,) * (nv - t.n_vertices()), tuple(edges), tuple(legs))


def _attach_mark(t, site):
    """Attach the next contracted leg, index t.n_marks(), at a site."""
    return _materialize(t, (site,), (0,), ((0, 0),))


def scan_fibers(d, g, cfg: PointConfiguration, cores=None):
    """All marked types over pure cores with a nonempty fiber over cfg.

    Returns (t, fiber(t, cfg)) for each marked type t over a weightless
    core of Betti number g and degree d (or over `cores`, when given)
    whose fiber over cfg is nonempty, its marks in cfg's order, each
    once and sorted by its canonical key (labeled="contracted").  No two
    cores share a hit key, since forgetting a hit's marks gives back its
    core, so without `cores` the cores are read as they are generated,
    one at a time.  Every marked type left out has an empty fiber.  The
    scan runs on `cfg.cleared`, the points times the lcm of their
    denominators: its LPs are {A x = b, x >= 0} with b a point
    difference, so scaling the points changes no verdict.  Without
    `cores`, d and g are checked by `_cores`.

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
        cores = _cores(d, g)
    order = _scan_order(n)
    _scale, pts = cfg.cleared
    pts = [pts[i] for i in order]
    results = {}
    for core in cores:
        scanner = _CoreScanner(core)
        for assignment in scanner.placements(pts):
            t = _materialize(core, assignment, order, pts)
            key = canonical_key(t, labeled="contracted")
            if key not in results:
                results[key] = (t, fiber(t, cfg))
    return [results[k] for k in sorted(results)]


def is_general(cfg, d, g):
    """Decide general position of ``cfg`` relative to the enumerated corpus.

    True iff for every combinatorial type in the corpus of degree-d
    genus-g types with len(cfg) contracted legs, the evaluation fiber has
    codimension 2n in the closed cone or is empty.  cfg is a
    `PointConfiguration`, anything else with `points` (a
    `StretchedConfig`), or a sequence of points.  The corpus bound is a
    design contract (slope coordinates at most d).

    The verdict is "unknown", before any scan and never a silent False,
    when d > MAX_DEGREE or g > MAX_BETTI, where the scans refuse, and at
    the corner (d, g) = (MAX_DEGREE, MAX_BETTI), where they answer but
    are not certified.
    """
    if not isinstance(cfg, PointConfiguration):
        pts = tuple(tuple(p) for p in getattr(cfg, "points", cfg))
        if len(set(pts)) != len(pts):
            return False  # a repeated point is never general
        cfg = PointConfiguration(pts)
    if d > MAX_DEGREE or g > MAX_BETTI or (d, g) == (MAX_DEGREE, MAX_BETTI):
        return "unknown"
    n = len(cfg)
    # genus g' < g: decorated genus-g types reduce to these scans; any
    # placement at a lower genus is an overdetermined coincidence and
    # already breaks generality
    if any(scan_fibers(d, g2, cfg) for g2 in range(g)):
        return False
    return all(fb.codimension() == 2 * n for _t, fb in scan_fibers(d, g, cfg))
