"""Bounded enumeration of combinatorial types of plane curves.

The corpus of degree-d, genus-g types is produced in two stages:

1.  `enumerate_cores(d, b1)` -- all weightless stable types with every
    edge slope nonzero, degree three copies each of (1,1), (-1,0), (0,-1)
    scaled to d, and first Betti number b1.  Enumeration sweeps the plane:
    orient every edge "north-or-east" (positive y, or zero y and positive
    x).  On a realizable type this orientation is acyclic -- a directed
    cycle would force a nonzero displacement sum -- so every realizable
    type appears among the topological orders the sweep explores.  Slope
    coordinates are bounded by d (the dual-polygon bound: a dual edge of
    the degree-d triangle has both coordinates at most d).

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

from tropcurves.canonical import canonical_key
from tropcurves.cones import is_realizable
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.graphs import CombinatorialType, Edge, Leg, check_balancing, find, is_stable


def _rightward(s):
    return s[1] > 0 or (s[1] == 0 and s[0] > 0)


def _arc_alphabet(d):
    out = []
    for a in range(-d, d + 1):
        for b in range(0, d + 1):
            s = (a, b)
            if s != (0, 0) and _rightward(s):
                out.append(s)
    return sorted(out)


def _vector_partitions(target, alphabet, max_parts):
    """Multisets from `alphabet` (sorted, all with y >= 0) summing to `target`."""
    out = []

    def rec(idx, tx, ty, parts):
        if ty < 0:
            return
        if idx == len(alphabet):
            if tx == 0 and ty == 0:
                out.append(tuple(parts))
            return
        a, b = alphabet[idx]
        rec(idx + 1, tx, ty, parts)
        k = 1
        while len(parts) + k <= max_parts and (b == 0 or k * b <= ty):
            parts.extend([(a, b)] * k)
            rec(idx + 1, tx - a * k, ty - b * k, parts)
            for _ in range(k):
                parts.pop()
            k += 1

    rec(0, target[0], target[1], [])
    return out


class _SweepState:
    __slots__ = (
        "open_arcs",
        "sinks_left",
        "n_vertices",
        "n_edges",
        "parent",
        "cycles",
        "edges",
        "legs",
        "prev_key",
    )

    def __init__(self, d):
        # open arcs: (slope, emitter); emitter -1 = west leg, -2 = south leg
        self.open_arcs = [((1, 0), -1)] * d + [((0, 1), -2)] * d
        self.sinks_left = d
        self.n_vertices = 0
        self.n_edges = 0
        self.parent = []
        self.cycles = 0
        self.edges = []
        self.legs = []
        self.prev_key = None


def _step_key(state, chosen, n_sinks, parts):
    """Order-invariant key of a vertex step, for the greedy-order rule."""
    consumed = tuple(sorted((state.open_arcs[i][0], min(state.open_arcs[i][1], 0)) for i in chosen))
    return (consumed, n_sinks, tuple(sorted(parts)))


def _signature(state, v_max, e_max):
    """Label-independent completability signature, for the sterile cache.

    The greedy-order rule consults the previous step's key and whether an
    arc was emitted by the previous vertex, so both enter the signature;
    without them the cache would poison states whose continuations are
    pruned for ordering rather than combinatorial reasons.
    """
    prev = state.n_vertices - 1
    comp_names = {}
    arcs = []
    for slope, emitter in state.open_arcs:
        if emitter < 0:
            tag = (emitter, 0)
        else:
            root = find(state.parent, emitter)
            tag = (comp_names.setdefault(root, len(comp_names)), 1 if emitter == prev else 0)
        arcs.append((slope, tag))
    return (
        tuple(sorted(arcs)),
        state.sinks_left,
        e_max - state.n_edges,
        v_max - state.n_vertices,
        state.cycles,
        state.prev_key,
    )


_CORE_CACHE = {}


def enumerate_cores(d, b1, max_valency=None, slope_bound=None):
    """All weightless cores with nonzero edge slopes, degree d, Betti b1.

    Returns canonical CombinatorialTypes (legs unlabeled within a slope
    class), realizable ones only.  `slope_bound` widens the arc alphabet
    beyond the dual-polygon bound d, for falsification tests of the
    corpus contract.  Results are memoized per process.
    """
    cache_key = (d, b1, max_valency, slope_bound)
    if cache_key in _CORE_CACHE:
        return _CORE_CACHE[cache_key]
    alphabet = _arc_alphabet(d if slope_bound is None else slope_bound)
    v_max = 3 * d + 2 * b1 - 2
    e_max = 3 * d + 3 * b1 - 3
    seen = {}
    sterile = set()
    partition_cache = {}

    def partitions(target, cap):
        key = (target, cap)
        if key not in partition_cache:
            partition_cache[key] = _vector_partitions(target, alphabet, cap)
        return partition_cache[key]

    def rec(state):
        if not state.open_arcs:
            if state.sinks_left == 0 and state.cycles == b1 and state.n_vertices > 0:
                roots = {find(state.parent, v) for v in range(state.n_vertices)}
                if len(roots) == 1:
                    t = _build_type(state)
                    if t is not None:
                        key = canonical_key(t, labeled="none")
                        if key in seen:
                            return True
                        # a tree of positive lengths always realizes
                        if state.cycles == 0 or is_realizable(t):
                            seen[key] = t
                            return True
            return False
        if state.n_vertices >= v_max:
            return False
        sig = _signature(state, v_max, e_max)
        if sig in sterile:
            return False
        open_internal = sum(1 for a in state.open_arcs if a[1] >= 0)
        # budget window: future vertices must merge all components and
        # close the remaining cycles within the edge and vertex budgets
        comp = len({find(state.parent, v) for v in range(state.n_vertices)})
        slack = comp - 1 + b1 - state.cycles
        v_lo = max(1, open_internal - slack)
        v_hi = min(v_max - state.n_vertices, e_max - state.n_edges - comp + 1 - b1 + state.cycles)
        if v_lo > v_hi:
            sterile.add(sig)
            return False
        produced = False
        classes = {}
        for idx, arc in enumerate(state.open_arcs):
            classes.setdefault(arc, []).append(idx)
        class_list = sorted(classes)
        counts = [len(classes[c]) for c in class_list]
        for take in itertools.product(*[range(c + 1) for c in counts]):
            n_take = sum(take)
            if n_take == 0:
                continue
            chosen = []
            for ci, k in enumerate(take):
                chosen.extend(classes[class_list[ci]][:k])
            if state.cycles == b1:
                # cycle budget exhausted: consumed arcs must come from
                # pairwise distinct components
                comps = []
                clash = False
                for i in chosen:
                    em = state.open_arcs[i][1]
                    root = find(state.parent, em) if em >= 0 else None
                    if root is not None:
                        if root in comps:
                            clash = True
                            break
                        comps.append(root)
                if clash:
                    continue
            sx = sum(state.open_arcs[i][0][0] for i in chosen)
            sy = sum(state.open_arcs[i][0][1] for i in chosen)
            remaining_edges = e_max - state.n_edges - open_internal
            if remaining_edges < 0:
                continue
            prev_in_a = any(state.open_arcs[i][1] == state.n_vertices - 1 for i in chosen)
            for n_sinks in range(0, state.sinks_left + 1):
                tx, ty = sx - n_sinks, sy - n_sinks
                if ty < 0:
                    continue
                for parts in partitions((tx, ty), remaining_edges):
                    val = n_take + n_sinks + len(parts)
                    if val < 3:
                        continue
                    if max_valency is not None and val > max_valency:
                        continue
                    key = _step_key(state, chosen, n_sinks, parts)
                    if (
                        state.prev_key is not None
                        and key < state.prev_key
                        and not prev_in_a
                    ):
                        # this step is independent of the previous one and has
                        # a smaller key: the greedy order does them the other
                        # way around, so this branch is a duplicate
                        continue
                    child = _apply_vertex(state, chosen, n_sinks, parts, b1, key)
                    if child is not None:
                        if rec(child):
                            produced = True
        if not produced:
            sterile.add(sig)
        return produced

    state = _SweepState(d)
    rec(state)
    result = sorted(seen.values(), key=lambda t: canonical_key(t, labeled="none"))
    _CORE_CACHE[cache_key] = result
    return result


def _apply_vertex(state, chosen, n_sinks, parts, b1_budget, key=None):
    v = state.n_vertices
    parent = list(state.parent) + [v]
    cycles = state.cycles
    edges = list(state.edges)
    legs = list(state.legs)
    closed_cycle = False
    for i in chosen:
        slope, emitter = state.open_arcs[i]
        if emitter == -1:
            legs.append((v, (-1, 0)))
        elif emitter == -2:
            legs.append((v, (0, -1)))
        else:
            ru, rv = find(parent, emitter), find(parent, v)
            if ru == rv:
                cycles += 1
                closed_cycle = True
                if cycles > b1_budget:
                    return None
            else:
                parent[ru] = rv
            edges.append((emitter, v, slope))
    for _ in range(n_sinks):
        legs.append((v, (1, 1)))
    child = _SweepState.__new__(_SweepState)
    chosen_set = set(chosen)
    child.open_arcs = [arc for i, arc in enumerate(state.open_arcs) if i not in chosen_set]
    child.open_arcs += [(s, v) for s in parts]
    child.sinks_left = state.sinks_left - n_sinks
    child.n_vertices = v + 1
    child.n_edges = state.n_edges + len([i for i in chosen if state.open_arcs[i][1] >= 0])
    child.parent = parent
    child.cycles = cycles
    child.edges = edges
    child.legs = legs
    child.prev_key = key
    if closed_cycle and not _partial_realizable(child):
        return None
    return child


def _partial_realizable(state):
    """Cycle feasibility of the component just closed by the new vertex.

    A prefix subgraph of a realizable curve is realizable (restrict the
    realization), so this prune is sound.  Only the newest component can
    have gained a cycle.
    """
    parent = state.parent
    root = find(parent, state.n_vertices - 1)
    comp = sorted(v for v in range(state.n_vertices) if find(parent, v) == root)
    renum = {v: i for i, v in enumerate(comp)}
    edges = tuple(
        Edge(renum[u], renum[v], s) for u, v, s in state.edges if find(parent, u) == root
    )
    t = CombinatorialType((0,) * len(comp), edges, ())
    return is_realizable(t)


def _build_type(state):
    weights = (0,) * state.n_vertices
    edges = tuple(Edge(u, v, s) for u, v, s in state.edges)
    legs = tuple(Leg(v, s) for v, s in sorted(state.legs, key=lambda x: (x[1], x[0])))
    t = CombinatorialType(weights, edges, legs)
    if check_balancing(t) is not None:
        return None
    if not is_stable(t):
        return None
    return t


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


def _mark_sites(t):
    """Sites where the next contracted leg can attach.

    Splitting a contracted leg is omitted: the new mark would share its
    point with an existing one, impossible for distinct configurations.
    """
    out = [("vertex", v) for v in range(t.n_vertices())]
    out += [("edge", i) for i in range(len(t.edges))]
    out += [("leg", j) for j in range(len(t.legs)) if not t.legs[j].is_contracted()]
    return out


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


def marked_types(t, n_marks):
    """All ways of attaching n contracted legs to a core."""
    out = [t]
    for _ in range(n_marks):
        nxt = []
        for cur in out:
            for site in _mark_sites(cur):
                nxt.append(_attach_mark(cur, site))
        out = nxt
    return out


class _CoreScanner:
    """Incidence search over one core: marks are linearized.

    A mark on an edge contributes the row  q = pos(u) + tau * slope(e)
    with 0 <= tau <= length(e); no edge is split during the search, so
    the constraint system only grows by rows as points are placed.
    Variables: edge lengths (nonneg), one tau per on-edge or on-leg mark
    (nonneg; on-edge taus are bounded by the edge length via a slack).
    """

    def __init__(self, core):
        from tropcurves.cones import cycle_system, path_coefficients

        self.core = core
        self.ne = len(core.edges)
        self.cycles = [
            {int(k): int(v) for k, v in row.items()} for row in cycle_system(core)
        ]
        self.coeffs = path_coefficients(core)
        # sites: vertices, edges (tau in [0, length]), non-contracted legs
        self.sites = [("vertex", v) for v in range(core.n_vertices())]
        self.sites += [("edge", i) for i in range(self.ne)]
        self.sites += [
            ("leg", j) for j, leg in enumerate(core.legs) if not leg.is_contracted()
        ]
        self._pairs = {}

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
        ka, va = a[0], a[1]
        kb, vb = b[0], b[1]
        anchor_a = va if ka == "vertex" else (t.edges[va].u if ka == "edge" else t.legs[va].vertex)
        anchor_b = vb if kb == "vertex" else (t.edges[vb].u if kb == "edge" else t.legs[vb].vertex)
        gens = []
        diff = dict(self.coeffs[anchor_b])
        for j, c in self.coeffs[anchor_a].items():
            diff[j] = diff.get(j, 0) - c
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

    @staticmethod
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

    def pair_ok(self, a, b, w):
        """Can a curve place two points on sites a, b with difference
        along w?  The two-point system is a cone, so the answer is
        scale-free and cached.  Trees are decided by cross products; with
        cycles the generator test is a sound pre-filter and the exact LP
        confirms."""
        key = (a, b)
        cached = self._pairs.get(key)
        if cached is not None:
            return cached
        gens = self._pair_generators(a, b)
        if not self._cone_contains(gens, w):
            ok = False
        elif not self.cycles:
            ok = True
        else:
            ok = self.feasible((a, b), ((0, 0), w))
        self._pairs[key] = ok
        return ok

    def feasible(self, assignment, points):
        """Relaxed feasibility: the chosen sites can hit the chosen points."""
        from tropcurves.linalg import feasible_nonneg

        t = self.core
        rows = []
        rhs = []
        for row in self.cycles:
            rows.append(row)
            rhs.append(0)
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
            diff = dict(self.coeffs[vi])
            for j, c in self.coeffs[base_vertex].items():
                diff[j] = diff.get(j, 0) - c
            for coord in (0, 1):
                row = {}
                for j, c in diff.items():
                    a = c * self.core.edges[j].slope[coord]
                    if a:
                        row[j] = a
                for var, slope in extra.items():
                    if slope[coord]:
                        row[var] = row.get(var, 0) + slope[coord]
                for var, slope in base_extra.items():
                    if slope[coord]:
                        row[var] = row.get(var, 0) - slope[coord]
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
    position-along-edge variables).  Site assignments that survive all
    points are materialized into marked types (one per ordering of marks
    sharing an edge) and classified exactly.

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
    pts = [cfg.points[i] for i in order]
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
        stack = [()]
        for k in range(n):
            nxt = []
            for assignment in stack:
                for site in scanner.sites:
                    cand = assignment + (site,)
                    if k == 0:
                        nxt.append(cand)  # translations absorb one point
                        continue
                    if w is not None:
                        consistent = True
                        for j in range(k):
                            if order[j] < order[k]:
                                ok = scanner.pair_ok(assignment[j], site, w)
                            else:
                                ok = scanner.pair_ok(site, assignment[j], w)
                            if not ok:
                                consistent = False
                                break
                        if not consistent:
                            continue
                        if k == 1:
                            nxt.append(cand)  # the pair test is exact here
                            continue
                    if scanner.feasible(cand, pts[: k + 1]):
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
