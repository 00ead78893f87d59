"""Hand-built curve types, helpers and checks shared across the test suite.

The two cubics are written out floor by floor: a smooth genus-1 cubic
(two elevators of weight one between the bottom floors making the cycle)
and a genus-0 cubic with a weight-2 elevator.  Both are weightless,
3-valent, balanced, of degree three copies each of (1,1), (-1,0), (0,-1).

The checks at the end are predicates the tests assert: genus, stability,
immersion, the genericity verdict on one fiber, and the brute-force
automorphism count that `canonical.aut_order` is compared with.  That
oracle and `relabel` share no code with `tropcurves.canonical`.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import tropcurves.corpus
from tropcurves.evaluation import PointConfiguration, fiber
from tropcurves.floors import StretchedConfig
from tropcurves.graphs import CombinatorialType, Edge, Leg, ParametrizedCurve
from tropcurves.walk import start_walk

F = Fraction

# four fractional points, not collinear
FRACTIONAL_POINTS = ((F(1, 2), F(1, 3)), (F(-7, 5), F(2)), (F(3), F(-5, 4)), (F(11, 6), F(13, 7)))
# four points whose degree-2 scan has fibers with edge lengths forced to zero
FORCED_ZERO_POINTS = ((-2, -1), (1, 0), (1, 1), (2, 1))


def affine_image(points):
    """The points mapped by p -> p/6 + (1/2, -1/3): denominators 2, 3 and 6."""
    return PointConfiguration(tuple((x / 6 + F(1, 2), y / 6 - F(1, 3)) for x, y in points))


def start_stratum(g):
    """(type, fixed points) of the start stratum of the d = 3 walk of genus g, seed 0."""
    state = start_walk(3, g)
    return state.ctype, state.fixed


def balanced_type():
    """A weight-1 vertex with a zero-slope loop, joined to a second vertex
    by two parallel edges: the loop flip and the edge swap give order 4."""
    return CombinatorialType(
        weights=(1, 0),
        edges=(Edge(0, 0), Edge(0, 1, (1, 0)), Edge(0, 1, (1, 0))),
        legs=(Leg(0, (-1, 1)), Leg(0, (-1, -1)), Leg(1, (1, 1)), Leg(1, (1, -1))),
    )


def count_lps(monkeypatch):
    """A list that grows by one for each call the scan makes to the LP kernel."""
    calls = []
    kernel = tropcurves.corpus.feasible_nonneg

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(tropcurves.corpus, "feasible_nonneg", counted)
    return calls


def reference_cone_contains(gens, w):
    """Is w a nonnegative combination of the planar generators?  O(n^2):
    w = 0, w a positive multiple of one generator, or w in the closed
    cone of some two independent generators, solved by Cramer's rule."""
    wx, wy = w
    if wx == 0 and wy == 0:
        return True
    for gx, gy in gens:
        if gx * wy - gy * wx == 0 and gx * wx + gy * wy > 0:
            return True
    for gi, gj in itertools.combinations(gens, 2):
        det = gi[0] * gj[1] - gi[1] * gj[0]
        if det == 0:
            continue
        x = wx * gj[1] - wy * gj[0]
        y = gi[0] * wy - gi[1] * wx
        if det < 0:
            x, y = -x, -y
        if x >= 0 and y >= 0:
            return True
    return False


def shifted(cfg, shift):
    """A stretched configuration with the x of point k moved by shift(k),
    off its line, at half its stretch."""
    pts = tuple((x + shift(k), y) for k, (x, y) in enumerate(cfg.points))
    return StretchedConfig(PointConfiguration(pts), stretch=cfg.stretch / 2)


def tropical_line(n_marks=0):
    legs = tuple(Leg(0) for _ in range(n_marks)) + (
        Leg(0, (1, 1)),
        Leg(0, (-1, 0)),
        Leg(0, (0, -1)),
    )
    return CombinatorialType(weights=(0,), edges=(), legs=legs)


def smooth_cubic_type():
    """Genus-1 weightless 3-valent cubic: floors F3/F2/F1, elevators
    F3->F2 of weight 1 and a doubled F2->F1 of weight 1 (the cycle)."""
    # vertices: 0 = T (top floor), 1..3 = P, Qb, Qc (middle floor, left to
    # right), 4..8 = bottom floor chain (legL, R1, legM, R2, legR)
    edges = (
        Edge(0, 1, (0, -1)),  # elevator F3 -> F2 at P
        Edge(1, 2, (1, -1)),  # middle floor P -> Qb
        Edge(2, 3, (1, 0)),  # middle floor Qb -> Qc
        Edge(2, 5, (0, -1)),  # elevator Qb -> R1
        Edge(3, 7, (0, -1)),  # elevator Qc -> R2
        Edge(4, 5, (1, 1)),  # bottom floor legL -> R1
        Edge(5, 6, (1, 0)),  # bottom floor R1 -> legM
        Edge(6, 7, (1, 1)),  # bottom floor legM -> R2
        Edge(7, 8, (1, 0)),  # bottom floor R2 -> legR
    )
    legs = (
        Leg(0, (-1, 0)),
        Leg(0, (1, 1)),
        Leg(1, (-1, 0)),
        Leg(3, (1, 1)),
        Leg(4, (-1, 0)),
        Leg(4, (0, -1)),
        Leg(6, (0, -1)),
        Leg(8, (0, -1)),
        Leg(8, (1, 1)),
    )
    return CombinatorialType(weights=(0,) * 9, edges=edges, legs=legs)


def nodal_cubic_type():
    """Genus-0 weightless 3-valent cubic with a weight-2 elevator."""
    # vertices: 0 = T; 1 = P (elevator arrival on F2), 2 = Q (weight-2
    # departure); bottom floor: 3 = legL, 4 = R (weight-2 arrival),
    # 5 = legM, 6 = legR
    edges = (
        Edge(0, 1, (0, -1)),  # F3 -> F2, weight 1
        Edge(1, 2, (1, -1)),  # middle floor P -> Q
        Edge(2, 4, (0, -2)),  # weight-2 elevator Q -> R
        Edge(3, 4, (1, 1)),  # bottom floor legL -> R
        Edge(4, 5, (1, -1)),  # bottom floor R -> legM
        Edge(5, 6, (1, 0)),  # bottom floor legM -> legR
    )
    legs = (
        Leg(0, (-1, 0)),
        Leg(0, (1, 1)),
        Leg(1, (-1, 0)),
        Leg(2, (1, 1)),
        Leg(3, (-1, 0)),
        Leg(3, (0, -1)),
        Leg(5, (0, -1)),
        Leg(6, (0, -1)),
        Leg(6, (1, 1)),
    )
    return CombinatorialType(weights=(0,) * 7, edges=edges, legs=legs)


def smooth_cubic_curve():
    """An explicit parametrized curve of the smooth cubic type."""
    t = smooth_cubic_type()
    positions = (
        (F(2), F(20)),  # T
        (F(2), F(10)),  # P
        (F(4), F(8)),  # Qb
        (F(6), F(8)),  # Qc
        (F(3), F(-1)),  # legL vertex
        (F(4), F(0)),  # R1
        (F(5), F(0)),  # legM vertex
        (F(6), F(1)),  # R2
        (F(7), F(1)),  # legR vertex
    )
    lengths = (F(10), F(2), F(2), F(8), F(7), F(1), F(1), F(1), F(1))
    return ParametrizedCurve(t, lengths=lengths, positions=positions)


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def genus(g):
    """1 - chi + sum of vertex weights, for a connected graph or type:
    chi = |V| - |E|."""
    return 1 - (g.n_vertices() - len(g.edges)) + sum(g.weights)


def is_stable(g):
    """Weight-0 vertices need valency >= 3; weight-1 vertices need >= 1.
    A vertex's valency counts its edge ends (two for a loop) and its legs,
    which a `TropicalGraph` lists as vertex indices and a type as `Leg`s."""
    valency = Counter(end for e in g.edges for end in e[:2])
    valency.update(leg if isinstance(leg, int) else leg.vertex for leg in g.legs)
    return all(valency[v] >= {0: 3, 1: 1}.get(w, 0) for v, w in enumerate(g.weights))


def is_immersed(t):
    """No contracted edge, and no two germs at a vertex pointing the
    same way (the map is locally injective away from contracted legs)."""
    if any(e.slope == (0, 0) for e in t.edges):
        return False
    for star in t.stars():
        germs = [s for s, _ in star if s != (0, 0)]
        for a, b in itertools.combinations(germs, 2):
            if det2(a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0:
                return False
    return True


def genericity_conclusion(t, cfg):
    """When the fiber is nonempty, the underlying graph must be 3-valent
    and weightless with all non-leg slopes nonzero; returns the verdict."""
    if fiber(t, cfg).is_empty():
        return True
    if not t.is_weightless():
        return False
    if any(len(star) != 3 for star in t.stars()):
        return False
    return all(e.slope != (0, 0) for e in t.edges)


def relabel(t, label):
    """The type with vertex v renumbered label[v], its edges and legs in
    their order and orientation."""
    weights = [0] * len(label)
    for v, w in enumerate(t.weights):
        weights[label[v]] = w
    edges = tuple(Edge(label[e.u], label[e.v], e.slope) for e in t.edges)
    return CombinatorialType(tuple(weights), edges, tuple(Leg(label[leg.vertex], leg.slope) for leg in t.legs))


def brute_force_aut_order(t):
    """Independent oracle for `aut_order`: every vertex bijection that keeps
    the weights, each ordered leg's vertex and the multiset of edges (each
    keyed by its ends in ascending order, its slope read that way), times
    2 for each loop and mult! for each edge key of multiplicity mult."""
    n = t.n_vertices()

    def edge_multiset(perm):
        out = Counter()
        for u, v, (sx, sy) in t.edges:
            a, b = perm[u], perm[v]
            out[(a, b, sx, sy) if a <= b else (b, a, -sx, -sy)] += 1
        return out

    base_edges = edge_multiset(range(n))
    count = 0
    for perm in itertools.permutations(range(n)):
        if any(t.weights[perm[v]] != t.weights[v] for v in range(n)):
            continue
        if any(perm[leg.vertex] != leg.vertex for leg in t.legs):
            continue
        if edge_multiset(perm) == base_edges:
            count += 1
    result = count * 2 ** sum(1 for e in t.edges if e.u == e.v)
    for mult in base_edges.values():
        result *= factorial(mult)
    return result
