"""Hand-built curve types and helpers shared across the test suite.

The two cubics are written out floor by floor: a smooth genus-1 cubic
(two elevators of weight one between the bottom floors making the cycle)
and a genus-0 cubic with a weight-2 elevator.  Both are weightless,
3-valent, balanced, of degree three copies each of (1,1), (-1,0), (0,-1).
"""

import itertools
from fractions import Fraction

import tropcurves.corpus
from tropcurves.evaluation import PointConfiguration
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
