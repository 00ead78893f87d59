"""Canonical labeling and automorphism orders for combinatorial types.

Vertices are renumbered by individualization-refinement (McKay and
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
2014).  The first coloring ranks each vertex's (weight, valency); a
refinement round ranks each vertex's (color, sorted (germ slope,
neighbor color) pairs, sorted leg tags), and refinement stops at the
first round that splits no cell or leaves every vertex its own.  A
coloring that is not discrete individualizes each vertex of its least
non-singleton cell in turn, and a discrete coloring is its own labeling.
Each leg's tag, and each vertex's sorted tuple of them, is computed once
per call.

The canonical encoding makes type equality a tuple comparison, and the
number of leaf labelings that achieve the minimal encoding equals the
number of vertex automorphisms.  `Aut` of a type also permutes
indistinguishable parallel edges and flips loops, so the order returned
by `aut_order` is

    (#achieving vertex labelings) * prod(multiplicity! over parallel
    classes) * 2^(#loops).
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from tropcurves.graphs import CombinatorialType, vneg


def _ranks(values):
    """Each value's rank among the distinct values, and their number."""
    rank = {s: i for i, s in enumerate(sorted(set(values)))}
    return [rank[s] for s in values], len(rank)


def _labelings(t: CombinatorialType, tags):
    """All discrete colorings reachable by individualization-refinement,
    in search order, each the labeling it gives.  tags[j] is leg j's tag."""
    n = t.n_vertices()
    germs = [[] for _ in range(n)]  # (slope, neighbor) of each edge germ
    legtags = [[] for _ in range(n)]
    for e in t.edges:
        germs[e.u].append((e.slope, e.v))
        germs[e.v].append((vneg(e.slope), e.u))
    for leg, tag in zip(t.legs, tags):
        legtags[leg.vertex].append(tag)
    colors, cells = _ranks([(w, len(g) + len(lt)) for w, g, lt in zip(t.weights, germs, legtags)])
    legtags = [tuple(sorted(lt)) for lt in legtags]
    out = []
    stack = [(colors, cells)]  # (coloring, its number of cells), searched depth first
    while stack:
        colors, cells = stack.pop()
        # a round only splits cells, as each key starts with the vertex's
        # color, and the first round that splits none ends the refinement,
        # as does one that leaves every vertex its own cell: its ranks are
        # its colors, which no later round moves
        while True:
            sigs = [(c, tuple(sorted([(s, colors[w]) for s, w in g])), lt) for c, g, lt in zip(colors, germs, legtags)]
            colors, split = _ranks(sigs)
            if split == cells or split == n:
                break
            cells = split
        if split == n:
            out.append(colors)
            continue
        size = [0] * n
        for c in colors:
            size[c] += 1
        target = next(c for c, k in enumerate(size) if k > 1)
        for v in reversed([v for v, c in enumerate(colors) if c == target]):
            branched = [2 * c for c in colors]
            branched[v] -= 1
            stack.append((branched, cells + 1))
    return out


def _encode(t: CombinatorialType, label, tags, labeled):
    weights = list(t.weights)
    for v, a in enumerate(label):
        weights[a] = t.weights[v]
    edge_keys = []
    for e in t.edges:
        a, b = label[e.u], label[e.v]
        edge_keys.append((a, b, e.slope) if a <= b else (b, a, vneg(e.slope)))
    legs = [(tag, label[leg.vertex]) for leg, tag in zip(t.legs, tags)]
    if labeled != "all":
        legs.sort()
    return (tuple(weights), tuple(sorted(edge_keys)), tuple(legs))


def canonical_form(t: CombinatorialType, labeled="all"):
    """(minimal encoding, one relabeling achieving it, #achieving labelings).

    labeled="all" tags leg j by (j, slope); "contracted" pins only the
    contracted legs to their index, and "none" none, so that the other
    legs are interchangeable within a slope class: tag (-1, slope)."""
    tags = [
        (j if labeled == "all" or labeled == "contracted" and leg.is_contracted() else -1, leg.slope)
        for j, leg in enumerate(t.legs)
    ]
    best, best_label, count = None, None, 0
    for label in _labelings(t, tags):
        enc = _encode(t, label, tags, labeled)
        if best is None or enc < best:
            best = enc
            best_label = label
            count = 1
        elif enc == best:
            count += 1
    return best, best_label, count


def canonical_key(t: CombinatorialType, labeled="all"):
    return canonical_form(t, labeled)[0]


def aut_order(t: CombinatorialType):
    """Order of the automorphism group respecting leg order, weights, slopes:
    the achieving labelings, times 2 for each loop (a key (a, a, slope)),
    times mult! for each edge key of multiplicity mult."""
    (_weights, edge_keys, _legs), _label, vertex_count = canonical_form(t)
    order = vertex_count * 2 ** sum(1 for a, b, _s in edge_keys if a == b)
    for mult in Counter(edge_keys).values():
        order *= factorial(mult)
    return order
