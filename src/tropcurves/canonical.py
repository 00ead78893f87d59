"""Canonical labeling and automorphism orders for combinatorial types.

Vertices are renumbered by iterative refinement of a coloring (weight,
valency, incident leg indices and germ slopes), with individualization
and backtracking on ties.  The canonical encoding makes type equality a
tuple comparison, and the number of leaf labelings that achieve the
minimal encoding equals the number of vertex automorphisms.

`Aut` of a type also permutes indistinguishable parallel edges and flips
loops, so the order returned by `aut_order` is

    (#achieving vertex labelings) * prod(multiplicity! over parallel
    classes) * 2^(#loops).
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from tropcurves.graphs import CombinatorialType, vneg


def _leg_tag(j, leg, labeled):
    if labeled == "all":
        return (j, leg.slope)
    if labeled == "contracted":
        # contracted legs are pinned to their point index; the rest are
        # interchangeable within a slope class
        return (j, leg.slope) if leg.is_contracted() else (-1, leg.slope)
    return (-1, leg.slope)


def _adjacency_data(t: CombinatorialType, labeled="all"):
    """Per-vertex germ descriptors: (slope-away, neighbor) plus leg tags."""
    n = t.n_vertices()
    incid = [[] for _ in range(n)]
    for e in t.edges:
        if e.is_loop():
            incid[e.u].append((e.slope, e.u))
            incid[e.u].append((vneg(e.slope), e.u))
        else:
            incid[e.u].append((e.slope, e.v))
            incid[e.v].append((vneg(e.slope), e.u))
    legtags = [[] for _ in range(n)]
    for j, leg in enumerate(t.legs):
        legtags[leg.vertex].append(_leg_tag(j, leg, labeled))
    return incid, legtags


def _refine(n, incid, legtags, colors):
    while True:
        sigs = []
        for v in range(n):
            nb = sorted((s, colors[w]) for s, w in incid[v])
            sigs.append((colors[v], tuple(nb), tuple(sorted(legtags[v]))))
        order = sorted(set(sigs))
        ranks = {s: i for i, s in enumerate(order)}
        new = [ranks[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _encode(t: CombinatorialType, label, labeled="all"):
    weights = tuple(t.weights[v] for v in sorted(range(t.n_vertices()), key=lambda v: label[v]))
    edge_keys = []
    for e in t.edges:
        a, b = label[e.u], label[e.v]
        if a <= b:
            edge_keys.append((a, b, e.slope))
        else:
            edge_keys.append((b, a, vneg(e.slope)))
    legs = [(_leg_tag(j, leg, labeled), label[leg.vertex]) for j, leg in enumerate(t.legs)]
    if labeled != "all":
        legs = sorted(legs)
    return (weights, tuple(sorted(edge_keys)), tuple(legs))


def _labelings(t: CombinatorialType, labeled="all"):
    """All discrete colorings reachable by individualization-refinement."""
    n = t.n_vertices()
    incid, legtags = _adjacency_data(t, labeled)
    base = [(t.weights[v], len(incid[v]) + len(legtags[v])) for v in range(n)]
    order = sorted(set(base))
    ranks = {s: i for i, s in enumerate(order)}
    colors0 = [ranks[base[v]] for v in range(n)]
    out = []

    def rec(colors):
        colors = _refine(n, incid, legtags, colors)
        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            label = [0] * n
            for rank, v in enumerate(sorted(range(n), key=lambda v: colors[v])):
                label[v] = rank
            out.append(label)
            return
        for v in target:
            branched = [2 * c for c in colors]
            branched[v] -= 1
            rec(branched)

    rec(colors0)
    return out


def canonical_form(t: CombinatorialType, labeled="all"):
    """(minimal encoding, one relabeling achieving it, #achieving labelings)."""
    best = None
    best_label = None
    count = 0
    for label in _labelings(t, labeled):
        enc = _encode(t, label, labeled)
        if best is None or enc < best:
            best = enc
            best_label = label
            count = 1
        elif enc == best:
            count += 1
    return best, best_label, count


def canonical_key(t: CombinatorialType, labeled="all"):
    return canonical_form(t, labeled)[0]


def types_isomorphic(t1: CombinatorialType, t2: CombinatorialType):
    return canonical_key(t1) == canonical_key(t2)


def aut_order(t: CombinatorialType):
    """Order of the automorphism group respecting leg order, weights, slopes:
    the achieving labelings, times 2 for each loop (a key (a, a, slope)),
    times mult! for each edge key of multiplicity mult."""
    (_weights, edge_keys, _legs), _label, vertex_count = canonical_form(t)
    order = vertex_count * 2 ** sum(1 for a, b, _s in edge_keys if a == b)
    for mult in Counter(edge_keys).values():
        order *= factorial(mult)
    return order
