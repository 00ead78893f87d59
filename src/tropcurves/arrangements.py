"""Marking combinatorics on an arrangement of d general lines.

The nodes of the arrangement are the pairs {i, j} of lines.  A marking
is a subset of delta nodes; it is irreducible when removing the marked
nodes leaves the incidence graph of the lines connected.  The similarity
move swaps the two nodes q = L' cap L'' and r = L cap L'' whenever
p = L cap L' is unmarked; its transitive closure partitions the markings
into equivalence classes, and the irreducible markings form exactly one
class, which `equivalence_classes` verifies at desk scale through the
one union-find, `graphs.components`.  It, `empty_criterion` and
`marking_avoiding_line` share the marking layer's one scale check,
`_check_scale`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from tropcurves.errors import ScaleRefusal
from tropcurves.graphs import components

# desk scale: every operation here lists the C(d, 2) nodes or more
MAX_LINES = 7


def _node(i, j):
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Arrangement:
    """d lines in general position; nodes are the unordered index pairs."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one line")

    def nodes(self):
        return tuple(combinations(range(1, self.d + 1), 2))


@dataclass(frozen=True)
class MarkingSet:
    """A set of marked nodes of the arrangement."""

    arrangement: Arrangement
    nodes: frozenset

    def __post_init__(self):
        nodes = frozenset(self.nodes)  # ordered pairs are kept, not copied
        if any(i > j for i, j in nodes):
            nodes = frozenset(_node(*p) for p in nodes)
        object.__setattr__(self, "nodes", nodes)
        if not all(1 <= i < j <= self.arrangement.d for i, j in nodes):
            raise ValueError("marking contains a pair that is not a node")

    def delta(self):
        return len(self.nodes)

    def key(self):
        return tuple(sorted(self.nodes))


def is_irreducible(m: MarkingSet):
    """Connectivity of the line graph with the marked nodes removed."""
    unmarked = [p for p in m.arrangement.nodes() if p not in m.nodes]
    return len(set(components(m.arrangement.d + 1, unmarked)[1:])) == 1


def similar_moves(m: MarkingSet):
    """All markings obtained by one similarity move, deduplicated.

    For every ordered triple (L, L', L'') with p = L cap L' unmarked, the
    transposition swapping q = L' cap L'' and r = L cap L'' is applied.
    """
    d = m.arrangement.d
    out = {}
    for L in range(1, d + 1):
        for Lp in range(1, d + 1):
            if Lp == L:
                continue
            p = _node(L, Lp)
            if p in m.nodes:
                continue
            for Ls in range(1, d + 1):
                if Ls in (L, Lp):
                    continue
                q = _node(Lp, Ls)
                r = _node(L, Ls)
                swapped = set(m.nodes)
                has_q = q in swapped
                has_r = r in swapped
                if has_q and not has_r:
                    swapped.discard(q)
                    swapped.add(r)
                elif has_r and not has_q:
                    swapped.discard(r)
                    swapped.add(q)
                result = MarkingSet(m.arrangement, frozenset(swapped))
                out[result.key()] = result
    return list(out.values())


def _check_scale(d, delta):
    """The marking layer's one (d, delta) check: refuses d past MAX_LINES
    and a negative delta."""
    if d > MAX_LINES:
        raise ScaleRefusal(f"the marking layer is certified for d <= {MAX_LINES} only")
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")


def equivalence_classes(d, delta):
    """Partition of all delta-markings under the move closure, each class
    in key order and the classes ordered by their least key.

    Markings are ints over the bits of `Arrangement.nodes()`.  The pair
    {L, L'} and a third line L'' give one move: with p clear, a marking
    holding q but not r trades q for r, and the reverse trade is the same
    move read from the image.
    """
    _check_scale(d, delta)
    arr = Arrangement(d)
    nodes = arr.nodes()
    bit = {p: 1 << k for k, p in enumerate(nodes)}
    table = []  # a marking m with m & pqr == q moves to m ^ qr
    for (L, Lp), Ls in product(nodes, range(1, d + 1)):
        if Ls not in (L, Lp):
            q, r = bit[_node(Lp, Ls)], bit[_node(L, Ls)]
            table.append((q, bit[L, Lp] | q | r, q | r))
    markings = list(combinations(nodes, delta))  # in key order
    index = {sum(bit[p] for p in c): k for k, c in enumerate(markings)}
    # a generator: a list of the pairs took 902 MB at d = 7
    moves = ((k, index[m ^ qr]) for q, pqr, qr in table for k, m in enumerate(index) if m & pqr == q)
    classes = {}
    for c, root in zip(markings, components(len(markings), moves)):
        classes.setdefault(root, []).append(MarkingSet(arr, frozenset(c)))
    return list(classes.values())


def branch_codim(m: MarkingSet, m2: MarkingSet):
    """Codimension of the branch intersection: |m2 minus m|."""
    if m.arrangement != m2.arrangement:
        raise ValueError("markings live on different arrangements")
    if m.delta() != m2.delta():
        raise ValueError(f"markings must have the same cardinality, not {m.delta()} and {m2.delta()}")
    return len(m2.nodes - m.nodes)


def empty_criterion(d, delta):
    """True when no irreducible delta-marking exists: delta > (d-1)(d-2)/2.

    Cross-checked constructively: otherwise a marking disjoint from the
    first line exists and is irreducible.
    """
    _check_scale(d, delta)
    bound = (d - 1) * (d - 2) // 2
    empty = delta > bound
    if not empty:
        witness = marking_avoiding_line(d, delta, line=1)
        assert witness is not None and is_irreducible(witness)
    return empty


def marking_avoiding_line(d, delta, line=1):
    """A delta-marking disjoint from the given line, when one exists."""
    _check_scale(d, delta)
    arr = Arrangement(d)
    if not 1 <= line <= d:
        raise ValueError(f"line must be one of 1..{d}, got {line}")
    pool = [p for p in arr.nodes() if line not in p]
    if delta > len(pool):
        return None
    return MarkingSet(arr, frozenset(pool[:delta]))


def reduce_to_avoiding_line(m: MarkingSet, line=1):
    """Similarity moves taking an irreducible marking off the given line.

    Returns the list of markings visited; each move strictly decreases
    the number of marked nodes on the line.
    """
    d = m.arrangement.d
    if not 1 <= line <= d:
        raise ValueError(f"line must be one of 1..{d}, got {line}")
    if not is_irreducible(m):
        raise ValueError("reduction strategy requires an irreducible marking")
    path = [m]
    current = m
    while True:
        on_line = [p for p in current.nodes if line in p]
        if not on_line:
            return path
        # C: lines whose node with `line` is marked; C': the rest
        C = {i for p in on_line for i in p if i != line}
        Cp = set(range(1, d + 1)) - C - {line}
        found = None
        for i in C:
            for j in Cp:
                r = _node(i, j)
                if r not in current.nodes:
                    found = (i, j, r)
                    break
            if found:
                break
        if not found:
            raise ValueError("no strictly decreasing move exists; marking is reducible")
        i, j, r = found
        q = _node(line, i)
        swapped = set(current.nodes)
        swapped.discard(q)
        swapped.add(r)
        current = MarkingSet(current.arrangement, frozenset(swapped))
        path.append(current)
