from itertools import combinations

import pytest

from tropcurves.arrangements import (
    Arrangement,
    MarkingSet,
    branch_codim,
    empty_criterion,
    equivalence_classes,
    is_irreducible,
    marking_avoiding_line,
    reduce_to_avoiding_line,
    severi_dim,
    similar_moves,
)


def mk(d, *pairs):
    return MarkingSet(Arrangement(d), frozenset(pairs))


def test_irreducibility_examples():
    assert is_irreducible(mk(3, (1, 2)))
    assert not is_irreducible(mk(4, (1, 2), (1, 3), (1, 4)))  # line 1 isolated
    assert is_irreducible(mk(4, (1, 2), (3, 4), (1, 3)))


def test_similar_moves_on_triangle():
    m = mk(3, (1, 2))
    reachable = {m2.key() for m2 in similar_moves(m)}
    # the triple (L1, L3, L2) has p = q13 unmarked and swaps q23, q12
    assert ((2, 3),) in reachable
    assert ((1, 3),) in reachable


def test_identity_move_when_marking_disjoint():
    # with a fourth line, some swap misses the marking entirely
    m = mk(4, (1, 2))
    reachable = {m2.key() for m2 in similar_moves(m)}
    assert m.key() in reachable


def test_moves_preserve_irreducibility():
    for d in (4, 5):
        nodes = Arrangement(d).nodes()
        for delta in range(0, 4):
            for c in combinations(nodes, delta):
                m = MarkingSet(Arrangement(d), frozenset(c))
                irr = is_irreducible(m)
                for m2 in similar_moves(m):
                    assert is_irreducible(m2) == irr


def test_equivalence_classes_triangle():
    classes = equivalence_classes(3, 1)
    irr_classes = [cl for cl in classes if is_irreducible(cl[0])]
    assert len(irr_classes) == 1
    assert {m.key() for m in irr_classes[0]} == {((1, 2),), ((1, 3),), ((2, 3),)}


def bfs_classes(d, delta):
    """The classes by breadth-first search over `similar_moves`, each in
    key order and ordered by least key: the oracle for the union-find."""
    arr = Arrangement(d)
    unseen = {c: MarkingSet(arr, frozenset(c)) for c in combinations(arr.nodes(), delta)}
    classes = []
    while unseen:
        frontier = [unseen.pop(min(unseen))]
        component = list(frontier)
        while frontier:
            m = frontier.pop()
            for m2 in similar_moves(m):
                if unseen.pop(m2.key(), None) is not None:
                    component.append(m2)
                    frontier.append(m2)
        classes.append(sorted(m.key() for m in component))
    return classes


@pytest.mark.parametrize("d", range(1, 6))
def test_equivalence_classes_match_move_search(d):
    for delta in range((d - 1) * (d - 2) // 2 + 2):
        classes = [[m.key() for m in cl] for cl in equivalence_classes(d, delta)]
        assert classes == bfs_classes(d, delta)


@pytest.mark.parametrize("d", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_single_class_of_irreducible_markings(d):
    # each class is all irreducible or all reducible; one class is
    # irreducible for every delta up to (d-1)(d-2)/2, none past it
    bound = (d - 1) * (d - 2) // 2
    for delta in range(bound + 2):
        kinds = [{is_irreducible(m) for m in cl} for cl in equivalence_classes(d, delta)]
        assert all(len(k) == 1 for k in kinds)
        assert kinds.count({True}) == (delta <= bound)


def test_trivial_class_d2():
    classes = equivalence_classes(2, 0)
    assert len(classes) == 1
    assert classes[0][0].delta() == 0


def test_marking_set_refuses_non_nodes():
    for d in (3, 7):
        for pair in ((0, 1), (1, 1), (1, d + 1)):
            with pytest.raises(ValueError, match="not a node"):
                mk(d, pair)
        assert mk(d, (d, 1)).key() == ((1, d),)


def test_branch_codim():
    m1 = mk(4, (1, 2), (3, 4))
    m2 = mk(4, (1, 2), (1, 3))
    assert branch_codim(m1, m1) == 0
    assert branch_codim(m1, m2) == 1
    m3 = mk(4, (1, 4), (2, 3))
    assert branch_codim(m1, m3) == 2
    with pytest.raises(ValueError):
        branch_codim(m1, mk(4, (1, 2)))


def test_empty_criterion():
    assert empty_criterion(4, 4)  # 4 > 3
    assert not empty_criterion(4, 3)
    assert not empty_criterion(1, 0)
    w = marking_avoiding_line(4, 3, line=1)
    assert w is not None and is_irreducible(w)


def test_negative_delta_is_refused():
    for call in (equivalence_classes, empty_criterion, marking_avoiding_line):
        with pytest.raises(ValueError, match="delta"):
            call(4, -1)


def test_line_outside_the_arrangement_is_refused():
    # line 0 or d + 1 does not exist: no marking avoids it, and none is
    # already off it
    m = mk(5, (1, 2), (1, 3), (2, 3), (4, 5))
    for line in (0, 6, -1):
        with pytest.raises(ValueError, match="line"):
            marking_avoiding_line(5, 2, line=line)
        with pytest.raises(ValueError, match="line"):
            reduce_to_avoiding_line(m, line=line)
    assert marking_avoiding_line(5, 2, line=5) is not None


def test_reduction_strategy_strictly_decreases():
    m = mk(5, (1, 2), (1, 3), (2, 3), (4, 5))
    assert is_irreducible(m)
    path = reduce_to_avoiding_line(m, line=1)
    counts = [sum(1 for p in step.nodes if 1 in p) for p in [None] for step in path]
    counts = [sum(1 for p in step.nodes if 1 in p) for step in path]
    assert counts[-1] == 0
    assert all(b < a for a, b in zip(counts, counts[1:]) if a != b) and counts == sorted(counts, reverse=True)
    # every step is legal: delta preserved and irreducible throughout
    for step in path:
        assert step.delta() == m.delta()
        assert is_irreducible(step)


def test_severi_dim_identities():
    assert severi_dim(3, 1) == 9
    assert severi_dim(4, 0) == 11
    assert severi_dim(1, 0) == 2
    for d in range(1, 21):
        for g in range(1 - d, (d - 1) * (d - 2) // 2 + 1):
            assert severi_dim(d, g) == 3 * d + g - 1
    with pytest.raises(ValueError):
        severi_dim(3, 5)
