"""Multi-minute checks of README claims at their stated scale.

Marked `slow` and deselected by default; run them with
``python -m pytest -q -m slow``.
"""

import hashlib

import pytest

from tropcurves.canonical import canonical_key
from tropcurves.cones import is_realizable
from tropcurves.corpus import enumerate_cores
from tropcurves.graphs import check_balancing, is_stable


@pytest.mark.slow
def test_betti_one_cores_degree_three():
    cores = enumerate_cores(3, 1)
    keys = [canonical_key(t, labeled="none") for t in cores]
    assert len(cores) == 63871
    assert len(set(keys)) == len(keys)
    # the ordered keys, which no vertex numbering moves
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "924bb31440d2867384d3365a3da9aa040a3d86f438653401a1dc77c659110e0c"
    for t in cores:
        assert t.is_weightless()
        assert is_stable(t)
        assert check_balancing(t) is None
        assert t.first_betti() == 1
        assert all(max(abs(e.slope[0]), abs(e.slope[1])) <= 3 for e in t.edges)
        # the generator decides realizability by a planar cone test; the
        # LP here shares none of its code
        assert is_realizable(t)
