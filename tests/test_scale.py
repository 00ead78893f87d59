"""Every public entry point refuses just past its certified scale, at once.

The bounds: the floor layer and the walk to d = `floors.MAX_DEGREE` (5),
the marking calculus to d = 7 lines, the core generator to d = 3 and
Betti number 1, and `is_general` to d = 3, where it answers "unknown"
beyond.
"""

import time

import pytest

from tropcurves.arrangements import empty_criterion, equivalence_classes, marking_avoiding_line
from tropcurves.corpus import enumerate_cores, scan_fibers
from tropcurves.errors import ScaleRefusal
from tropcurves.evaluation import is_general
from tropcurves.floors import MAX_DEGREE, count_severi, enumerate_curves, make_stretched
from tropcurves.walk import run_walk


def test_every_entry_point_refuses_just_past_its_bound_within_a_second():
    d, cfg = MAX_DEGREE + 1, make_stretched(11, 4)
    calls = [
        (count_severi, (d, 0)),
        (enumerate_curves, (d, 0)),
        (run_walk, (d, 0)),
        (equivalence_classes, (8, 1)),
        (empty_criterion, (8, 1)),
        (marking_avoiding_line, (8, 1)),
        (enumerate_cores, (4, 0)),
        (enumerate_cores, (2, 2)),
        (scan_fibers, (4, 0, cfg)),
    ]
    for call, args in calls:
        start = time.perf_counter()
        with pytest.raises(ScaleRefusal):
            call(*args)
        assert time.perf_counter() - start < 1.0, (call.__name__, args)
    start = time.perf_counter()
    assert is_general(cfg, 4, 0) == "unknown"
    assert time.perf_counter() - start < 1.0
