"""Every public entry point refuses just past its certified scale, at once.

Each bound is read from the layer that owns it: `floors.MAX_DEGREE` for
the floor layer and the walk, `arrangements.MAX_LINES` for the marking
calculus, and `corpus.MAX_DEGREE` and `corpus.MAX_BETTI` for the cores,
the scan and `is_general`, which answers "unknown" past them.  Each
refusal starts with its layer's one sentence, and the command line exits
3 there with one `scale refusal: the <layer> layer` line.  README's
certified-scale table names each entry point this file calls
(`tests/test_source.py` checks that it does).
"""

import time

import pytest

from tropcurves import arrangements, corpus, floors
from tropcurves.arrangements import empty_criterion, equivalence_classes, marking_avoiding_line
from tropcurves.cli import main
from tropcurves.corpus import enumerate_cores, is_general, scan_fibers
from tropcurves.errors import ScaleRefusal
from tropcurves.floors import count_severi, enumerate_curves, make_stretched, solution_diagrams, unrank_diagram
from tropcurves.walk import run_walk, start_walk


def test_every_entry_point_refuses_just_past_its_bound_within_a_second(capsys):
    d = floors.MAX_DEGREE + 1
    lines = arrangements.MAX_LINES + 1
    core_d = corpus.MAX_DEGREE + 1
    cfg = make_stretched(3 * core_d - 1, core_d)
    floor = f"the floor layer is certified for d <= {floors.MAX_DEGREE} only"
    marking = f"the marking layer is certified for d <= {arrangements.MAX_LINES} only"
    core = f"the core layer is certified for d <= {corpus.MAX_DEGREE} and b1 <= {corpus.MAX_BETTI} only"
    calls = [
        (floor, count_severi, (d, 0)),
        (floor, enumerate_curves, (d, 0)),
        (floor, enumerate_curves, (d, 0, make_stretched(3 * d - 1, d))),
        (floor, solution_diagrams, (d, 0)),
        (floor, unrank_diagram, (d, 0, 0)),
        (floor, start_walk, (d, 0)),
        (floor, run_walk, (d, 0)),
        (marking, equivalence_classes, (lines, 1)),
        (marking, empty_criterion, (lines, 1)),
        (marking, marking_avoiding_line, (lines, 1)),
        (core, enumerate_cores, (core_d, 0)),
        (core, enumerate_cores, (2, corpus.MAX_BETTI + 1)),
        (core, scan_fibers, (core_d, 0, cfg)),
        (core, scan_fibers, (2, corpus.MAX_BETTI + 1, make_stretched(5, 2))),
        (core, scan_fibers, (core_d, 0, cfg, [])),
        (core, scan_fibers, (2, corpus.MAX_BETTI + 1, make_stretched(5, 2), [])),
    ]
    for sentence, call, args in calls:
        start = time.perf_counter()
        with pytest.raises(ScaleRefusal) as refusal:
            call(*args)
        assert time.perf_counter() - start < 1.0, (call.__name__, args)
        assert str(refusal.value).startswith(sentence), (call.__name__, args, str(refusal.value))
    commands = [
        ("floor", f"count --d {d} --g 0"),
        ("floor", f"enumerate --d {d} --g 0"),
        ("floor", f"walk --d {d} --g 0"),
        ("marking", f"markings --d {lines} --delta 1 --classes"),
        ("marking", f"markings --d {lines} --delta 1 --witness"),
    ]
    for layer, command in commands:
        start = time.perf_counter()
        code = main(command.split())
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 1.0, command
        assert (code, out) == (3, ""), command
        assert len(err.splitlines()) == 1 and err.startswith(f"scale refusal: the {layer} layer"), (command, err)
    start = time.perf_counter()
    assert is_general(cfg, core_d, 0) == "unknown"
    assert is_general([(0, 0), (1, -5)], core_d, 0) == "unknown"
    assert time.perf_counter() - start < 1.0
    # at their bound the marking calls still answer: every node off one
    # line makes an irreducible marking
    delta = (lines - 2) * (lines - 3) // 2
    assert not empty_criterion(lines - 1, delta)
    assert marking_avoiding_line(lines - 1, delta).delta() == delta
