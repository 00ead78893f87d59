"""Identical inputs give identical bytes under PYTHONHASHSEED 0 and 1.

Each CLI command, incidence scan and demo below runs in a subprocess under
both hash seeds; it must exit 0 both times with the same stdout and
stderr.  No subcommand reaches the incidence scan, so this file is also
the script that prints one: ``python tests/test_determinism.py <i>``
prints `SCANS[i]`.  Run the checks with
``python -m pytest -q -m slow tests/test_determinism.py``.
"""

import os
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from fixtures import FORCED_ZERO_POINTS, FRACTIONAL_POINTS, affine_image, balanced_type, start_stratum

from tropcurves.corpus import enumerate_cores, scan_fibers
from tropcurves.evaluation import PointConfiguration
from tropcurves.floors import make_stretched
from tropcurves.serialize import config_to_json, dumps, fiber_to_json, type_to_json

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent

# a $name stands for the input file `_inputs` writes under that name
COMMANDS = [
    "count --d 3 --g 0 --oracle",
    "count --d 5 --g 4 --oracle",
    "walk --d 3 --g 1",
    "markings --d 4 --delta 3 --classes",
    "markings --d 6 --delta 8 --classes",
    "markings --d 4 --delta 4 --witness",
    "enumerate --d 3 --g 1",
    # d = 5 shapes are grown floor by floor and then sorted: 372 solutions in listing order
    "enumerate --d 5 --g 4",
    "enumerate --d 4 --g 2",
    "walk --d 3 --g 0 --seed 8",
    # the curves are built over L = 6
    "enumerate --d 3 --g 0 --points $fractional_points",
    "classify-stratum --type $balanced_type",
    # the first d = 4 start among seeds 0-11 to take the heavy-elevator descent
    "walk --d 4 --g 2 --seed 3",
    # the top genus at d = 4: the most cycle rows per stratum
    "walk --d 4 --g 3",
    # the walk's certified scale, started from its unranked diagram
    "walk --d 5 --g 1 --seed 8",
    # an interval fiber, solved on the rows of consecutive marks
    "fiber --type $start_stratum --points $start_fixed_points",
    # one cycle, so the cone dimension takes an LP, and fiber rows with Fraction right-hand sides
    "fiber --type $cycle_stratum --points $cycle_fixed_points",
]

# the placement walk carries one int mask of sites per mark and reads its
# pair tables from a dict of directions
SCANS = [
    # the Betti-1 degree-2 scan
    lambda: scan_fibers(2, 1, make_stretched(4, 2).config),
    # Betti 1 over fractional points: 328 of the 388 complete placements fail their LP
    lambda: scan_fibers(2, 1, PointConfiguration(FRACTIONAL_POINTS)),
    # the only tier-1 scan where marks share an edge or a leg
    lambda: scan_fibers(2, 0, PointConfiguration(FORCED_ZERO_POINTS)),
    # collinear d = 3 over three trivalent cores: the chain pass refutes the
    # first before any walk node, the second is walked to no hit, and the
    # third hosts solutions
    lambda: scan_fibers(
        3, 0, make_stretched(8, 3).config, cores=itemgetter(0, 4, 641)(enumerate_cores(3, 0, max_valency=3))
    ),
]

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("demo_*.py"))


def _inputs(tmp):
    """The CLI's input files, written under tmp: {"$name": path}."""
    t0, fixed0 = start_stratum(0)
    t1, fixed1 = start_stratum(1)
    documents = {
        # the built-in stretched points at d = 3 mapped by p -> p/6 + (1/2, -1/3)
        "fractional_points": config_to_json(affine_image(make_stretched(8, 3).points)),
        "balanced_type": type_to_json(balanced_type()),
        "start_stratum": type_to_json(t0),
        "start_fixed_points": config_to_json(fixed0),
        "cycle_stratum": type_to_json(t1),
        "cycle_fixed_points": config_to_json(affine_image(fixed1.points)),
    }
    paths = {}
    for name, document in documents.items():
        path = tmp / f"{name}.json"
        path.write_text(dumps(document))
        paths[f"${name}"] = str(path)
    return paths


def _same_bytes_under_both_seeds(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    runs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        runs.append((done.stdout, done.stderr))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_command(command, tmp_path):
    inputs = _inputs(tmp_path)
    _same_bytes_under_both_seeds(["-m", "tropcurves.cli", *(inputs.get(w, w) for w in command.split())])


@pytest.mark.parametrize("index", range(len(SCANS)))
def test_scan(index):
    _same_bytes_under_both_seeds([__file__, str(index)])


@pytest.mark.parametrize("demo", DEMOS)
def test_demo(demo):
    _same_bytes_under_both_seeds([f"demos/{demo}"])


if __name__ == "__main__":
    print(dumps([[type_to_json(t), fiber_to_json(fb)] for t, fb in SCANS[int(sys.argv[1])]()]))
