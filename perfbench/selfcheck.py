"""Toy-scale self-check of the benchmark's output checks and tracer.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Runs severi at d <= 3, four walks at d = 3 and incidence at d = 2, each
untraced and traced, in this process.  It checks that every item passes,
that tracing leaves the output digest unchanged, that the tracer saw each
workload's layers, that one wrong expected value is counted as exactly one
failed item, and that the metric names match BENCHMARK.json.  Exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench
import tracer as tracing
import workloads
from tropcurves import recursion

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def toy_pass(workload, trace, oracle=None):
    inputs = workloads.make_inputs(workload, 7, 0, workloads.TOY)
    tr = None
    if trace:
        tr = tracing.Tracer()
        tr.install()
    try:
        run = workloads.run_pass(workload, inputs, workloads.TOY, tr, oracle)
    finally:
        if tr is not None:
            tr.uninstall()
    return run, (tracing.layer_metrics(tracing.raw_tallies(tr)) if tr else None)


def main():
    # what each workload must show in its traced layers
    expect = {
        "severi": {"floors.diagram_curve.calls", "floors.count_severi.s", "recursion.irreducible_severi_degree.calls"},
        "walk": {"walk.advance.calls", "walk.crossings", "cones.classify.calls", "linalg.solve_affine.calls"},
        "incidence": {
            "corpus.enumerate_cores.cores",
            "corpus.scan_fibers.hits",
            "linalg.feasible_nonneg.calls",
            "evaluation.fiber.calls",
            "canonical.canonical_form.calls",
        },
    }
    names = set()
    for workload in workloads.WORKLOADS:
        plain, _ = toy_pass(workload, trace=False)
        traced, layers = toy_pass(workload, trace=True)
        bad = [r for r in plain.items + traced.items if not r["ok"]] + plain.errors + traced.errors
        if bad:
            fail(f"{workload}: {bad}")
        if plain.digest() != traced.digest():
            fail(f"{workload}: tracing changed the output digest")
        zero = [k for k in expect[workload] if not layers[k]]
        if zero:
            fail(f"{workload}: the tracer saw no work in {zero}")
        names |= set(layers)
        print(f"selfcheck {workload}: {len(plain.items)} items ok, digest {plain.digest()[:16]} traced and untraced")

    if layers["corpus.enumerate_cores.cores"] != workloads.TOY.trivalent_cores:
        fail("incidence sweep count")

    def wrong_oracle(d, g):
        return recursion.irreducible_severi_degree(d, g) + ((d, g) == (2, 0))

    run, _ = toy_pass("severi", trace=False, oracle=wrong_oracle)
    failed = [r for r in run.items if not r["ok"]]
    if [r["label"] for r in failed] != ["d2g0"]:
        fail(f"a wrong expected value gave failures {failed}")
    print(f"selfcheck severi with one wrong expected value: fail_ratio {len(failed)}/{len(run.items)}")

    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    ours = names | set(bench.source_lines(os.path.dirname(HERE))) | {"trace.overhead_ratio"}
    if per_layer != ours:
        fail(f"per_layer names differ from BENCHMARK.json: {sorted(per_layer ^ ours)}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != bench.END_TO_END_UNITS:
        fail("end_to_end metrics differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wrong_units = [k for k in per_layer if units[k] != bench.layer_unit(k)]
    if wrong_units:
        fail(f"units differ from BENCHMARK.json: {wrong_units}")
    workload_names = [w["name"] for w in spec["workloads"]]
    if not workload_names == list(workloads.WORKLOADS) == list(bench.NOMINAL_PASS_S):
        fail("workloads differ from BENCHMARK.json")
    print("selfcheck BENCHMARK.json: metric names and units match")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
