"""Benchmark of tropcurves: three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload severi|walk|incidence --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``--seconds`` fixes the number of passes, S divided by the
workload's nominal pass length (at least one), so the same arguments always
do the same work.  Each pass runs in a fresh process with
``TROPCURVES_WORKERS`` removed from its environment, so no memo of an
earlier pass serves a timed call and no worker pool runs.  Every time is
scaled to a reference host speed, measured while the pass runs (see
``pace.py``); stdout also shows the unscaled wall, median and set-up times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pass 0
untraced, then every pass traced, and prints the per-layer metrics together
with ``trace.overhead_ratio`` (traced over untraced time of pass 0).  Both
print the digest of the outputs, which is equal for equal arguments.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A record of the run (environment, metrics, failed
items) is written to ``.perfbench/`` in the checkout, next to the spans of
traced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pace  # noqa: E402  (stdlib-only, like tracer)
from tracer import layer_metrics  # noqa: E402  (stdlib-only, no package import)

# wall time of one pass at the seed commit on a 2-core machine
NOMINAL_PASS_S = {"severi": 8, "walk": 12.5, "incidence": 37}
MIN_SETUP_SAMPLES = 9
SPAWN_PROBE_S = 0.02
TAIL_PERCENTILES = (99.9, 99, 90, 75)
DEADLINE_S = 170
MODULES = (
    "__init__", "arrangements", "canonical", "cli", "cones", "corpus", "errors",
    "evaluation", "families", "floors", "graphs", "linalg", "recursion", "serialize", "walk",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name):
    if name.endswith(".calls") or name.endswith(".cores") or name.endswith(".hits") or name.endswith(".crossings"):
        return "count"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith(".lines"):
        return "lines"
    if name.endswith(".lp_per_core"):
        return "LP/core"
    return "ratio"


class BenchError(Exception):
    pass


def n_passes(workload, seconds):
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def spawn(root, env, deadline, workload, seed, index, trace=0, setup_only=False, spans=None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before all passes ran")
    cmd += ["--spawner-kernel-s", repr(pace.probe(SPAWN_PROBE_S)), "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} of {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {index} of {workload} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_lines(root):
    out = {}
    for mod in MODULES:
        path = os.path.join(root, "src", "tropcurves", mod + ".py")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[f"src.{mod}.lines"] = fh.read().count(b"\n")
        else:
            out[f"src.{mod}.lines"] = 0
    out["src.total.lines"] = sum(out.values())
    return out


def environment(root, seed):
    src = os.path.join(root, "src", "tropcurves")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES that has at least ten of n items
    beyond it, by nearest rank; 100 when none has."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 100.0


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by a Beta((n+1)q, (n+1)(1-q)) density over their
    ranks.  A single order statistic jumps when the items near the quantile
    swap places or sit on either side of a gap; this estimate moves
    smoothly.  q = 1 gives the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if q >= 1:
        return ordered[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule over each rank's share of (0, 1)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def run_digest(passes):
    h = hashlib.sha256()
    for p in passes:
        h.update(p["digest"].encode())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "tropcurves", "__init__.py")):
        print("perfbench: run from a tropcurves checkout (no src/tropcurves here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env.pop("TROPCURVES_WORKERS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    info = environment(root, args.seed)
    lines = source_lines(root)
    npass = n_passes(args.workload, args.seconds)

    def go(index, **kw):
        return spawn(root, env, deadline, args.workload, args.seed, index, **kw)

    errors = []
    if args.trace:
        baseline = go(0)
        passes = []
        for i in range(npass):
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-pass{i}.json")
            passes.append(go(i, trace=1, spans=spans))
        if passes[0]["digest"] != baseline["digest"]:
            errors.append("traced pass 0 produced other outputs than the untraced pass 0")
        raw = {}
        for p in passes:
            for key, value in p["layers"].items():
                raw[key] = raw.get(key, 0) + value
        metrics = {k: (v, layer_unit(k)) for k, v in layer_metrics(raw).items()}
        metrics.update({k: (v, "lines") for k, v in lines.items()})
        metrics["trace.overhead_ratio"] = (passes[0]["scaled_jobs_s"] / baseline["scaled_jobs_s"], "ratio")
    else:
        passes = [go(i) for i in range(npass)]
        setups = list(passes)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(go(len(setups), setup_only=True))
        latencies = [r["scaled_ms"] for p in passes for r in p["items"]]
        metrics = {
            "wall_s": sum(p["scaled_jobs_s"] for p in passes),
            "item_p50_ms": quantile(latencies, 0.5),
            "item_tail_ms": quantile(latencies, tail_percentile(len(latencies)) / 100),
            "setup_s": statistics.median(p["scaled_setup_s"] for p in setups),
            "peak_rss_mb": max(p["rss_mib"] for p in passes),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        unscaled = {
            "wall_s": sum(p["jobs_s"] for p in passes),
            "item_p50_ms": quantile([r["ms"] for p in passes for r in p["items"]], 0.5),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
        }

    items = [r for p in passes for r in p["items"]]
    for p in passes:
        errors.extend(p["errors"])
    failed = [r for r in items if not r["ok"]]
    digest = run_digest(passes)
    n = len(items)
    print(f"env {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload}: {npass} passes, {n} items, item_tail_ms at p{tail_percentile(n):g}")
    print(f"digest {args.workload} seed={args.seed} passes={npass} {digest}")
    print(f"fail_ratio {len(failed) / n:.6f} ({len(failed)} of {n} items)")
    for r in failed[:20]:
        print(f"FAILED {r['label']}: {r['error']}")
    for e in errors:
        print(f"ERROR {e}")
    if not args.trace:
        print("source " + " ".join(f"{k}={v}" for k, v in lines.items()))
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    result = {
        "correct": not failed and not errors,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, env=info, workload=args.workload, trace=args.trace, passes=npass,
                  digest=digest, source=lines, failures=failed, errors=errors,
                  items=[[r["label"], r["ms"], r["scaled_ms"]] for r in items], jobs=[p["jobs"] for p in passes])
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
