"""One pass of one workload, in a fresh process.

Started by run.py; prints one JSON line with the pass's times, outputs
digest, peak memory and, when traced, the raw per-layer tallies.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import pace


def main(argv=None):
    spawn_end = time.time()
    pacer = pace.Pacer()
    pacer.start()
    t0 = pacer.starts[0]
    # imported under the pacer: the imports count towards set-up time
    import tracer as tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    ap.add_argument("--spawner-kernel-s", type=float, required=True, help="pace.probe() just before spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the spans of a traced pass to this file")
    args = ap.parse_args(argv)

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    sizes = workloads.FULL
    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index, sizes)
    # from spawn to the first probe at the mean speed of the spawner's probe
    # and the first probe; from there on as the pacer saw it
    start_s = spawn_end - args.spawned_at
    raw, scaled = pacer.split(t0, time.perf_counter())
    start_scale = pace.scale((args.spawner_kernel_s + pacer.kernel_s[0]) / 2)
    out = {"setup_s": start_s + raw, "scaled_setup_s": start_s * start_scale + scaled}
    if not args.setup_only:
        run = workloads.run_pass(args.workload, inputs, sizes, tr, pacer=pacer)
        out.update(
            items=run.items,
            jobs=run.jobs,
            jobs_s=run.jobs_s(),
            scaled_jobs_s=run.jobs_s("scaled_ms"),
            errors=run.errors,
            digest=run.digest(),
        )
        if tr is not None:
            out["layers"] = tracing.raw_tallies(tr)
            if args.spans:
                tr.dump(args.spans)
    pacer.stop()
    # ru_maxrss is in KiB on Linux
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
