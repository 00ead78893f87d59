"""In-memory span tracer that wraps the public functions of tropcurves.

Nothing under ``src/`` is edited: `Tracer.install` replaces each measured
function in every tropcurves module namespace that binds it, so the span is
recorded wherever a caller looks the name up (``tropcurves.walk.
enumerate_curves`` as well as ``tropcurves.floors.enumerate_curves``), and
wraps the measured methods on their classes.  `Tracer.uninstall` puts the
originals back.

A span records its name, start, end, parent span and job id.  Spans are kept
in flat arrays while the workload runs and written out by `Tracer.dump`.
Self time is a span's duration minus the durations of its child spans.  The
``.calls`` and ``.s`` figures of a name count only its outermost spans, so a
query that calls another query of the same layer is counted once.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# The job id of spans outside every timed job.
SETUP_JOB = -1
CHECK_JOB = -2

# (span name, module, attribute): module-level functions.
FUNCTIONS = [
    ("floors.diagram_curve", "tropcurves.floors", "diagram_curve"),
    ("floors.enumerate_curves", "tropcurves.floors", "enumerate_curves"),
    ("floors.count_severi", "tropcurves.floors", "count_severi"),
    ("graphs.face_contract", "tropcurves.graphs", "face_contract"),
    ("linalg.feasible_nonneg", "tropcurves.linalg", "feasible_nonneg"),
    ("linalg.solve_affine", "tropcurves.linalg", "solve_affine"),
    ("linalg.mat_rank", "tropcurves.linalg", "mat_rank"),
    ("canonical.canonical_form", "tropcurves.canonical", "canonical_form"),
    ("corpus.enumerate_cores", "tropcurves.corpus", "enumerate_cores"),
    ("corpus.scan_fibers", "tropcurves.corpus", "scan_fibers"),
    ("cones.is_realizable", "tropcurves.cones", "is_realizable"),
    ("cones.classify", "tropcurves.cones", "classify"),
    ("cones.reduced_fiber_polyhedron", "tropcurves.cones", "reduced_fiber_polyhedron"),
    ("cones.split_vertex", "tropcurves.cones", "split_vertex"),
    ("evaluation.fiber", "tropcurves.evaluation", "fiber"),
    ("walk.run_walk", "tropcurves.walk", "run_walk"),
    ("walk.start_walk", "tropcurves.walk", "start_walk"),
    ("walk.advance", "tropcurves.walk", "advance"),
    ("walk.cross", "tropcurves.walk", "cross"),
    ("recursion.irreducible_severi_degree", "tropcurves.recursion", "irreducible_severi_degree"),
]

# (span name, module, class, methods): methods share the span name.
METHODS = [
    ("graphs.CombinatorialType", "tropcurves.graphs", "CombinatorialType", ["__init__"]),
    ("graphs.ParametrizedCurve", "tropcurves.graphs", "ParametrizedCurve", ["__init__"]),
    ("graphs.star", "tropcurves.graphs", "CombinatorialType", ["star"]),
    (
        "linalg.polyhedron",
        "tropcurves.linalg",
        "Polyhedron",
        ["feasible_point", "optimize", "strict_point", "implicit_zero_vars", "dim", "interior_point"],
    ),
]

# Names reported as .calls and .s.
TIMED = [
    "floors.diagram_curve",
    "graphs.CombinatorialType",
    "graphs.ParametrizedCurve",
    "graphs.star",
    "graphs.face_contract",
    "linalg.feasible_nonneg",
    "linalg.polyhedron",
    "linalg.solve_affine",
    "linalg.mat_rank",
    "canonical.canonical_form",
    "corpus.scan_fibers",
    "cones.is_realizable",
    "cones.classify",
    "cones.reduced_fiber_polyhedron",
    "cones.split_vertex",
    "evaluation.fiber",
    "walk.advance",
    "walk.cross",
]


class Tracer:
    def __init__(self):
        self.names = [name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]
        self._code = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job_of = array("l")
        self.job = SETUP_JOB
        self._stack = []
        self._depth = [0] * len(self.names)
        # outermost spans per name, split into timed jobs and checks
        self._outer_calls = {"job": [0] * len(self.names), "check": [0] * len(self.names)}
        self._outer_s = {"job": [0.0] * len(self.names), "check": [0.0] * len(self.names)}
        # counts taken from return values, where the work happens
        self.counts = {
            "diagram_curve.built": 0,
            "feasible_nonneg.feasible": 0,
            "fiber.nonempty": 0,
            "scan_fibers.hits": 0,
            "scan_fibers.cores": 0,
            "scan_fibers.lp": 0,
            "enumerate_cores.cores": 0,
            "sweep.canonical_form": 0,
            "walk.crossings": 0,
        }
        self._saved = []

    # -- recording ------------------------------------------------------
    def _wrap(self, name, fn):
        code = self._code[name]
        hook = _HOOKS.get(name)
        tracer = self
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(code)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job_of.append(tracer.job)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            depth[code] += 1
            if hook is not None:
                hook(tracer, args, kwargs, None, True)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[code] -= 1
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if depth[code] == 0 and tracer.job != SETUP_JOB:
                    bucket = "check" if tracer.job == CHECK_JOB else "job"
                    tracer._outer_calls[bucket][code] += 1
                    tracer._outer_s[bucket][code] += t1 - t0
            if hook is not None and tracer.job >= 0:
                hook(tracer, args, kwargs, result, False)
            return result

        return traced

    def active(self, name):
        return self._depth[self._code[name]] > 0

    def install(self):
        """Wrap every measured function and method of the loaded package."""
        for name, modname, attr in FUNCTIONS:
            __import__(modname)
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("tropcurves"):
                    continue
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is orig:
                        self._saved.append((namespace, key, orig))
                        namespace[key] = wrapped
        for name, modname, clsname, methods in METHODS:
            __import__(modname)
            cls = getattr(sys.modules[modname], clsname)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._saved.clear()

    # -- results --------------------------------------------------------
    def self_times(self):
        """Self time per span name, over spans inside timed jobs."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            if self.job_of[i] >= 0:
                out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def totals(self, name, bucket="job"):
        """(outermost calls, their summed duration in s) inside timed jobs,
        or inside the output checks with bucket="check"."""
        code = self._code[name]
        return self._outer_calls[bucket][code], self._outer_s[bucket][code]

    def dump(self, path):
        """Write every span as one JSON document: names plus span rows."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write('{"columns":["name","start_s","end_s","parent","job"],"names":')
            fh.write(json.dumps(self.names))
            fh.write(',"spans":[')
            for i in range(len(self.start)):
                if i:
                    fh.write(",")
                fh.write(
                    "[%d,%.9f,%.9f,%d,%d]"
                    % (self.name[i], self.start[i] - t0, self.end[i] - t0, self.parent[i], self.job_of[i])
                )
            fh.write("]}\n")


def _hook_diagram_curve(tr, args, kwargs, result, entering):
    if not entering and result is not None:
        tr.counts["diagram_curve.built"] += 1


def _hook_feasible_nonneg(tr, args, kwargs, result, entering):
    if entering:
        if tr.job >= 0 and tr.active("corpus.scan_fibers"):
            tr.counts["scan_fibers.lp"] += 1
    elif result:
        tr.counts["feasible_nonneg.feasible"] += 1


def _hook_fiber(tr, args, kwargs, result, entering):
    if not entering and not result.is_empty():
        tr.counts["fiber.nonempty"] += 1


def _hook_scan_fibers(tr, args, kwargs, result, entering):
    if not entering:
        tr.counts["scan_fibers.hits"] += len(result)
        tr.counts["scan_fibers.cores"] += len(kwargs["cores"])


def _hook_enumerate_cores(tr, args, kwargs, result, entering):
    if not entering:
        tr.counts["enumerate_cores.cores"] += len(result)


def _hook_canonical_form(tr, args, kwargs, result, entering):
    if entering and tr.job >= 0 and tr.active("corpus.enumerate_cores"):
        tr.counts["sweep.canonical_form"] += 1


def _hook_run_walk(tr, args, kwargs, result, entering):
    if not entering:
        tr.counts["walk.crossings"] += result.crossings


_HOOKS = {
    "floors.diagram_curve": _hook_diagram_curve,
    "linalg.feasible_nonneg": _hook_feasible_nonneg,
    "evaluation.fiber": _hook_fiber,
    "corpus.scan_fibers": _hook_scan_fibers,
    "corpus.enumerate_cores": _hook_enumerate_cores,
    "canonical.canonical_form": _hook_canonical_form,
    "walk.run_walk": _hook_run_walk,
}


def raw_tallies(tr):
    """Additive tallies of one traced pass; sum them over passes and pass
    the sum to `layer_metrics`."""
    out = {}
    for name in TIMED + ["floors.count_severi", "corpus.enumerate_cores", "walk.start_walk"]:
        calls, secs = tr.totals(name)
        out[name + ".calls"] = calls
        out[name + ".s"] = secs
    # the oracle runs only inside the output checks
    calls, secs = tr.totals("recursion.irreducible_severi_degree", "check")
    out["recursion.irreducible_severi_degree.calls"] = calls
    out["recursion.irreducible_severi_degree.s"] = secs
    out["floors.enumerate_curves.self_s"] = tr.self_times()["floors.enumerate_curves"]
    for key, value in tr.counts.items():
        out["count." + key] = value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw):
    """The per-layer metrics from tallies summed over traced passes."""
    out = {}
    for name in TIMED:
        out[name + ".calls"] = raw[name + ".calls"]
        out[name + ".s"] = raw[name + ".s"]

    def count(key):
        return raw["count." + key]

    out["floors.diagram_curve.built_ratio"] = _ratio(count("diagram_curve.built"), raw["floors.diagram_curve.calls"])
    out["floors.enumerate_curves.self_s"] = raw["floors.enumerate_curves.self_s"]
    out["floors.count_severi.s"] = raw["floors.count_severi.s"]
    out["linalg.feasible_nonneg.feasible_ratio"] = _ratio(
        count("feasible_nonneg.feasible"), raw["linalg.feasible_nonneg.calls"]
    )
    out["corpus.enumerate_cores.s"] = raw["corpus.enumerate_cores.s"]
    out["corpus.enumerate_cores.cores"] = count("enumerate_cores.cores")
    out["corpus.sweep.distinct_ratio"] = _ratio(count("enumerate_cores.cores"), count("sweep.canonical_form"))
    out["corpus.scan_fibers.hits"] = count("scan_fibers.hits")
    out["corpus.scan_fibers.lp_per_core"] = _ratio(count("scan_fibers.lp"), count("scan_fibers.cores"))
    out["evaluation.fiber.nonempty_ratio"] = _ratio(count("fiber.nonempty"), raw["evaluation.fiber.calls"])
    out["walk.start_walk.s"] = raw["walk.start_walk.s"]
    out["walk.crossings"] = count("walk.crossings")
    out["recursion.irreducible_severi_degree.calls"] = raw["recursion.irreducible_severi_degree.calls"]
    out["recursion.irreducible_severi_degree.s"] = raw["recursion.irreducible_severi_degree.s"]
    return out
