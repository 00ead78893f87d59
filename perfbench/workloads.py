"""Seeded inputs, timed jobs and output checks of the three workloads.

One call of `run_pass` is one pass over a workload's job list.  Jobs run in
a closed loop from one caller: each starts when the previous one returns.
An item is a timed job that counts towards the item latencies and the
failure count; a job or item that raises still has its time counted.

* ``severi``: `count_severi(d, g)` for every d <= 4 and every genus, then
  more counts at d = 4, each through its own seeded configuration,
  checked against the recursion oracle.
* ``walk``: `run_walk` at d = 3 with g alternating 0 and 1, then d = 4 at
  g = 0, 1, 2 and once at g = 3; each walk gets its own configuration and
  start selector, so no two walks share an input.
* ``incidence``: one cold sweep of the trivalent genus-0 cores, then one
  `scan_fibers` call per core in a sample that holds every core hosting a
  floor solution through the configuration plus a fixed set of the others,
  chosen by `core_fingerprint`.

All configurations lie on the line y = -mu x.  The seed draws the gaps
between consecutive x values, and mu = (3d)^(3d) * x_max, the ratio
`make_stretched` uses.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from tropcurves import canonical, corpus, floors, recursion, serialize, walk
from tropcurves.evaluation import PointConfiguration
from tropcurves.graphs import CombinatorialType, Edge, Leg

import pace
from tracer import CHECK_JOB, SETUP_JOB

WORKLOADS = ("severi", "walk", "incidence")
MAX_GAP = 5


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does."""

    severi_max_d: int
    severi_rounds: int  # extra counts at d = severi_max_d, g = 0, 1, 2
    walks_d3: int
    walk_d4_rounds: int  # each round walks g = 0, 1, 2 at d = 4
    walk_d4_g3: int
    incidence_d: int
    incidence_mod: int  # scan the other cores whose fingerprint is 0 modulo this
    # len(enumerate_cores(d, 0, max_valency=3)); at d = 3 these 791 are
    # exactly the trivalent members of the 6422 cores of enumerate_cores(3, 0)
    trivalent_cores: int


FULL = Sizes(
    severi_max_d=4,
    severi_rounds=2,
    walks_d3=300,
    walk_d4_rounds=1,
    walk_d4_g3=1,
    incidence_d=3,
    incidence_mod=18,
    trivalent_cores=791,
)
TOY = Sizes(
    severi_max_d=3,
    severi_rounds=1,
    walks_d3=4,
    walk_d4_rounds=0,
    walk_d4_g3=0,
    incidence_d=2,
    incidence_mod=3,
    trivalent_cores=17,
)


def pass_rng(workload, seed, index):
    # a str seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def stretched_config(rng, n, d):
    """n points on y = -mu x with seeded gaps between the x values."""
    xs = list(itertools.accumulate(rng.randint(1, MAX_GAP) for _ in range(n)))
    mu = Fraction((3 * d) ** (3 * d) * xs[-1])
    points = tuple((Fraction(x), -mu * x) for x in xs)
    return floors.StretchedConfig(PointConfiguration(points), stretch=mu / (2 * n), mu=mu)


def max_genus(d):
    return (d - 1) * (d - 2) // 2


class PassRun:
    """Times, outputs and check results of one pass.

    Once `finish` has run, each timed record holds its milliseconds outside
    the host speed probes, ``ms``, and the same time scaled to the reference
    host speed, ``scaled_ms`` (see `pace`).
    """

    def __init__(self, pacer, tracer=None):
        self.pacer = pacer
        self.tracer = tracer
        self.items = []
        self.jobs = {}  # non-item timed jobs: name -> record
        self.errors = []  # failed checks of non-item jobs
        self._digest = hashlib.sha256()
        self._next_job = 0

    def _phase(self, job):
        if self.tracer is not None:
            self.tracer.job = job

    def _timed(self, label, fn, args, kwargs):
        self._phase(self._next_job)
        self._next_job += 1
        error = None
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising job is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        self._phase(CHECK_JOB)
        record = {"label": label, "span": (t0, t1)}
        return result, error, record

    def job(self, name, fn, *args, **kwargs):
        """Run a timed job that is not an item; returns its result or None."""
        result, error, record = self._timed(name, fn, args, kwargs)
        self.jobs[name] = record
        if error is not None:
            self.errors.append(f"{name}: {error}")
        return result

    def item(self, label, fn, *args, **kwargs):
        """Run one timed item; returns (result, record).  The caller's
        checks fail the item through `fail`."""
        result, error, record = self._timed(label, fn, args, kwargs)
        record.update(ok=error is None, error=error)
        self.items.append(record)
        return result, record

    @staticmethod
    def fail(record, why):
        if record["ok"]:
            record["ok"] = False
            record["error"] = why

    def untimed(self):
        """Mark the work that follows as input generation, outside any job."""
        self._phase(SETUP_JOB)

    def finish(self):
        """Probe once more, so the last job is bracketed, and time every
        timed record."""
        self.untimed()
        self.pacer.probe()
        for record in self.items + list(self.jobs.values()):
            raw, scaled = self.pacer.split(*record.pop("span"))
            record["ms"] = raw * 1000.0
            record["scaled_ms"] = scaled * 1000.0

    def output(self, data: bytes):
        self._digest.update(len(data).to_bytes(8, "big"))
        self._digest.update(data)

    def digest(self):
        return self._digest.hexdigest()

    def jobs_s(self, key="ms"):
        return sum(r[key] for r in self.items + list(self.jobs.values())) / 1000.0


# ---------------------------------------------------------------------------
# severi
# ---------------------------------------------------------------------------


def severi_inputs(seed, index, sizes):
    """Every (d, g) up to the top degree once, then more counts at the top
    degree and g <= 2, so that the median and the tail item fall inside a
    group of like counts rather than between the trivial and the heavy."""
    rng = pass_rng("severi", seed, index)
    top = sizes.severi_max_d
    plan = [(d, g) for d in range(1, top + 1) for g in range(max_genus(d) + 1)]
    plan += [(top, g) for _ in range(sizes.severi_rounds) for g in range(min(2, max_genus(top)) + 1)]
    return [(d, g, stretched_config(rng, 3 * d + g - 1, d)) for d, g in plan]


def severi_pass(run, inputs, oracle=None):
    oracle = oracle or recursion.irreducible_severi_degree
    counts = []
    for d, g, cfg in inputs:
        count, record = run.item(f"d{d}g{g}", floors.count_severi, d, g, cfg)
        if record["ok"]:
            expected = oracle(d, g)
            if count != expected:
                run.fail(record, f"count_severi({d}, {g}) = {count}, oracle says {expected}")
        counts.append([d, g, count])
    run.output(json.dumps(counts).encode())


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def walk_inputs(seed, index, sizes):
    rng = pass_rng("walk", seed, index)
    plan = [(3, i % 2) for i in range(sizes.walks_d3)]
    plan += [(4, g) for _ in range(sizes.walk_d4_rounds) for g in (0, 1, 2)]
    plan += [(4, 3)] * sizes.walk_d4_g3
    out = []
    for d, g in plan:
        cfg = stretched_config(rng, 3 * d + g - 1, d)
        out.append((d, g, cfg, rng.randrange(1 << 30)))
    return out


def walk_pass(run, inputs):
    for d, g, cfg, selector in inputs:
        trace, record = run.item(f"d{d}g{g}", walk.run_walk, d, g, cfg, selector)
        if not record["ok"]:
            run.output(b"failed")
            continue
        term = trace.terminal
        if not (
            isinstance(term, walk.Terminal)
            and term.stratum.edges[term.free_edge].slope == (0, 0)
            and any(term.ray)
        ):
            run.fail(record, "walk ended without a genus-drop witness")
        run.output(json.dumps(serialize.trace_to_json(trace), sort_keys=True).encode())


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------


def solution_core(t: CombinatorialType) -> CombinatorialType:
    """Forget the marks of a solution and smooth its 2-valent vertices.

    A mark sits on a 2-valent point of an edge or a leg; forgetting it
    leaves a vertex whose two germs are opposite, which is merged away.
    """
    weights = list(t.weights)
    edges = [(e.u, e.v, e.slope) for e in t.edges]
    legs = [(leg.vertex, leg.slope) for leg in t.legs if leg.slope != (0, 0)]
    while True:
        valency = [0] * len(weights)
        for u, v, _s in edges:
            valency[u] += 1
            valency[v] += 1
        for v, _s in legs:
            valency[v] += 1
        two = [v for v, k in enumerate(valency) if k == 2]
        if not two:
            break
        v = two[0]
        at = [i for i, (a, b, _s) in enumerate(edges) if v in (a, b)]
        rest = [e for i, e in enumerate(edges) if i not in at]
        ends = []  # (far vertex, slope pointing away from v)
        for i in at:
            a, b, s = edges[i]
            ends.append((b, s) if a == v else (a, (-s[0], -s[1])))
        if len(ends) == 2:
            (far0, s0), (far1, _s1) = ends
            rest.append((far1, far0, s0))
        else:
            far0 = ends[0][0]
            legs = [(far0 if w == v else w, s) for w, s in legs]
        edges = rest
        del weights[v]

        def shift(x, v=v):
            return x - 1 if x > v else x

        edges = [(shift(a), shift(b), s) for a, b, s in edges]
        legs = [(shift(w), s) for w, s in legs]
    return CombinatorialType(
        tuple(weights),
        tuple(Edge(a, b, s) for a, b, s in edges),
        tuple(Leg(w, s) for w, s in legs),
    )


def core_fingerprint(t: CombinatorialType) -> str:
    """An isomorphism invariant of a core, computed without the package's
    canonical labeling: three rounds of colour refinement over the germ
    slopes at each vertex, hashed."""
    germs = [[] for _ in range(t.n_vertices())]  # (slope away, neighbour)
    for e in t.edges:
        germs[e.u].append((e.slope, e.v))
        germs[e.v].append(((-e.slope[0], -e.slope[1]), e.u))
    for leg in t.legs:
        germs[leg.vertex].append((leg.slope, -1))

    def digest(x):
        return hashlib.sha256(repr(x).encode()).hexdigest()

    colour = [digest(sorted(s for s, _w in g)) for g in germs]
    for _ in range(3):
        colour = [
            digest((colour[v], sorted((s, colour[w] if w >= 0 else "leg") for s, w in g)))
            for v, g in enumerate(germs)
        ]
    return digest(sorted(colour))


def incidence_inputs(seed, index, sizes):
    """The configuration and, per hosting core, its solutions' keys.

    Finding the floor solutions is input generation: the timed part of the
    pass does no floors work.
    """
    rng = pass_rng("incidence", seed, index)
    d = sizes.incidence_d
    cfg = stretched_config(rng, 3 * d - 1, d)
    hosted = {}
    for _diag, curve in floors.enumerate_curves(d, 0, cfg):
        core_key = canonical.canonical_key(solution_core(curve.ctype), labeled="none")
        hosted.setdefault(core_key, set()).add(canonical.canonical_key(curve.ctype, labeled="contracted"))
    return d, cfg, hosted


def incidence_pass(run, inputs, sizes):
    d, cfg, hosted = inputs
    n = 3 * d - 1
    cores = run.job("sweep", corpus.enumerate_cores, d, 0, max_valency=3)
    if cores is None:
        return
    run.untimed()
    if len(cores) != sizes.trivalent_cores:
        run.errors.append(f"sweep returned {len(cores)} cores, expected {sizes.trivalent_cores}")
    keys = [canonical.canonical_key(c, labeled="none") for c in cores]
    index = {k: i for i, k in enumerate(keys)}
    missing = [k for k in hosted if k not in index]
    if missing:
        run.errors.append(f"{len(missing)} hosting cores are missing from the sweep")
    # The drawn cores are fixed by their fingerprints, not by the seed or by
    # the package's core order: per-core scan times are heavy-tailed, so a
    # seeded draw would make the figures depend on which cores it hit.
    prints = [core_fingerprint(c) for c in cores]
    hosts = sorted((index[k] for k in hosted if k in index), key=prints.__getitem__)
    drawn = sorted(
        (i for i in range(len(cores)) if i not in hosts and int(prints[i], 16) % sizes.incidence_mod == 0),
        key=prints.__getitem__,
    )
    found = []
    for i in hosts + drawn:
        label = prints[i][:12]
        hits, record = run.item(label, corpus.scan_fibers, d, 0, cfg.config, cores=[cores[i]])
        if not record["ok"]:
            continue
        got = set()
        for t, fb in hits:
            key = canonical.canonical_key(t, labeled="contracted")
            got.add(key)
            found.append((label, repr(key), fb.kind))
            if fb.kind != "point" or fb.codimension() != 2 * n:
                run.fail(record, f"hit with a {fb.kind} fiber of codimension {fb.codimension()}")
        want = hosted.get(keys[i], set())
        if got != want:
            run.fail(record, f"{len(got)} hits, {len(got & want)} of the {len(want)} floor solutions")
    run.output(json.dumps([[prints[i] for i in hosts + drawn], sorted(found)]).encode())


def make_inputs(workload, seed, index, sizes):
    return {"severi": severi_inputs, "walk": walk_inputs, "incidence": incidence_inputs}[workload](
        seed, index, sizes
    )


def run_pass(workload, inputs, sizes, tracer=None, oracle=None, pacer=None):
    own_pacer = pacer is None
    if own_pacer:
        pacer = pace.Pacer()
        pacer.start()
    run = PassRun(pacer, tracer)
    if workload == "severi":
        severi_pass(run, inputs, oracle)
    elif workload == "walk":
        walk_pass(run, inputs)
    else:
        incidence_pass(run, inputs, sizes)
    if own_pacer:
        pacer.stop()
    run.finish()
    return run
