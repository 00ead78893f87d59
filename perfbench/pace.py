"""Host speed, measured with a fixed reference kernel while the jobs run.

On a shared host the same work runs at different speeds from one second to
the next: on a 2-core VM one count took 155 ms or 280 ms, switching every
few seconds.  So a `Pacer` interrupts the process every PROBE_EVERY_S with a
SIGALRM and runs a short probe of a fixed pure-Python kernel from the
handler, inside the jobs as well as between them.  A stretch of time between
two probes is scaled by the mean speed the two probes saw:

    scaled = seconds * REFERENCE_KERNEL_S / (kernel seconds around them)

A scaled time is the time the work would take on a host where one kernel
call takes REFERENCE_KERNEL_S.  The time spent in probes is left out of
both raw and scaled times.  The kernel uses only the standard library
(exact fractions, dicts, tuples, sorting, as the package does), so a change
to the package changes the scaled times and not the kernel.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

# median seconds of one kernel call over 100 probes on a 2-core Xeon VM at
# 2.1 GHz with Python 3.11; any constant works, this one keeps scaled
# times close to the seconds measured there
REFERENCE_KERNEL_S = 0.00018
PROBE_EVERY_S = 0.2
PROBE_S = 0.01


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        acc += Fraction(i % 7 + 1, i % 13 + 1)
        key = (i % 11, i % 3)
        table[key] = table.get(key, 0) + i
    return acc, sorted(table.items())[:2]


def probe(seconds=PROBE_S):
    """Mean seconds of one kernel call over a probe of about `seconds`,
    with the garbage collector held off so that it collects none of the
    caller's objects inside the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        calls = 0
        t0 = perf_counter()
        while True:
            kernel()
            calls += 1
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / calls
    finally:
        if enabled:
            gc.enable()


def scale(kernel_s):
    """Factor that turns seconds at the speed `kernel_s` into scaled seconds."""
    return REFERENCE_KERNEL_S / kernel_s


class Pacer:
    """Probes the host speed on a timer and scales stretches of time."""

    def __init__(self):
        self.starts = []  # perf_counter() at the start of each probe
        self.ends = []
        self.kernel_s = []
        self._handler = None
        self._probing = False

    def probe(self, seconds=PROBE_S):
        self._probing = True
        try:
            t0 = perf_counter()
            k = probe(seconds)
            self.starts.append(t0)
            self.ends.append(perf_counter())
            self.kernel_s.append(k)
        finally:
            self._probing = False
        return k

    def _on_alarm(self, _signum, _frame):
        # a probe stalled past the next alarm is not interrupted by another
        if not self._probing:
            self.probe()

    def start(self):
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        """Stop the timer and probe once more, so the last job is bracketed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.probe()

    def split(self, t0, t1):
        """(raw, scaled) seconds of [t0, t1] outside the probes.  Before the
        first probe and after the last, the nearest probe's speed holds."""
        raw = scaled = 0.0
        n = len(self.kernel_s)
        i = bisect.bisect_right(self.ends, t0) - 1  # last probe ended by t0
        while i < n:
            lo = self.ends[i] if i >= 0 else t0
            if lo >= t1:
                break
            hi = self.starts[i + 1] if i + 1 < n else t1
            near = self.kernel_s[max(i, 0) : i + 2]
            part = max(0.0, min(t1, hi) - max(t0, lo))
            raw += part
            scaled += part * scale(sum(near) / len(near))
            i += 1
        return raw, scaled
