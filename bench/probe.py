"""Host-speed probe: a fixed piece of pure-Python work, timed between
operations, by which the benchmark scales its times.

The machines this benchmark runs on are shares of busy hosts whose speed
drifts by up to a half within a minute, for the program and for any other
code alike.  Timing this probe before and after every operation, and every
INTERVAL_S during it (Sampler), and reporting

    scaled time = wall time * REF_S / (mean probe time around it)

cancels that drift: the scaled time is what the operation would take on a
host where the probe takes REF_S seconds.  The wall time excludes the
probes run during the operation.  The probe is part of the
benchmark, not of the program, so a change to the program moves the
scaled times exactly as it moves the wall times at a fixed host speed.

The work resembles the program's own: exact rational elimination and a
breadth-first walk over a dict of tuples.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# median probe time on the 2-vCPU Xeon VM the benchmark was written on
REF_S = 0.0015
# time between probes during an operation
INTERVAL_S = 0.05

_N = 7        # side of the rational matrix
_GRID = 20    # side of the walked grid
_RESULT = None


def _work():
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
          for j in range(_N)] for i in range(_N)]
    rank = 0
    for c in range(_N):
        p = next((r for r in range(rank, _N) if m[r][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        piv = m[rank]
        for r in range(_N):
            if r != rank and m[r][c]:
                f = m[r][c] / piv[c]
                m[r] = [x - f * y for x, y in zip(m[r], piv)]
        rank += 1
    seen, frontier = {(0, 0): 0}, [(0, 0)]
    for step in range(1, 2 * _GRID):
        nxt = []
        for x, y in frontier:
            for q in ((x + 1, y), (x, y + 1)):
                if q[0] < _GRID and q[1] < _GRID and q not in seen:
                    seen[q] = step
                    nxt.append(q)
        frontier = nxt
    return rank, len(seen), sum(seen.values())


def probe():
    """Seconds the probe work takes now."""
    global _RESULT
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = _work()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if _RESULT is None:
        _RESULT = got
    elif got != _RESULT:
        raise RuntimeError("probe work gave %r, then %r" % (_RESULT, got))
    return dt


class Sampler:
    """Context manager that times the probe every INTERVAL_S seconds while
    it is entered, from a SIGALRM handler, so that an operation that runs
    long is scaled by the host's speed during it and not only at its ends.
    ``times`` holds the probe times, ``spent`` the seconds the handler
    took, which the caller takes out of the operation's latency, and
    ``clock`` is a clock that stands still while the handler runs."""

    def __init__(self):
        self.times, self.spent, self.total, self._old = [], 0.0, 0.0, None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.times.append(probe())
        dt = time.perf_counter() - t0
        self.spent += dt
        self.total += dt

    def clock(self):
        return time.perf_counter() - self.total

    def __enter__(self):
        self.times, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def probe_median(k=3):
    return statistics.median(probe() for _ in range(k))


def warm_up(k=20):
    for _ in range(k):
        probe()
