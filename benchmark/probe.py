"""Fixed reference probes for the host's current speed.

The hosts this benchmark runs on change speed in phases (other tenants,
frequency changes): a plain loop timed back to back varies by nearly 2x
between two-second windows, and CPU time follows wall time, so process
time does not help.  Every timing in the benchmark is therefore taken next
to a probe and rescaled:

    reported = measured * REFERENCE_S / probe

where `probe` is the host's speed while the operation ran, pooled over the
operation's repeats in a run.  It is read by running the probe just before
and just after the operation and, during the operation, by a one-unit
slice of the probe every TICK_S seconds from a timer signal (see round.py),
so a long operation is not judged by its two ends alone; the slices' own
time is taken out of the operation's.
REFERENCE_S is the probe's median on the reference host, so reported
figures read as seconds on that host at its usual speed.  The probe mixes
float arithmetic with small-object method calls, the two kinds of work the
program spends its time on.

Set-up time is mostly process start-up and the import of numpy (dynamic
loading, page faults), which a loop inside one interpreter does not track;
it is rescaled instead by the time a fresh interpreter takes to import
numpy and exit (`spawn_probe`).  A bare interpreter's start-up was tried
first and missed a 30% shift in import cost that this probe follows.

Neither probe shares code with the program, so no change to the program
can move them.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# medians of probe() and spawn_probe() on a 2-CPU Python 3.11.7 host
# (see README.md)
REFERENCE_S = 0.0075
SPAWN_REFERENCE_S = 0.19
# probe() runs UNITS units of work; tick_probe() runs one, every TICK_S
UNITS = 16
TICK_S = 0.02


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, o):
        u = (self.a + self.b) * (o.a + o.b)
        v = (self.a - self.b) * (o.a - o.b)
        return _Pair((u + v) / 2.0, (u - v) / 2.0)

    def add(self, o):
        return _Pair(self.a + o.a, self.b + o.b)


def _work(units):
    x = 0.0
    for i in range(1000 * units):
        x = x * 0.999 + math.sin(i * 0.001)
    z, w = _Pair(1.0, 0.0), _Pair(0.0, 0.001)
    keep = []
    for i in range(125 * units):
        k1 = z.mul(w)
        k2 = z.add(k1).mul(w)
        z = z.add(_Pair(k2.a * 1e-3, k2.b * 1e-3))
        keep.append((k1, i & 63))
        if len(keep) > 64:
            keep.clear()
    return x + z.a


def probe() -> float:
    """Seconds taken by one fixed amount of interpreter work."""
    t0 = time.perf_counter()
    _work(UNITS)
    return time.perf_counter() - t0


def tick_probe() -> float:
    """Seconds taken by one unit of the same work."""
    t0 = time.perf_counter()
    _work(1)
    return time.perf_counter() - t0


def during(before: float, after: float, ticks) -> float:
    """probe() time estimated over an operation from the probes at its ends
    and the tick probes taken while it ran."""
    reads = [before, after] + [UNITS * t for t in ticks]
    return sum(reads) / len(reads)


def spawn_probe() -> float:
    """Seconds for a fresh interpreter to import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def rescale(samples, reference=REFERENCE_S) -> float:
    """Repeats of one operation, as (time, probe estimate) pairs, rescaled
    together: the mean time over the mean probe.  Pooling keeps one
    unlucky probe reading from swinging the result."""
    return sum(m for m, _ in samples) * reference / sum(p for _, p in samples)


if __name__ == "__main__":
    import statistics

    for name, fn, k in (("probe", probe, 400), ("spawn_probe", spawn_probe, 100)):
        runs = [fn() for _ in range(k)]
        q = statistics.quantiles(runs, n=4)
        print(f"{name} median {statistics.median(runs):.6f} s, quartiles {q[0]:.6f} {q[2]:.6f}")
