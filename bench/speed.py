"""Timings scaled to a fixed reference speed of the CPU.

On a shared host the CPU's speed can change by half within a fraction of a
second and stay changed for seconds (another tenant's load on the same
physical core, or a frequency change), so the same work timed in two runs
can differ by more than any bound worth setting.  The benchmark therefore
samples the speed while it times: every ``PERIOD_S`` seconds during a timed
operation, a timer signal runs one unit of a fixed reference routine of the
benchmark's own and records the CPU time it took.  An operation that took
``t`` seconds while the reference unit took ``r`` seconds on average is
reported as ``t * REFERENCE_UNIT_S / r``.  A change to the package moves the
scaled time as it moves the wall time; a change in the host's speed moves
both the operation and the reference, and cancels.

The samples are taken in the benchmark's own process.  For work in that
process, the time the samples took is taken out of the operation's wall
time.  For a child process (the ``domminor hunt`` CLI), the samples run
beside it and measure the speed the CPUs had meanwhile; they use CPU time,
not wall time, so that waiting for a CPU the child occupies does not count.

The reference routine never calls the package: over a fixed set of random
graphs kept as adjacency bitsets, it checks for induced 2K2 and finds a
maximum clique by branch and bound, the same mix of small-integer bit
operations, loops and calls as the package.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# The CPU time of one reference unit at the reference speed.  It only fixes
# the scale of the reported numbers (about the time on a 2-core x86 KVM guest
# with Python 3.11 in its faster state); comparisons between two versions of
# the package on one machine do not depend on it.
REFERENCE_UNIT_S = 0.0012
PERIOD_S = 0.05  # one sample per period while an operation runs
OUTLIER = 2.5  # samples slower than this many times their median are dropped


def _graphs() -> list[list[int]]:
    """A fixed set of random graphs, n = 9..12, p = 1/2, as adjacency rows."""
    rng = random.Random(20251018)
    graphs = []
    for k in range(100):
        n = 9 + k % 4
        rows = [0] * n
        for j in range(1, n):
            for i in range(j):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        graphs.append(rows)
    return graphs


def _has_2k2(rows: list[int]) -> bool:
    full = (1 << len(rows)) - 1
    for u, ru in enumerate(rows):
        for v in range(u + 1, len(rows)):
            if ru >> v & 1:
                rest = full & ~ru & ~rows[v] & ~(1 << u) & ~(1 << v)
                m = rest
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    if rows[w] & rest:
                        return True
    return False


def _clique_number(rows: list[int]) -> int:
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(cand & rows[v], size + 1)

    grow((1 << len(rows)) - 1, 0)
    return best


class ReferenceClock:
    """Times operations and scales them to the reference speed."""

    def __init__(self):
        self.graphs = _graphs()
        self.samples: list[float] = []  # CPU time of every reference unit run
        self.sampling_s = 0.0  # wall time spent running them

    def _sample(self, *_) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        for rows in self.graphs:
            _has_2k2(rows)
            _clique_number(rows)
        self.samples.append(time.thread_time() - c0)
        self.sampling_s += time.perf_counter() - w0

    def measure(self, fn, *args):
        """Runs ``fn(*args)`` while sampling the speed.  Returns its result, its
        wall time without the samples taken in this process, and the factor
        that scales a time of this interval to the reference speed."""
        self._sample()
        first = len(self.samples) - 1
        before = self.sampling_s
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0 - (self.sampling_s - before)
        self._sample()
        samples = self.samples[first:]
        # a sample the host preempted says nothing about the speed: drop it
        cut = OUTLIER * statistics.median(samples)
        unit = statistics.fmean(x for x in samples if x <= cut)
        return result, wall, REFERENCE_UNIT_S / unit

    def summary(self) -> dict:
        """The samples' median unit time and quartile spread, for the info line."""
        q = statistics.quantiles(self.samples, n=4) if len(self.samples) > 1 else [self.samples[0]] * 3
        return {"reference_unit_ms": q[1] * 1000, "reference_spread": (q[2] - q[0]) / q[1],
                "reference_samples": len(self.samples)}
