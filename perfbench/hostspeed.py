"""Host-speed probe: report times in seconds at a fixed reference speed.

The benchmark's host is a share of a machine whose speed jumps between a
fast and a slow state, about 2x apart, many times a minute.  A raw wall time
measures the share of the run spent in each state as much as patlab.  The
probe here is a short, fixed piece of pure-Python work that imports nothing
from patlab.  It runs every PROBE_INTERVAL_S of wall time inside a timed
region, from a SIGALRM handler in the measured process itself, so its times
sample the host's speed uniformly over the region.  A region that took t
seconds less the probes inside it is reported as

    t * REFERENCE_S * mean(1 / probe time)

that is, the time it would take at the speed at which the probe takes
REFERENCE_S: the mean of 1 / probe time is proportional to the mean speed
over the region.  A change to patlab moves t and leaves the probe alone, so
it moves the scaled time by the same factor; a slower host moves both and
cancels.  A region too short for BRACKET probes inside it is scaled by
BRACKET probes taken right after it.

A traced iteration is probed in the same way.  Its spans are timed with a
clock that stands still while a probe runs, so no probe lands in a layer's
time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager, nullcontext

PROBE_LOOPS = 2_500
# About the probe's time on the 2-vCPU host the baseline was recorded on.
REFERENCE_S = 0.0019
PROBE_INTERVAL_S = 0.0625
BRACKET = 10


def _reference_work(loops: int = PROBE_LOOPS) -> int:
    """Tuples, sorting, dict updates and small-int arithmetic, the mix the
    interpreter runs in patlab's enumerators and matchers."""
    seen: dict = {}
    acc = 0
    for i in range(loops):
        t = (i % 7, i % 11, i % 13)
        s = sorted(t)
        seen[t] = seen.get(t, 0) + s[0]
        acc += s[1] * s[2]
    return acc + len(seen)


def scale(seconds: float, probes: list[float]) -> float:
    """`seconds` measured while `probes` were taken, in reference seconds."""
    return seconds * REFERENCE_S * statistics.fmean(1 / p for p in probes)


class HostSpeed:
    """The probe times of one process, and the time the probes took from
    inside a timed region, which `timed` subtracts."""

    def __init__(self, clock=time.perf_counter, work=_reference_work):
        self.clock = clock
        self.work = work
        self.probes: list[float] = []
        self.stolen = 0.0

    def probe(self, count: int = 1) -> list[float]:
        """Time `count` probes; return their times."""
        times = []
        for _ in range(count):
            start = self.clock()
            self.work()
            times.append(self.clock() - start)
        self.probes += times
        return times

    def _on_alarm(self, signum, frame) -> None:
        start = self.clock()
        self.probe()
        self.stolen += self.clock() - start

    def unprobed_clock(self) -> float:
        """A clock that stands still while a probe runs inside a region."""
        stolen = self.stolen    # read first: a probe in between then counts
        return self.clock() - stolen

    @contextmanager
    def sampling(self, interval: float = PROBE_INTERVAL_S):
        """Probe every `interval` seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, sample: bool = True):
        """(fn(), its wall seconds, the same in reference seconds).

        The wall seconds exclude the probes taken inside fn, which happens
        only with `sample`.
        """
        first = len(self.probes)
        with self.sampling() if sample else nullcontext():
            before, start = self.stolen, self.clock()
            out = fn()
        elapsed = self.clock() - start - (self.stolen - before)
        inside = self.probes[first:]
        if len(inside) < BRACKET:
            inside = self.probe(BRACKET)
        return out, elapsed, scale(elapsed, inside)
