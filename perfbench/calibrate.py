"""Host-speed correction for the benchmark's timings.

The speed of the host the benchmark was built on drifts over minutes.  CPU
time drifts as much as wall time, so the cause is the machine, not
scheduling.  Ten-run sets of the same code had raw-time spreads
(Q3 - Q1) / median of up to 0.37, and set medians 25% apart.

So the benchmark samples a fixed pure-Python loop just before, during and
just after each timed region.  The loop does the engine's hot pattern:
small-tuple sorts and dict lookups.  A change to the engine does not move
the loop; a slower host moves both, but not equally.  Regressing the log of
engine time on the log of loop time gave a slope of 0.5-0.6.  That held for
`cyclic_ring(28)` timed between loops (256 pairs), and across whole
`build-verify` and `fixture-suite` runs.  So a time t measured next to loop
time c is reported as t * (REFERENCE_S / c) ** ELASTICITY.  On five
`build-verify` runs this cut the spread from 0.213 to 0.036; scaling by the
full ratio (exponent 1) left 0.201.  Scaled times read as seconds on a host
where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.0025  # the loop's typical time on the reference host
ELASTICITY = 0.5
PERIOD_S = 0.5


def scale(seconds: float, loop: float) -> float:
    return seconds * (REFERENCE_S / loop) ** ELASTICITY


def _loop() -> int:
    table = {(a, b): (a * b) % 16 for a in range(16) for b in range(a, 16)}
    acc = 0
    for a in range(16):
        for b in range(16):
            for c in range(16):
                acc ^= table[tuple(sorted((a, b)))] << (c & 7)
    return acc


def loop_seconds(repeats: int = 3) -> float:
    """The fastest of a few runs of the loop, with the collector paused so a
    large heap in the calling process does not add a collection to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Sampler:
    """Times the loop between operations and, from a SIGALRM handler, every
    PERIOD_S seconds during them, so long operations get samples too.

    ``clock()`` is ``perf_counter`` less the time spent sampling, so a timed
    region that a sample interrupts does not count the sample.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - start
        self._busy = False

    def clock(self) -> float:
        spent = self.spent
        return time.perf_counter() - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
