"""A fixed loop timed between requests, to take the host's speed out of the timings.

On a shared host the same work runs up to 1.7x slower from one minute to
the next, and the slowdown hits interpreted code in much the same way.  So
every gated timing is scaled: a request that took ``t`` seconds between
two timings ``a`` and ``b`` of the loop counts
``t * REF_SECONDS / ((a + b) / 2)``, which reads as seconds on a host where
the loop takes ``REF_SECONDS``.  The loop calls nothing of dpcolor, so a
change to dpcolor shows in full.  On a shared 2-core Intel Xeon VM, six
60-second sweep-k3 runs spread 0.175 (IQR over median of the pass time)
unscaled and 0.075 scaled.  What is left is mostly the loop reacting more
than the sweep to the host's load (by a power of about 0.6 to 0.7), so a
slow minute reads slightly fast.  The loop's time also depends a little on
the state of the process it runs in, so scaled times compare one workload
between commits, not two workloads.
"""

from __future__ import annotations

from time import perf_counter

# about the loop's time on a quiet shared 2-core Intel Xeon VM, Python 3.11
REF_SECONDS = 0.016
# the loop is timed again once this much wall time has passed since it last ran
EVERY_SECONDS = 0.5


def reference_loop() -> int:
    """Fixed interpreter work on a small working set: arithmetic, tuples, a dict.

    It keeps no growing list, so it tracks the host's speed for code that
    stays in cache, as a cover search does, and adds nothing to peak memory.
    """
    s = 0
    d = {}
    t = (0, 0)
    for i in range(60000):
        s += i * i % 7
        d[(i & 511, i & 3)] = s
        t = (i, s)
    return s + len(d) + t[0]


def time_loop() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between loop timings ``before`` and ``after``, scaled."""
    return seconds * REF_SECONDS * 2 / (before + after)


class Yardstick:
    """Scales the request latencies of a pass by the loop timed around them.

    ``begin`` times the loop, ``after`` takes each request's latency and
    times the loop again once ``EVERY_SECONDS`` have passed, and ``end``
    times it a last time if a latency is still open, and returns the
    pass's scaled latencies in order.  A disabled yardstick never runs the
    loop and returns the latencies unscaled, for passes that are not gated.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.loops: list[float] = []  # every timing of the loop, for the report
        self._open: list[float] = []
        self._scaled: list[float] = []
        self._last = 0.0
        self._at = 0.0

    def begin(self) -> None:
        self._open, self._scaled = [], []
        if self.enabled:
            self._last = time_loop()
            self.loops.append(self._last)
            self._at = perf_counter()

    def after(self, latency: float) -> None:
        self._open.append(latency)
        if self.enabled and perf_counter() - self._at >= EVERY_SECONDS:
            self._close()

    def end(self) -> list[float]:
        if self.enabled and self._open:
            self._close()
        out = self._scaled + self._open
        self._open, self._scaled = [], []
        return out

    def _close(self) -> None:
        now = time_loop()
        self.loops.append(now)
        self._scaled += [scaled(t, self._last, now) for t in self._open]
        self._open = []
        self._last = now
        self._at = perf_counter()
