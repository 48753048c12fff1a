"""The machine's speed while a pass runs, from a fixed CPU loop timed alongside it.

The benchmark's host is a shared VM whose speed drifts by up to half over
seconds to minutes. A pass that takes 4 s in a fast spell takes 7 s in a
slow one. The drift comes from the machine, not the program, so the
end-to-end times are reported at a fixed reference speed: a pass's time is multiplied by
``REF_BURST_S`` over the median time the reference burst took during that
pass.

During a pass, ``Probe`` times one burst every ``PERIOD_S`` of wall time
from a SIGALRM handler, so the bursts sample the same moments as the pass
and interleave with it inside long calls too. The handler's own time is
taken out of the pass time. Bursts taken only between passes track the
drift far worse, because a single pass spans several speed changes.
"""

from __future__ import annotations

import signal
import statistics
import time

BURST_LOOPS = 20_000
# Median burst time on the 2-vCPU VM where the benchmark was set up
# (CPython 3.11.7). It only fixes the scale of the reported times.
REF_BURST_S = 0.0018
PERIOD_S = 0.1


def burst() -> float:
    """Seconds one run of the reference loop takes."""
    t0 = time.perf_counter()
    x = 0
    for i in range(BURST_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def scale(bursts: list[float]) -> float:
    """Factor that turns seconds measured alongside ``bursts`` into seconds
    at reference speed."""
    return REF_BURST_S / statistics.median(bursts)


class Probe:
    """Times a burst every ``PERIOD_S`` while active (``with Probe() as p``).

    ``p.bursts`` holds the burst times, one taken on entry, and
    ``p.spent_s`` the time the handler took. The caller times the pass from
    inside the block up to ``p.stop()`` and subtracts ``p.spent_s``.
    """

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _fire(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        self.bursts.append(burst())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self.bursts.append(burst())
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __exit__(self, *exc: object) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
