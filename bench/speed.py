"""Machine speed, sampled while the benchmark's operations run.

On the 2-vCPU shared host the benchmark was tuned on, identical work ran at
speeds up to 2x apart, changing within seconds and in phases of one to two
minutes, so a whole run could sit in a fast or a slow phase.  A fixed
bench-owned loop timed before and after each operation did not track that:
the speed had often changed by the time the operation ran.

`Meter` samples the speed during the measured work instead.  A SIGALRM
every INTERVAL_S seconds (SETUP_INTERVAL_S during the short set-up) runs
`probe()`, about 1 ms of work, in the main thread between two bytecodes of
whatever runs there, and records its time.  While the program sits in one
long C call (HiGHS) the signal waits for it to return.  `scale()` gives the
factor that turns a wall time measured while the meter ran into the time at
reference speed, where `probe()` takes REF_PROBE_S: the mean of
REF_PROBE_S / sample, which is the work done per second relative to the
reference, averaged over time.  The probe uses no program code, so a change
to the program moves the scaled times as it would move wall times at a
fixed machine speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.01
REF_PROBE_S = 0.001


def probe() -> float:
    """Seconds taken by a fixed mix of rational arithmetic and dict updates,
    the kind of work the program spends its time on."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 200):
        total += Fraction(i % 9 + 1, i % 13 + 1)
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start


class Meter:
    def __init__(self) -> None:
        self.samples: list[float] = []
        probe()  # warm the probe's code paths before any sample counts

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self, interval: float = INTERVAL_S) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_s(self, since: int = 0) -> float:
        """Seconds spent in samples taken since sample number `since`."""
        return sum(self.samples[since:])

    def scale(self, since: int = 0) -> float:
        """Reference time per wall second over the samples since `since`,
        or over all samples when the work was shorter than one interval."""
        taken = self.samples[since:] or self.samples
        return sum(REF_PROBE_S / s for s in taken) / len(taken)
