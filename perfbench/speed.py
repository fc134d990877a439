"""Machine-speed probe, for timing on a shared host.

On a shared virtual machine the speed of a core drifts by a quarter and
more within seconds, while other tenants come and go; process CPU time
drifts with it, so neither wall time nor CPU time repeats between runs.
The probe samples that speed where the work runs: a timer signal every
``PERIOD_S`` interrupts the process between bytecodes and times a fixed
piece of interpreted Python and small numpy calls, the same kind of work
the program does.  A measured time is then scaled to a core on which the
probe takes ``NOMINAL_S``, after the probes' own time is taken out of it:

    scaled = (measured - time spent in probes) * NOMINAL_S / mean probe time

Timers are not inherited by forked workers, so only this process is probed.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.005
NOMINAL_S = 100e-6
_PROBE_LOOPS = 60
_MATRIX = np.arange(9.0).reshape(3, 3)


def _probe_work() -> float:
    s = 0.0
    for i in range(_PROBE_LOOPS):
        s += math.sqrt(i + 1.0)
        s += float((_MATRIX @ _MATRIX[0])[0])
    return s


class SpeedProbe:
    """Context manager that probes the machine speed while it is open."""

    def __init__(self):
        self.total = 0.0  # wall seconds spent inside probes
        self.cpu = 0.0  # CPU seconds of the same probes
        self.count = 0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        cpu = thread_time()
        _probe_work()
        self.cpu += thread_time() - cpu
        self.total += perf_counter() - start
        self.count += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return self.total, self.cpu, self.count

    def factor(self, since: tuple[float, float, int] = (0.0, 0.0, 0)) -> float:
        """NOMINAL_S over the mean probe CPU time since ``since``: below 1 on a slow core."""
        cpu, count = self.cpu - since[1], self.count - since[2]
        if count == 0:
            raise RuntimeError("no speed probe fired; the interval is too short")
        return NOMINAL_S / (cpu / count)

    def clock(self) -> float:
        """perf_counter() less the time spent in probes so far."""
        return perf_counter() - self.total
