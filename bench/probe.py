"""Machine-speed probe, so that timings compare across runs on a shared
machine.

On a 2-vCPU virtual machine (2.1 GHz, Python 3.11) the speed of
pure-Python code drifts by up to 1.7x over seconds as other tenants load
the host: five back-to-back passes over the same 2,388 existence cells
took from 22.4 s to 27.6 s. A fixed exact-arithmetic loop (the probe)
slows down with it, so while the benchmark runs, a SIGALRM timer runs the
probe every PERIOD_S seconds and records how long it took, and every
time is reported at a reference speed, the one at which the probe takes
REFERENCE_S. Divided by the probe's mean time, those five passes agreed
within 1.3% either way. Code with large heaps follows the probe less
closely: the towers scenarios still vary by about 5% from run to run.

The probe uses the standard library's Fraction, never afzp, so a change
to afzp cannot move it. Its own time is left out of every measurement:
`clock()` stops while the probe runs.
"""

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
REFERENCE_S = 0.001


def _probe_loop():
    q = Fraction(0)
    for i in range(1, 150):
        q += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
    return q


class SpeedProbe:
    """Samples the probe's duration while started."""

    def __init__(self):
        self._at = []        # clock() when each sample was taken
        self._cum = [0.0]    # running sum of the sample durations
        self._spent = 0.0    # seconds spent in the probe so far

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        _probe_loop()
        took = time.perf_counter() - start
        self._at.append(start - self._spent)
        self._cum.append(self._cum[-1] + took)
        self._spent += took

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self):
        """Seconds, not counting the time spent in the probe."""
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:    # no probe ran in between
                return now - spent

    def scale(self, t0, t1):
        """Factor from clock() seconds between t0 and t1 to seconds at the
        reference speed, from the samples taken in that interval and the
        last one before it."""
        lo = max(bisect.bisect_left(self._at, t0) - 1, 0)
        hi = max(bisect.bisect_right(self._at, t1), lo + 1)
        return REFERENCE_S * (hi - lo) / (self._cum[hi] - self._cum[lo])

    def seconds(self, t0, t1):
        """clock() seconds from t0 to t1, at the reference speed."""
        return (t1 - t0) * self.scale(t0, t1)
