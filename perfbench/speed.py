"""Wall time scaled to a fixed host speed.

On a shared virtual machine the speed of identical pure-Python work was
seen to switch between two levels about 1.8 times apart, for seconds or
minutes at a time, in the middle of a timed item as often as between runs.
No choice among repeats of an item undoes that, so the benchmark measures
the host's speed while it times: ``SpeedClock`` runs a fixed probe every
``INTERVAL_S`` seconds of a timed region (from a timer signal) and once at
each end.  Each stretch of program time between two probes is divided by
the mean time of those two probes, and multiplied by ``PROBE_REF_S``, the
probe's time on an unslowed host.  The result reads as the region's wall
time on that host.  The probe is plain Python with the stdlib only, shaped
like twistcalc's inner loop (tuple words, a dict, ``Fraction`` arithmetic),
and uses none of the program, so a change to the program does not change
it.  Probe time is left out of the region's time.
"""

from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# The probe's time when the host was not slowed: Intel Xeon, 2 vCPU,
# Python 3.11.7.  Any fixed value would do; this one makes the scaled time
# read close to the wall time on that host.
PROBE_REF_S = 0.00033


def _tensor(rng, n):
    return {
        tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 4))): Fraction(
            rng.randrange(-9, 10), rng.randrange(1, 7)
        )
        for _ in range(n)
    }


_rng = random.Random(0)
_X, _Y = _tensor(_rng, 12), _tensor(_rng, 12)


def probe():
    """A fixed product of two small word -> Fraction dicts; returns its time.

    The collector is paused, so the probe never pays for the program's
    garbage."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    terms = {}
    for wx, cx in _X.items():
        for wy, cy in _Y.items():
            w = wx + wy
            c = terms.get(w, Fraction(0)) + cx * cy
            if c == 0:
                terms.pop(w, None)
            else:
                terms[w] = c
    took = perf_counter() - t0
    if enabled:
        gc.enable()
    return took


class WallClock:
    """Plain wall time, with SpeedClock's interface; for traced runs, whose
    spans should hold no probes."""

    def start(self):
        self._t0 = perf_counter()

    def stop(self):
        self.raw = perf_counter() - self._t0
        return self.raw


class SpeedClock:
    """Times one region at a time: ``start()``, then ``stop()``.

    ``stop()`` returns the region's time scaled to PROBE_REF_S; ``raw`` then
    holds its plain wall time, probes left out."""

    def __init__(self):
        self.raw = None
        self._probes = []
        self._armed = False

    def _tick(self, *_):
        t0 = perf_counter()
        took = probe()
        self._probes.append((t0, t0 + took, took))
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self._probes = []
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._t0 = perf_counter()

    def stop(self):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        inside = [p for p in self._probes[1:] if p[0] < t1]
        first = self._probes[0]
        self._tick()
        bounds = [(self._t0, self._t0, first[2])] + inside + [(t1, t1, self._probes[-1][2])]
        raw = scaled = 0.0
        for (_, end, before), (begin, _, after) in zip(bounds, bounds[1:]):
            raw += begin - end
            scaled += (begin - end) * 2 / (before + after)
        self.raw = raw
        return scaled * PROBE_REF_S
