"""A fixed probe of how fast the host runs this process right now.

The virtual CPUs of a shared host switch between a fast state and a slow
one about 1.6 times slower, often within a second, and a phase can also
last minutes.  A 2 s operation spans many switches, so its latency mixes
the two states in a share that changes from run to run; that share, not
the program, set most of the run-to-run spread of the timings.

``probe()`` times a fixed piece of Python and numpy work that uses nothing
of soliton_lab: scalar float arithmetic in a Runge-Kutta-like stage loop,
then small array operations and 3x3 solves, the two kinds of work the
solver does.  ``Sampler.time_call`` probes just before and just after a
timed call and, from a SIGALRM handler, every ``INTERVAL_S`` of wall time
during it; the handler's time is taken out of the call's latency.  A
latency is then scaled by ``REFERENCE_S`` over the mean probe time, so
every reported time is the time the call would take at the probe's
reference speed.  A change to the program moves the scaled time as much
as the raw one; only the host's speed is taken out.
"""

from __future__ import annotations

import gc
import math
import os
import signal
import statistics
import time

import numpy as np

# The probe's median time on the reference host: a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7, numpy 2.4.6.  It fixes the unit of the
# scaled times and nothing else.
REFERENCE_S = 0.00115
# About 1 ms of probing every 50 ms: 2-3 % of a call's wall time, taken
# out of its latency again.
INTERVAL_S = 0.05

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_EYE = np.eye(3)
_WEIGHTS = tuple(0.1 * k for k in range(1, 13))


def _work(steps: int) -> float:
    acc = 0.0
    y = 0.3
    for _ in range(3 * steps):
        stages = []
        for w in _WEIGHTS:
            d = 0.0
            for k in stages:
                d += w * k
            stages.append(-(1.0 + 2.0 * y + d * y * y) / (1.0 + w) * (1.0 + y * y) ** 0.75)
        y = 0.3 + 1e-3 * math.sqrt(abs(stages[-1]))
        acc += y
    v = np.linspace(0.1, 1.0, 3)
    for i in range(2 * steps):
        x = np.linalg.solve(_A + (1e-3 * i) * _EYE, v)
        v = 0.5 * (v + np.abs(x)) + 1e-3
        acc += float(np.max(v))
    return acc


def probe() -> float:
    """Wall time of one fixed piece of work, in seconds, with no garbage
    collection inside.  A sixth of the work runs first, untimed, so what
    the interrupted or preceding call left in the caches does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work(3)
        t0 = time.perf_counter()
        _work(18)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU, so the
    probes and the timed calls see the same CPU's state."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s


class Sampler:
    """Times calls with host-speed probes before, after and during them.

    ``during=False`` probes only before and after, for the traced run,
    whose spans would otherwise hold the handler's time.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self._samples: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        p = probe()
        self._samples.append((t0, time.perf_counter() - t0, p))

    def time_call(self, fn):
        """Run ``fn()``; return its result, its wall time less the handler's
        time, and the mean probe time before, during and after it."""
        self._samples = []
        before = probe()
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        inside = [s for s in self._samples if s[0] < t1]
        after = probe()
        probe_s = statistics.fmean([before, after, *(s[2] for s in inside)])
        return result, t1 - t0 - sum(s[1] for s in inside), probe_s
