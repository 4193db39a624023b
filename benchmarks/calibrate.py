"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed changes by
up to 2x, for anything from a fraction of a second to tens of seconds: the
same small forest took 0.08 s per fit for twenty seconds in one process
and 0.15 s for twenty seconds in the next. CPU time moves with wall time
there, so neither can be read as the program's cost on its own.

So while a timed call runs, a timer signal interrupts it every
``INTERVAL`` seconds and times a small fixed ``kernel`` in the same
thread. Each tick's kernel time measures the machine's speed at that
moment; the call's wall time, less the time spent in ticks, is rescaled to
the speed at which the kernel takes ``TICK_REFERENCE_S``. The kernel is the
benchmark's own code and calls nothing in ecoinfer, so a change to the
program cannot move it; a slower program reads slower by the same share as
in raw wall time. Raw wall times are kept in each run's record next to the
rescaled ones.

Python runs a signal handler between bytecodes, so a tick that falls inside
one long native call (a NumPy or SciPy routine) runs when that call
returns.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05
# About the median time of one ``kernel()`` call on a 2-vCPU Xeon (Sapphire
# Rapids, KVM) host in its fast phase: as a tick, after the program's work
# has taken the caches, and warm, back to back, as ``scale_now`` runs it.
# Rescaled times are seconds on that host when nothing slows it; compare
# them with each other rather than with raw wall times.
TICK_REFERENCE_S = 0.0008
WARM_REFERENCE_S = 0.0007

_rng = np.random.default_rng(20180917)
_X = _rng.integers(0, 20, (800, 4)).astype(np.float64)
_Y = _rng.integers(0, 2, 800).astype(np.float64)


def kernel() -> float:
    """Sixteen small threshold searches in NumPy, in the style of a forest's
    split search: many short NumPy calls with the interpreter between them,
    which is the mix the program spends most of its time in. Of the kernels
    tried (also a pure interpreter loop, sorting and binning, streaming
    over 7 MB and random reads from 32 MB), its time tracked the
    workloads' times best across the host's slow and fast phases."""
    s = 0.0
    for f in range(_X.shape[1]):
        for lo in range(0, 800, 200):
            v = _X[lo:lo + 400, f]
            uniq = np.unique(v)
            left = v[:, None] <= ((uniq[1:] + uniq[:-1]) / 2)[None, :]
            s += float((_Y[lo:lo + 400] @ left).sum())
            s += float(left.sum(axis=0).argmin())
    return s


def scale_now(repeats: int = 10) -> float:
    """Scale to the reference speed, from ``repeats`` kernel runs now."""
    kernel()  # the first call in a process is several times slower
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(WARM_REFERENCE_S / k for k in times)


class Calibrator:
    """Times calls and rescales them by the kernel's speed during each."""

    def __init__(self):
        self.ticks: list[float] = []  # kernel seconds, one per tick
        self._spent = 0.0             # seconds spent in ticks so far

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ticks.append(t1 - t0)
        self._spent += time.perf_counter() - t0

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, wall_s, scale)``.

        ``wall_s`` excludes the ticks, and ``wall_s * scale`` is the call's
        time at the reference speed: the mean over the call's ticks of
        ``TICK_REFERENCE_S`` over the tick's kernel time. One tick runs just
        before the call, so even a short call has one.
        """
        first = len(self.ticks)
        self._tick()
        spent = self._spent
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent - spent
        scale = statistics.fmean(TICK_REFERENCE_S / k
                                 for k in self.ticks[first:])
        return result, wall, scale
