"""Host-speed sampling, to take the host's speed swings out of timings.

On a shared host the CPU speed available to one process can swing by 2x
within seconds (the process's CPU time swings with its wall time, so it is
not preemption that can be subtracted).  While a `Sampler` is active, a
SIGALRM handler runs a fixed reference kernel (dense eigvalsh, a complex
matmul, small sorts and a Python loop, like the package's own mix) every
`INTERVAL_S` of wall time and records the CPU time it took.  CPU time, not
wall time, so that a timed child process sharing the CPU does not read as a
slow host.  `scaled(t0, t1)` turns a measured interval into *reference
seconds*: the interval minus the CPU time the handler took inside it, times
the mean of `REF_NOMINAL_S` over each reference time sampled during and
next to the interval (the mean host speed relative to nominal).  The
numbers then read as seconds on a host where the kernel takes
`REF_NOMINAL_S`.

Child processes share the sampled CPU only if they run on it, so
`pin_to_one_cpu()` should be called first when children are timed.
"""

from __future__ import annotations

import bisect
import os
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Reference-kernel time on an uncontended core of the machine the benchmark
# was defined on (2 vCPU, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, 1 thread).
REF_NOMINAL_S = 0.0025


def pin_to_one_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Context manager; single-threaded, one per process."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._h = a + a.conj().T
        self._b = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._v = rng.standard_normal(30)
        self.starts: list[float] = []      # wall clock, perf_counter
        self.cpu: list[float] = []         # thread CPU seconds of each kernel run
        self._previous = None
        self._busy = False

    def _kernel(self) -> None:
        for _ in range(4):
            np.linalg.eigvalsh(self._h)
            self._b @ self._b
            for _ in range(40):
                np.cumsum(np.sort(self._v)[::-1])
            x = 0.0
            for i in range(2000):
                x += i * 0.5

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        try:
            start, cpu = time.perf_counter(), time.thread_time()
            self._kernel()
            self.cpu.append(time.thread_time() - cpu)
            self.starts.append(start)
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        for _ in range(5):
            self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds for the wall interval [t0, t1]."""
        inside_lo = bisect.bisect_left(self.starts, t0)
        inside_hi = bisect.bisect_right(self.starts, t1)
        busy = t1 - t0 - sum(self.cpu[inside_lo:inside_hi])
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo == hi:
            if not self.starts:
                raise RuntimeError("no host-speed samples were taken")
            nearest = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - t0))
            lo, hi = nearest, nearest + 1
        speed = sum(REF_NOMINAL_S / c for c in self.cpu[lo:hi]) / (hi - lo)
        return busy * speed
