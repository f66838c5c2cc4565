"""Speed probe: rescales measured work to a fixed reference machine speed.

The machine this benchmark was built on is shared; its speed swings by
+-30% within seconds, so the wall time of the same reconstruction varied by
14% (coefficient of variation) between repeats in one process.  While
installed, the probe's SIGALRM timer fires every INTERVAL_S seconds and the
handler times a fixed kernel: FFT multiplier round trips on arrays of the
workload's image size plus interpreter work, since large-array and
small-array work slow down by different factors when the machine is
contended.  Work time inside a window is the wall time minus the probe's
own time, multiplied by REF_S over the mean kernel time sampled in and
around the window: seconds as they would read on a machine where the kernel
takes REF_S.  On those repeats this varied by 1.5% instead of 14%.

The handler runs in the main thread between bytecodes, so the program and
the probe never interleave inside a numpy call.  Span times recorded by the
tracer include any probe samples that fall inside a span (a few per cent).
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
# Kernel repetitions per image size (6-10 ms each) and the kernel's median time
# on the reference machine (2-core x86_64 VM, numpy 2.4.6).
REPS = {8: 100, 64: 30, 256: 2}
REF_S = {8: 0.0072, 64: 0.0062, 256: 0.0088}


class SpeedProbe:
    """Samples the kernel for images of ``size`` x ``size`` pixels: FFT
    multiplier round trips on a two-channel stack, the operation the
    program's filter banks spend their time in, plus interpreter work."""

    def __init__(self, size):
        n = size
        self._x = np.linspace(-1.0, 1.0, 2 * n * n).reshape(2, n, n)
        self._m = np.linspace(0.5, 1.0, n * (n + 2)).reshape(2, n, n // 2 + 1)
        self._size, self._reps, self._ref_s = n, REPS[n], REF_S[n]
        self.starts, self.durations = [], []
        for _ in range(5):                # warm FFT plans and the allocator
            self._kernel()

    def _kernel(self):
        n = self._size
        for _ in range(self._reps):
            y = np.fft.irfft2(np.fft.rfft2(self._x) * self._m, s=(n, n))
            np.abs(y, out=y)
        total = 0
        for i in range(2000):
            total += i

    def _sample(self, signum, frame):
        begin = time.perf_counter()
        self._kernel()
        self.starts.append(begin)
        self.durations.append(time.perf_counter() - begin)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, begin, end):
        """REF_S over the mean kernel time sampled within one interval of
        the window [begin, end]."""
        lo = bisect.bisect_left(self.starts, begin - INTERVAL_S)
        hi = bisect.bisect_left(self.starts, end + INTERVAL_S)
        near = self.durations[lo:hi] or self.durations
        return self._ref_s / statistics.fmean(near)

    def reference_seconds(self, begin, end):
        """Work seconds in [begin, end], probe time excluded, at the
        reference speed."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        work = end - begin - sum(self.durations[lo:hi])
        return work * self.factor(begin, end)
