"""Timing that cancels the speed of the machine, measured in the process.

The machine this was tuned on (2 vCPUs under KVM) changes speed by up to 2x,
from one tenth of a second to the next and over stretches of tens of
seconds, and a second process on the other vCPU does not see the same
changes. So the benchmark measures the speed of its own thread while it
runs: an interval timer interrupts the process every ``INTERVAL_S``, and the
signal handler times a fixed calibration kernel that does not call
gepsolve. Python runs the handler between bytecodes, so it never splits a
BLAS call or a calibration of its own.

A window [t0, t1] of ``perf_counter_ns`` readings is then converted as
follows. The calibrations inside it are cut out. Each stretch between two
calibrations is scaled by ``REFERENCE_NS`` over the mean duration of the
calibrations at its two ends. The sum reads as nanoseconds on a machine
where one calibration takes ``REFERENCE_NS``. A program change moves it as
it moves the wall time; a change of machine speed does not.
"""

from __future__ import annotations

import math
import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np
import scipy.sparse

INTERVAL_S = 0.025
# About the calibration kernel's duration in the fast state of the machine
# the benchmark was tuned on (0.9 to 1.0 ms; 1.5 ms in the slow state), so
# that the figures read near its fast wall times.
REFERENCE_NS = 1_000_000.0
KERNEL_STEPS = 32


class Clock:
    """Calibrations taken by SIGALRM while started; converts windows."""

    def __init__(self):
        g = np.random.default_rng(2507)
        m = g.standard_normal((256, 256))
        self._m = m @ m.T / 256.0
        self._x = g.standard_normal(256)
        # 5-point Laplacian on a 32 x 32 grid
        t = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(32, 32))
        eye = scipy.sparse.eye_array(32)
        self._csr = scipy.sparse.csr_array(scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye))
        self._y = g.standard_normal(32 * 32)
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._previous = None
        self._busy = False

    def kernel(self) -> float:
        """Dense products with a fixed 256 x 256 matrix between small Python
        loops, then sparse products with a fixed grid Laplacian: the mix of
        interpreter work, BLAS calls and CSR products the workloads make.
        Timed in the same run, a dense-only, a sparse-only and a Python-only
        kernel each tracked some of the workloads' ops worse than the mix."""
        x, y = self._x, self._y
        s = 0.0
        for _ in range(KERNEL_STEPS):
            x = self._m @ x
            x = x / math.sqrt(float(x @ x))
            for k in range(40):
                s += k * 0.5
            y = self._csr @ y
            y = y / math.sqrt(float(y @ y))
        return s

    def calibrate(self) -> None:
        if self._busy:  # the timer fired inside a calibration
            return
        self._busy = True
        try:
            t0 = time.perf_counter_ns()
            self.kernel()
            self.starts.append(t0)
            self.ends.append(time.perf_counter_ns())
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.calibrate()

    def start(self) -> None:
        self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.calibrate()

    def ns(self, t0: int, t1: int) -> float:
        """Window [t0, t1] in reference nanoseconds. Needs a calibration
        before t0 and one after t1: take windows between start and stop, or
        call ``calibrate`` after the window."""
        starts, ends = self.starts, self.ends
        first = bisect_left(starts, t0)   # first calibration inside
        last = bisect_right(ends, t1)     # one past the last inside
        if first == 0 or last >= len(starts):
            raise ValueError("window not bracketed by calibrations")
        total = 0.0
        cursor, k = t0, first - 1
        # the stretch from cursor to calibration j lies between k and j
        for j in range(first, last + 1):
            stop = starts[j] if j < last else t1
            speed = (ends[k] - starts[k] + ends[j] - starts[j]) / 2.0
            total += (stop - cursor) * REFERENCE_NS / speed
            if j < last:
                cursor, k = ends[j], j
        return total

    def ms(self, t0: int, t1: int) -> float:
        return self.ns(t0, t1) / 1e6
