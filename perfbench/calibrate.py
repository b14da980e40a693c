"""Host-speed calibration for the dentdet benchmark.

The benchmark runs on shared hosts whose speed changes by half again within
seconds and for minutes at a time.  Wall-clock time then measures the host
as much as the program.  :class:`HostClock` measures the host alongside the
program: an interval timer interrupts the main thread every ``PERIOD_S`` and
runs a fixed reference kernel there, between two bytecodes of whatever is
running.  The kernel's duration tracks the host's current speed.

A measured interval is converted to *calibrated seconds*: its wall time,
less the time spent in the kernel, scaled by how much faster or slower the
kernel ran than its nominal ``REFERENCE_S``.  Uniform sampling makes that a
time average, so a slow spell shortens the calibrated time in proportion to
how long it lasted.  On a host in the state where ``REFERENCE_S`` was
measured, calibrated and wall seconds agree.

The kernel does what dentdet spends its time on.  One part is scalar Python
arithmetic, dict updates and small numpy calls on the main thread.  The
other runs vector numpy work on both cores at once, half of it on a helper
thread, because dentdet's BLAS calls use both cores and slow down when the
second one is busy elsewhere.  Its threads are its own: its one BLAS call
is far below the size at which OpenBLAS starts threads, so the program's
BLAS thread count does not change the kernel.
"""

from __future__ import annotations

import signal
import threading
import time

import numpy as np

PERIOD_S = 0.1  # interval between two reference samples
REFERENCE_S = 0.0021  # kernel duration on the baseline host in its usual state
MIN_SAMPLES = 3  # an interval with fewer uses the nearest samples instead

_RNG = np.random.default_rng(20230311)
_SCALARS = [float(x) for x in _RNG.random(1000)]
_VECTOR = _RNG.random(2048)
_MATRIX = _RNG.random((48, 48))
_HALVES = (_RNG.random(25_000), _RNG.random(25_000))  # small enough to stay in cache


def _vector_work(x: np.ndarray) -> float:
    return sum(float(np.exp(-np.sqrt(x * k + 0.3)).sum()) for k in (1.7, 2.3))


class _Helper:
    """A thread that does the second half of the kernel's vector work."""

    def __init__(self):
        self._go = threading.Event()
        self._done = threading.Event()
        self._stop = False
        self._thread = threading.Thread(target=self._serve, name="host-clock", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            self._go.wait()
            self._go.clear()
            if self._stop:
                return
            _vector_work(_HALVES[1])
            self._done.set()

    def vector_work(self) -> float:
        """Both halves at once, one on this thread and one on the helper."""
        self._go.set()
        s = _vector_work(_HALVES[0])
        self._done.wait()
        self._done.clear()
        return s

    def close(self) -> None:
        self._stop = True
        self._go.set()
        self._thread.join()


def reference_kernel(helper: _Helper) -> float:
    """Fixed work of about two milliseconds; returns a checksum."""
    s = helper.vector_work()
    for i in range(2000):
        a = _SCALARS[i % 1000]
        s += (a * 1.5 - 0.25) / (1.0 + a)
    x = _VECTOR
    for _ in range(20):
        x = np.exp(-x) * 0.5 + np.minimum(x, 0.3)
        s += float((_MATRIX @ _MATRIX[:, :8])[0, 0])
        s += float(np.argsort(x[:256])[0])
    d: dict[int, float] = {}
    for i in range(600):
        k = (i * 7919) % 1013
        d[k] = d.get(k, 0.0) + _SCALARS[i % 1000]
    return s + sorted(d.items())[0][1]


def _cpu_jiffies() -> list[int] | None:
    """user, nice, system, idle, iowait, irq, softirq, steal of all CPUs."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):  # not Linux, or a kernel without steal
        return None


class HostClock:
    """Samples the reference kernel from a timer while the ``with`` block runs.

    Only the main thread may install it.  Entering and leaving the block
    each take one sample, so every interval has a nearest one.  Leaving
    stops the timer and restores the previous SIGALRM handler.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._helper = None
        self._busy = False
        self._jiffies = []

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a stalled host can fire the timer inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel(self._helper)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> HostClock:
        self._jiffies.append(_cpu_jiffies())
        self._helper = _Helper()
        reference_kernel(self._helper)  # untimed: the first run is cold
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        self._helper.close()
        self._jiffies.append(_cpu_jiffies())

    def steal_pct(self) -> float | None:
        """Share of the machine's CPU time the hypervisor took, in percent.

        Calibration follows steal only in part: a BLAS call waits for the
        slower of its two threads, so a stolen core slows dentdet more than
        the kernel.  The share explains runs that read slow.
        """
        before, after = self._jiffies
        if before is None or after is None:
            return None
        delta = [b - a for a, b in zip(before, after)]
        return 100.0 * delta[7] / max(sum(delta), 1)

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """(busy wall seconds, calibrated seconds) of ``[start, end)``.

        Busy time excludes the samples taken inside the interval; it is
        scaled by the interval's :meth:`speed`.
        """
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        inside = (starts >= start) & (starts < end)
        busy = end - start - float(durations[inside].sum())
        return busy, busy * self.speed(start, end)

    def speed(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Mean of ``REFERENCE_S / duration`` over the samples in ``[start, end)``.

        1.0 is the nominal state.  With fewer than ``MIN_SAMPLES`` samples
        in the range, the ``MIN_SAMPLES`` nearest to its middle stand in.
        """
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        inside = (starts >= start) & (starts < end)
        if inside.sum() >= MIN_SAMPLES:
            used = durations[inside]
        else:
            mid = 0.5 * (start + end)
            used = durations[np.argsort(np.abs(starts - mid))[:MIN_SAMPLES]]
        return float(np.mean(REFERENCE_S / used))
