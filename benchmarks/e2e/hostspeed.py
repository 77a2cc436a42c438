"""Host-speed calibration for the end-to-end benchmark.

The benchmark runs on shared virtual machines whose speed drifts: the
same pass can take 1.6-1.8x as long for minutes at a time, CPU time
rising with wall time, so neither clock is steady. :class:`SpeedSampler`
measures that drift while the program runs. A ``SIGALRM`` timer
interrupts the program every :data:`INTERVAL_S` seconds to time a fixed
pure-Python loop, and :meth:`SpeedSampler.scaled` turns the wall time of
an interval into reference seconds: its wall time, less the loops run
inside it, times :data:`REF_LOOP_S` over the mean loop time around it.
On a host where the loop takes :data:`REF_LOOP_S`, reference seconds
are wall seconds.

The loop never touches the program, so it measures the host alone and
the correction is the same for every commit of the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Iterations of the calibration loop.
LOOP_ITERATIONS = 10_000
#: The loop's time on the reference host (a 2-vCPU Xeon VM in its fast
#: state, CPython 3.11); interval times are scaled to that host.
REF_LOOP_S = 0.0006
#: Time between two samples while the sampler runs. With a loop of
#: ~0.6-1 ms the samples take ~3 % of the host's time, which
#: :meth:`SpeedSampler.scaled` subtracts again.
INTERVAL_S = 0.025


def calibration_loop() -> float:
    """Seconds one fixed run of pure-Python arithmetic takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Times :func:`calibration_loop` on a timer and scales intervals.

    ``samples`` holds ``(end, seconds)`` pairs: when each loop ended and
    how long it took. Use as a context manager around the code whose
    intervals :meth:`scaled` will convert; call :meth:`sample` at an
    interval's ends, so that even a short interval has samples beside it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous: object = signal.SIG_DFL

    def sample(self, *_: object) -> None:
        took = calibration_loop()
        self.samples.append((time.perf_counter(), took))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        # Restart interrupted system calls (sqlite, file I/O) instead of
        # failing them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop the timer; :meth:`sample` still works when called."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]`` (``perf_counter`` times).

        Uses the samples taken inside the interval plus the nearest one
        on each side, and removes the time of the loops run inside it.
        """
        ends = [at for at, _ in self.samples]
        lo = max(bisect.bisect_left(ends, start) - 1, 0)
        hi = bisect.bisect_right(ends, end) + 1
        window = self.samples[lo:hi]
        inside = sum(took for at, took in window if start <= at - took and at <= end)
        host_loop_s = statistics.fmean(took for _, took in window)
        return (end - start - inside) * REF_LOOP_S / host_loop_s
