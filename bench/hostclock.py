"""Job times rescaled to a host of fixed speed.

The shared host runs pure Python at one of two speeds, about 1.6x apart,
switching every second or so and spending a share of time in the slow
state that itself drifts over minutes.  Wall time therefore moves by
10-25% between runs of identical work.  A short reference loop is timed
between jobs and, for workloads that run the program in this process,
every ``PROBE_PERIOD_S`` from a SIGALRM handler, so that even a 20 s job
is sampled throughout.  Each stretch of wall time is scaled by the speed
the last probe saw; a *calibrated second* is a wall second on a host
where the loop takes ``NOMINAL_S``.  The probes' own time is left out of
both clocks.
"""

from __future__ import annotations

import contextlib
import signal
import time

LOOP_ITERATIONS = 10000
NOMINAL_S = 0.0025   # the loop's time on the reference host
PROBE_PERIOD_S = 0.1

# Environment for every process that runs the program: one BLAS thread,
# so that no second thread competes with the first for the host, and the
# CLI's output bytes do not depend on how work was split between threads.
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_TABLE = {(a, b): (a * 7 + b) % 1000 for a in range(30) for b in range(30)}


def reference_loop() -> None:
    """Dict lookups on tuple keys, the kind of work the library does most."""
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += _TABLE[(i % 30, i * 7 % 30)]


class HostClock:
    """Wall and calibrated time from the timings of the reference loop.

    ``sample(t, loop_s)`` records that the loop ran from ``t`` for
    ``loop_s`` seconds.  ``read(t)`` gives ``(wall, calibrated)`` at ``t``:
    wall time less the loop's own runs, and the calibrated time, which
    advances at ``nominal_s / loop_s`` of the latest sample.
    """

    def __init__(self, nominal_s: float, t: float, loop_s: float):
        self.nominal_s = nominal_s
        self.loops = [loop_s]
        self._since = t + loop_s  # end of the latest sample
        self._rate = nominal_s / loop_s
        self._calibrated = 0.0    # calibrated seconds up to ``_since``
        self._paused = loop_s     # wall seconds spent in the loop

    def sample(self, t: float, loop_s: float) -> None:
        self._calibrated += (t - self._since) * self._rate
        self._since = t + loop_s
        self._rate = self.nominal_s / loop_s
        self._paused += loop_s
        self.loops.append(loop_s)

    @property
    def since(self) -> float:
        """When the latest sample ended."""
        return self._since

    def read(self, t: float) -> tuple[float, float]:
        return t - self._paused, self._calibrated + (t - self._since) * self._rate


def timed_loop() -> tuple[float, float]:
    """(start, seconds) of one run of the reference loop."""
    start = time.perf_counter()
    reference_loop()
    return start, time.perf_counter() - start


@contextlib.contextmanager
def alarm_blocked():
    """Holds SIGALRM, and so the probe, back until the block ends."""
    old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


class Stopwatch:
    """Times one job at a time on a HostClock.

    Used as a context manager it also probes every ``period_s`` seconds
    (None: only when ``probe`` is called).  SIGALRM is blocked while the
    clock is sampled or read, so a probe never lands inside another one or
    between a reading of the time and its use.
    """

    def __init__(self, period_s: float | None = PROBE_PERIOD_S, nominal_s: float = NOMINAL_S):
        self.period_s = period_s
        self._warmup_s = timed_loop()[1]
        self.clock = HostClock(nominal_s, *timed_loop())
        self._began = None
        self._handler = None

    @property
    def probe_s(self) -> float:
        """Wall seconds spent in the reference loop, warm-up included."""
        return self._warmup_s + sum(self.clock.loops)

    def probe(self) -> None:
        with alarm_blocked():
            self.clock.sample(*timed_loop())

    def _on_alarm(self, signum, frame) -> None:
        # an alarm held back during a probe arrives as it ends; skip it
        if time.perf_counter() - self.clock.since >= self.period_s / 2:
            self.probe()

    def __enter__(self):
        if self.period_s:
            self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s:
            with alarm_blocked():
                signal.setitimer(signal.ITIMER_REAL, 0)
                if signal.SIGALRM in signal.sigpending():
                    signal.sigwait({signal.SIGALRM})  # not for the restored handler
                signal.signal(signal.SIGALRM, self._handler)

    def _read(self) -> tuple[float, float]:
        with alarm_blocked():
            return self.clock.read(time.perf_counter())

    def start(self) -> None:
        self._began = self._read()

    @property
    def running(self) -> bool:
        return self._began is not None

    def stop(self) -> tuple[float, float]:
        """Ends the job; returns its ``(wall_s, calibrated_s)``."""
        wall, calibrated = self._read()
        lap = (wall - self._began[0], calibrated - self._began[1])
        self._began = None
        return lap
