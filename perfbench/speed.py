"""Host speed reference: turns CPU seconds measured here into reference seconds.

A shared host runs this process at a speed that changes from second to
second (another tenant on the same core, clock changes).  Wall time also
counts the time the process waits to be scheduled.  The benchmark therefore
times its regions in CPU seconds of the thread doing the work and divides
by the host's current speed, measured with ``reference_work``: a fixed piece
of pure-Python integer arithmetic whose CPU time is sampled while the region
runs.  A reported time is the CPU time the region would take on a host where
one ``reference_work`` call takes ``REFERENCE_S``.

``reference_work`` is part of the benchmark, not of the package, so a change
to the package moves the reported times and leaves the reference alone.
"""

from __future__ import annotations

import math
import signal
import time

REFERENCE_S = 1e-3  # CPU seconds of one reference_work call on the nominal host
SAMPLE_INTERVAL_S = 0.02


def reference_work() -> None:
    """A fixed unit of pure-Python integer arithmetic (under 1 ms here).

    It allocates only integers, which the cyclic collector does not track,
    so a sample never pays for a collection of the workload's objects.
    """
    acc = 0
    for i in range(1, 2000):
        n, d = i * i + 1, 6 * i + 7
        acc += n * d // math.gcd(n, d)


def time_reference() -> float:
    """CPU seconds of one reference_work call on this thread."""
    t0 = time.thread_time()
    reference_work()
    return time.thread_time() - t0


def host_factor(samples: list[float]) -> float:
    """REFERENCE_S over the mean of the fastest three fifths of the samples.

    Of the estimators tried (mean, median, means of the fastest 40 to 90 per
    cent), this one tracked the CPU time of a fixed lazy-catalog solve most
    closely on a shared 2-vCPU Xeon VM: over about a hundred 1-second solves
    the spread of the CPU times fell from 11-25 % to 3-4 % once scaled.
    """
    kept = sorted(samples)[: max(1, len(samples) * 3 // 5)]
    return REFERENCE_S * len(kept) / sum(kept)


class Speedometer:
    """Samples ``reference_work`` every ``SAMPLE_INTERVAL_S`` of CPU time in a region.

    A ``SIGPROF`` handler takes each sample on the main thread, between two
    bytecodes of the code being timed, so the samples run on the same CPU at
    the same moments as that code.  ``work_cpu`` is the thread's CPU time
    less the time the samples took.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        t = time_reference()
        self.samples.append(t)
        self.busy_s += t

    def work_cpu(self) -> float:
        """CPU seconds of this thread, the samples left out."""
        return time.thread_time() - self.busy_s

    def __enter__(self) -> Speedometer:
        self._old_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        if not self.samples:  # a region shorter than one interval
            self._sample(None, None)
