"""Stage times normalised to a reference CPU speed.

On a shared virtual machine the speed of each virtual CPU drifts by a
quarter or more within seconds, independently of the other CPU, so two runs
of the same stage can differ by 30% for no reason in the program.  A fixed
pure-Python calibration loop, interleaved finely with the program in the
same thread, slows down by the same factor.  ``SpeedSampler`` runs that loop
from a ``SIGALRM`` handler every ``PERIOD_S`` while a pass runs, and
``normalised(start, end)`` converts a stage's wall time into normalised
seconds: the time the stage would take if the calibration loop took
``REFERENCE_S``.

The conversion holds only while the stage's work runs on the CPU of the
thread that samples, one CPU at a time.  Work on a second CPU (a process
pool, threads on another CPU) both hides that CPU's drift and slows the
calibration loop down when it shares its CPU with a worker, which would
read as a speed-up.  ``cpu_seconds`` lets the caller see that: a stage whose
CPU time clearly exceeds its wall time (``used_more_than_one_cpu``) cannot
be normalised.
"""
from __future__ import annotations

import bisect
import os
import resource
import signal
import statistics
import time

PERIOD_S = 0.1
# A typical calibration time inside a pass on a 2-vCPU machine with
# Python 3.11; it only sets the scale of the normalised seconds.
REFERENCE_S = 0.002
# Speed is estimated per window, from the samples within half a window of it.
WINDOW_S = 1.0

_TEXT = " ".join(f"w{i * 7919 % 1000:03d}x" for i in range(800))


def calibrate() -> int:
    """A fixed amount of dict, slice and sort work, like the program's."""
    counts: dict[str, int] = {}
    for i in range(len(_TEXT) - 3):
        gram = _TEXT[i : i + 3]
        counts[gram] = counts.get(gram, 0) + 1
    return len(sorted(counts))


class SpeedSampler:
    """Samples the calibration loop's duration while the block runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        # The first call refills the caches the program evicted; timing only
        # the second keeps the program's memory footprint out of the speed.
        calibrate()
        started = time.perf_counter()
        calibrate()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def normalised(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent by the program in [start, end)."""
        total = 0.0
        window = start
        while window < end:
            stop = min(end, window + WINDOW_S)
            busy = 2 * sum(self._between(window, stop))
            nearby = self._between(window - WINDOW_S / 2, stop + WINDOW_S / 2)
            if not nearby:
                raise RuntimeError("no calibration samples near a stage")
            total += (stop - window - busy) * REFERENCE_S / statistics.median(nearby)
            window = stop
        return total


def cpu_seconds() -> float:
    """User and system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# CPU time above wall time by more than this share (plus a clock tick for
# short stages) means the stage ran on more than one CPU at once.
MULTI_CPU_SLACK = 0.1


def used_more_than_one_cpu(wall_s: float, cpu_s: float) -> bool:
    return cpu_s > wall_s * (1 + MULTI_CPU_SLACK) + 0.01


def current_cpu() -> int:
    """The CPU the calling thread last ran on."""
    with open("/proc/thread-self/stat", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


class pinned:
    """Keep the calling thread, and threads it starts, on its current CPU.

    The sampler measures the CPU the main thread runs on; while a stage does
    its work on worker threads they must share that CPU.
    """

    def __enter__(self) -> None:
        self._mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {current_cpu()})

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self._mask)
