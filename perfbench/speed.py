"""The machine-speed probe that wall-clock figures are scaled by.

The benchmark runs on a share of a host that other tenants load.  For
whole runs at a time, every interpreter step takes up to 1.8 times as
long as in another run, and a run's own repetitions cannot escape that
state: the fastest or median repetition of a run is as slow as the run.
So each timed sample of one thread's work (a drive round, a build, a
certification) is paired with the probe, a fixed pure-Python task timed
:data:`PROBE_RUNS` times right before and right after the sample, and
the benchmark reports the sample scaled to the probe's reference time::

    scaled seconds = seconds * REFERENCE_S / probe seconds

where the probe seconds are the median of the probe's timings around the
sample.  The probe calls nothing of the program, so a change to the
program moves a scaled figure exactly as much as it moves the raw one;
only the machine's speed cancels.  sb-served's phases, two processes
waiting on each other, are not scaled.  ``run.py`` prints the raw
figures beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

perf = time.perf_counter

#: About the probe's median time on the 2-vCPU Xeon VM the bounds were
#: set on, so that scaled figures read close to raw ones on that machine.
REFERENCE_S = 0.003

#: Probe timings on each side of a sample.
PROBE_RUNS = 5

#: Loop steps of one probe run.
PROBE_STEPS = 6000


class _Row:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe_work() -> int:
    """Dictionary reads and writes, small objects, attribute access and
    string building: the interpreter's everyday work."""
    table: dict[int, _Row] = {}
    total = 0
    for step in range(PROBE_STEPS):
        row = _Row(step & 511, step)
        previous = table.get(row.key)
        if previous is not None:
            total += previous.value
        table[row.key] = row
        total += len(str(step))
    return total


def probe() -> list[float]:
    """:data:`PROBE_RUNS` timings of the probe, in seconds."""
    timings = []
    for __ in range(PROBE_RUNS):
        start = perf()
        _probe_work()
        timings.append(perf() - start)
    return timings


def probe_seconds(before: list[float], after: list[float]) -> float:
    """The probe's time around a sample: the median of its timings."""
    return statistics.median(before + after)


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` at the probe's reference speed."""
    return seconds * REFERENCE_S / probe_s
