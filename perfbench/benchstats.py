"""Percentiles and medians as the benchmark reports them.

Latency percentiles use the nearest-rank rule: the p-th percentile of n
sorted samples is the sample at 1-based rank ``ceil(p/100 * n)``.  A
percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, so a tail figure always rests on more than a handful of
outliers.

Timings are also reported at a reference host speed.  A shared machine
changes speed by a fifth or more, for seconds to minutes, and every
timing of a run moves with it.  Just before and just after each timed
stretch, the benchmark times a fixed calibration task that uses no
``repro`` code; the stretch's seconds times ``reference / calibration``
read as they would on a host where the task takes its reference time.
Simulation is timed against a pure-Python loop (:func:`calibrate`);
cached queries, which read and parse a small JSON file, against reading
and parsing one (:func:`calibrate_io`), because file reads and plain
loops do not slow down alike.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Optional, Sequence, Tuple

#: Candidate percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10
#: Iterations of the calibration loop, and reads of the calibration
#: file, with the seconds each takes on the reference host (about what
#: CPython 3.11 takes on a 2-vCPU x86-64 VM).
CALIBRATION_LOOPS = 20_000
REFERENCE_S = 1.5e-3
CALIBRATION_READS = 20
REFERENCE_IO_S = 0.5e-3
#: Runs of a calibration task whose median is taken: one preempted run
#: does not count, while a host that stays slow for a stretch does.
CALIBRATION_RUNS = 5


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(p: float, n: int) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - rank(p, n)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile; raises if the tail is too thin."""
    n = len(samples)
    if beyond(p, n) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(0, beyond(p, n))} beyond it; "
            f"at least {MIN_BEYOND} are required")
    return sorted(samples)[rank(p, n) - 1]


def highest_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest p in :data:`PERCENTILES` that the
    samples support, or None when even the median is not supported."""
    n = len(samples)
    for p in PERCENTILES:
        if beyond(p, n) >= MIN_BEYOND:
            return p, percentile(samples, p)
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    def once():
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(CALIBRATION_RUNS))


def write_io_calibration(path: str) -> None:
    """The calibration file: a fixed JSON document the size of a record."""
    document = {"meta": {"sweep": "calibration", "point": "0"},
                "stats": {f"system.group{i % 7}.stat{i}": i * 1.375
                          for i in range(48)}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)


def calibrate_io(path: str) -> float:
    """Seconds :data:`CALIBRATION_READS` reads and parses of ``path``
    take now."""
    def once():
        start = time.perf_counter()
        for _ in range(CALIBRATION_READS):
            with open(path, "rb") as handle:
                json.loads(handle.read())
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(CALIBRATION_RUNS))
