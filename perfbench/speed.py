"""The machine's speed, read from a fixed Python loop.

The cores this benchmark was built on change speed in phases of tens of
milliseconds to minutes, by up to half, with nothing else running; CPU time
moves with wall time, so neither clock removes it.  The loop is therefore
timed between requests, at most ``SAMPLE_GAP_NS`` apart, and each request's
time is scaled by ``REFERENCE_NS`` over the loop's time around it: the time
the request would take on a machine on which the loop takes 4.0 ms.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter_ns

REFERENCE_NS = 4_000_000  # the loop's time at the reference speed: 4.0 ms
SAMPLE_GAP_NS = 20_000_000  # at most 20 ms of requests between two samples
NEIGHBOURS = 2  # samples taken on each side of a request


def loop_ns() -> int:
    """Wall time of one run of the loop, in ns: integer arithmetic, then
    building, serialising, parsing and sorting a table of 1,000 entries.
    The second half allocates and touches memory as the program does, so the
    loop also slows when the caches are contended, not only when the cores
    themselves are slow."""
    start = perf_counter_ns()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    table = {f"k{i}": (i, str(i * 7), [i, i + 1]) for i in range(1_000)}
    back = json.loads(json.dumps(table))
    sorted(back.items(), key=lambda kv: kv[1][1])
    return perf_counter_ns() - start


def at_reference(times: list, starts_ns: list[int], samples: list) -> list[float]:
    """Each time scaled to the reference speed by the median loop time of the
    ``NEIGHBOURS`` samples before its start and as many after it.  The
    median passes over a sample the scheduler interrupted."""
    stamps = [t for t, _ in samples]
    loops = [loop for _, loop in samples]
    scaled = []
    for took, start in zip(times, starts_ns):
        i = bisect.bisect_right(stamps, start)
        around = loops[max(0, i - NEIGHBOURS) : i + NEIGHBOURS]
        scaled.append(took * REFERENCE_NS / statistics.median(around))
    return scaled
