"""Metric arithmetic for the benchmark: summaries, span self times, ratios.

Pure functions over plain numbers, kept apart from the runner so that
``test_metrics.py`` can check them without running the program.
"""

from __future__ import annotations

import math
import statistics

# candidate percentiles, highest first; one is reported only when at least
# MIN_BEYOND samples lie beyond it
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def supported_percentile(n: int):
    """Highest percentile in PERCENTILES with MIN_BEYOND of n samples beyond it.

    None when the sample count supports none, i.e. n < 2 * MIN_BEYOND.
    """
    for p in PERCENTILES:
        if math.floor(n * (1.0 - p / 100.0) + 1e-9) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile p (0 < p <= 100) of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def summarize(values, report: str = "median") -> dict:
    """Median, mean, sample count, and the highest percentile the count supports.

    ``value`` repeats the statistic named by ``report`` ("median" or "mean").
    """
    values = list(values)
    if not values:
        raise ValueError("no samples to summarize")
    p = supported_percentile(len(values))
    out = {
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "n": len(values),
        "percentile": p,
        "percentile_value": None if p is None else percentile(values, p),
    }
    out["value"] = out[report]
    return out


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of (name, start, end, parent) with ``parent`` the
    index of the enclosing span or -1 at top level.
    """
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)]
        out.append((end - start) - _covered(clipped))
    return out


def parallel_eff(serial_s: float, workers: int, pool_wall_s: float) -> float:
    """Serial work time over the worker-seconds the pool held; 0 without a pool."""
    if pool_wall_s <= 0 or workers < 1:
        return 0.0
    return serial_s / (workers * pool_wall_s)


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no attempted runs")
    return failed / attempted
