"""Arithmetic of the benchmark: percentiles, spreads, span self times.

Pure functions over plain numbers and (start, end) intervals, so the
self-tests in tests/test_stats.py can pin them on synthetic inputs.
"""

import math
import statistics

# Latency percentiles the benchmark may report, highest last.
STANDARD_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def rank(count, percentile):
    """1-based nearest rank of `percentile` among `count` samples (rounded
    first, so 99.9 % of 10000 is exactly rank 9990)."""
    return max(1, math.ceil(round(percentile / 100.0 * count, 9)))


def nearest_rank(values, percentile):
    """Nearest-rank percentile: the smallest sample with at least
    `percentile` % of the samples at or below it. math.inf (a failed
    operation) sorts last."""
    return sorted(values)[rank(len(values), percentile) - 1]


def samples_beyond(count, percentile):
    """Samples ranked above the nearest-rank `percentile` of `count`."""
    return count - rank(count, percentile)


def highest_tail(count):
    """The highest standard percentile with at least MIN_BEYOND samples
    beyond it, or None when `count` is too small for any."""
    eligible = [p for p in STANDARD_PERCENTILES
                if samples_beyond(count, p) >= MIN_BEYOND]
    return eligible[-1] if eligible else None


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(parent, children):
    """A span's duration minus the part of its interval that its child
    spans cover (children may overlap each other and run on other
    threads)."""
    start, end = parent
    clipped = [(max(s, start), min(e, end)) for s, e in children
               if s < end and e > start]
    return (end - start) - union_length(clipped)


def total_self_time(parents, children):
    """Σ self_time over `parents`, each against the children inside it."""
    return sum(self_time(parent, children) for parent in parents)


def match_overheads(outer, inner):
    """For each outer span (a client's rpc), the inner span (the daemon's
    query) it contains that ends last, and the difference of their
    durations: the time the outer span spends outside its inner span.
    Outer spans that contain no inner span are skipped."""
    overheads = []
    for start, end in outer:
        contained = [(s, e) for s, e in inner if s >= start and e <= end]
        if contained:
            s, e = max(contained, key=lambda span: span[1])
            overheads.append((end - start) - (e - s))
    return overheads


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when the base is 0 (the layer did no
    work of that kind on this workload)."""
    return numerator / denominator if denominator else 0.0
