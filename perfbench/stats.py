"""Summary statistics and span arithmetic shared by the runner and its tests.

Pure Python, no numpy: the runner imports this before any child process
exists, and the tests exercise it on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, Optional, Sequence

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample_count)``.  The value is the
    nearest-rank percentile: the sample at 1-based rank ceil(P/100 * N) of
    the ascending order, so exactly N - rank samples lie beyond it.  With
    fewer than eleven samples no percentile qualifies and the median is
    returned as percentile 50.
    """

    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of no values")
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * count / 100)
        if rank >= 1 and count - rank >= TAIL_MIN_BEYOND:
            return pct, float(ordered[rank - 1]), count
    return 50, median(ordered), count


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""

    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> dict[str, tuple[int, float]]:
    """Per span name: (call count, summed self time).

    Each span is ``(span_id, name, start, end, parent_id, ...)``.  A
    span's self time is its duration minus the part of its interval that
    its direct children cover.
    """

    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[4]
        if parent is not None:
            children[parent].append((span[2], span[3]))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        span_id, name, start, end = span[0], span[1], span[2], span[3]
        covered = covered_length(children.get(span_id, ()), start, end)
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, total) for name, (calls, total) in out.items()}
