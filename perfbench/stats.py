"""Percentiles and interval arithmetic for the benchmark.

Kept free of engine imports so the unit tests (``test_perfbench.py``)
can check the arithmetic without building anything.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0, 50.0)


def _rank(level: float, count: int) -> int:
    """1-based nearest rank of *level* among *count* samples, in exact
    integer arithmetic on tenths of a percent (0.999 * 10000 is not
    9990 in floating point)."""
    return max(1, -(-round(level * 10) * count // 1000))


def percentile(samples: Sequence[float], level: float) -> float:
    """The *level*-th percentile (0-100) by the nearest-rank method.

    Nearest rank returns an observed sample, so a p99 over 1,000
    samples is the 990th smallest and exactly 10 samples lie beyond it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(level, len(ordered)) - 1]


def tail_level(count: int) -> Optional[float]:
    """The highest level in :data:`TAIL_LEVELS` with at least 10 samples
    beyond it, or ``None`` when even the median lacks them (fewer than
    20 samples)."""
    for level in TAIL_LEVELS:
        if count - _rank(level, count) >= 10:
            return level
    return None


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def interval_union(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``.

    Children of one span may overlap each other (two threads, or a
    child that outlives a sibling's start), so summing their lengths
    would count shared time twice.
    """
    clipped: List[Tuple[float, float]] = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals.  ``parents[i]`` is the index of span *i*'s
    parent, or -1 for a root."""
    children: dict = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        covered = 0.0
        if kids:
            covered = interval_union(
                ((starts[k], ends[k]) for k in kids), start, end
            )
        result.append((end - start) - covered)
    return result
