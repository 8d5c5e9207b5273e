"""Order statistics for the end-to-end benchmark.

Timings are summarised from raw samples, never from histogram buckets.
A request that failed, was rejected, dropped or never answered is a
sample of ``+inf``: it misses every latency limit, so it sorts above
every real latency in every percentile.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

# The percentiles a tail metric may be reported at, highest first.
STANDARD_PERCENTILES: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def with_failures(latencies: Iterable[float], n_failed: int) -> List[float]:
    """Latency samples with one ``+inf`` per failed request."""
    if n_failed < 0:
        raise ValueError(f"n_failed must be >= 0, got {n_failed}")
    return list(latencies) + [math.inf] * n_failed


def _rank(n: int, q: float) -> int:
    """The 1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    # The tolerance absorbs float error: 99.9 / 100 * 10_000 must be 9990.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th."""
    return n - _rank(n, q)


def supported_percentile(
    n: int,
    candidates: Sequence[float] = STANDARD_PERCENTILES,
    min_beyond: int = MIN_BEYOND,
) -> Optional[float]:
    """The highest candidate percentile with ``min_beyond`` samples above it.

    A percentile with fewer samples beyond it is one slow sample away
    from a different value, so it is not reported.  None when even the
    lowest candidate is unsupported.
    """
    for q in sorted(candidates, reverse=True):
        if beyond(n, q) >= min_beyond:
            return q
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile.

    ``statistics.quantiles(values, n=4)`` with its default (exclusive)
    method — the same cut points the spread rule is judged with.
    """
    if len(values) < 2:
        only = float(values[0]) if values else math.nan
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for no samples: a layer that did no work)."""
    return float(sum(values) / len(values)) if values else 0.0
