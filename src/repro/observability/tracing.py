"""Lightweight span tracing: named wall-clock phases on a hot loop.

A :class:`SpanTracer` times named code regions ("spans") with
``time.perf_counter`` and records every duration two ways:

* into a per-span latency :class:`~repro.observability.metrics.Histogram`
  in the tracer's registry (``<prefix>.<name>_s``), so distributions
  survive across ticks;
* into :attr:`SpanTracer.last`, the most recent duration per span name —
  the per-tick phase-timing view the serving engine exposes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence

from .metrics import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry

__all__ = ["SpanTracer"]


class SpanTracer:
    """Times named spans into a metrics registry.

    Args:
        registry: Where span histograms live (a fresh registry when
            omitted).
        prefix: Namespace of the span histograms (``<prefix>.<span>_s``).
        boundaries: Histogram boundaries for span durations, seconds.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "span",
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._prefix = prefix
        self._boundaries = tuple(boundaries)
        self.last: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span named ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - started)

    def record(self, name: str, duration_s: float) -> None:
        """Record an externally timed duration as one span observation.

        The serving engine uses this for phases it cannot wrap in a
        single ``with`` block (e.g. transition evaluation accumulated
        across a per-session loop).
        """
        self.registry.histogram(
            f"{self._prefix}.{name}_s", self._boundaries
        ).observe(duration_s)
        self.last[name] = duration_s
