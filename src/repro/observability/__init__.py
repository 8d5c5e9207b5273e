"""Zero-dependency observability: metrics and span tracing.

The serving stack's measurement substrate:

* :mod:`~repro.observability.metrics` — the :class:`MetricsRegistry`
  with counters, gauges, and fixed-bucket histograms, plus snapshot
  (JSON) and cross-registry aggregation;
* :mod:`~repro.observability.tracing` — the :class:`SpanTracer` timing
  named phases into latency histograms, with a per-tick last-duration
  view.

This package sits at the very bottom of the dependency stack (it
imports nothing from ``repro``) so every layer — core, robustness,
serving, sim — can instrument itself.  See ``docs/observability.md``
for the registry design, span semantics, and the snapshot schema.
"""

from .metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import SpanTracer

__all__ = [
    "Counter",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTracer",
]
