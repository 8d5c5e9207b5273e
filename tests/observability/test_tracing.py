"""Contracts of the span tracer: histograms and the last-duration view."""

from __future__ import annotations

import pytest

from repro.observability import MetricsRegistry, SpanTracer


def test_span_records_into_histogram_and_last():
    registry = MetricsRegistry()
    tracer = SpanTracer(registry, prefix="engine.phase")
    with tracer.span("prepare"):
        pass
    histogram = registry.histogram("engine.phase.prepare_s")
    assert histogram.count == 1
    assert tracer.last["prepare"] == pytest.approx(histogram.sum)


def test_record_accepts_external_durations():
    tracer = SpanTracer(prefix="p")
    tracer.record("transitions", 0.25)
    tracer.record("transitions", 0.5)
    assert tracer.last["transitions"] == 0.5
    assert tracer.registry.histogram("p.transitions_s").count == 2


def test_span_records_even_when_body_raises():
    tracer = SpanTracer(prefix="p")
    with pytest.raises(RuntimeError):
        with tracer.span("match"):
            raise RuntimeError("boom")
    assert "match" in tracer.last
    assert tracer.registry.histogram("p.match_s").count == 1
