"""Span recording, self-time arithmetic and the layer metrics built on it."""

import threading

import pytest

from repro.serving import BatchedServingEngine
from repro.serving.admission import AdmissionController
from spans import (
    END,
    ID,
    NAME,
    PARENT,
    SpanRecorder,
    instrument,
    layer_metrics,
    self_time_table,
    self_times,
)


def _span(span_id, name, start, end, parent=None, ids=None):
    return [span_id, name, start, end, parent, ids]


def _document(spans, samples=None):
    return {"spans": spans, "samples": samples or {}, "counters": {}, "gc_pauses": []}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, "parent", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),  # overlaps a: counted once
        _span(3, "c", 9.0, 12.0, parent=0),  # runs past the parent: clipped
        _span(4, "grandchild", 1.5, 2.5, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_table_sums_per_name():
    spans = [
        _span(0, "engine.tick", 0.0, 4.0),
        _span(1, "matcher.match_batch", 1.0, 2.0, parent=0),
        _span(2, "engine.tick", 5.0, 7.0),
    ]
    table = self_time_table([_document(spans)])
    assert table["engine.tick"]["calls"] == 2
    assert table["engine.tick"]["total_s"] == pytest.approx(6.0)
    assert table["engine.tick"]["self_s"] == pytest.approx(5.0)


def test_transport_is_the_round_trip_minus_the_engine_tick_inside_it():
    spans = [
        _span(0, "cluster.roundtrip", 0.0, 0.010),
        _span(1, "cluster.handle_line", 0.001, 0.009, parent=0),
        _span(2, "engine.tick", 0.002, 0.008, parent=1),
        _span(3, "engine.tick", 0.020, 0.021),  # outside any round trip
    ]
    layers = layer_metrics([_document(spans)])
    assert layers["cluster.roundtrip_ms"] == pytest.approx(10.0)
    assert layers["cluster.transport_ms"] == pytest.approx(4.0)


def test_layers_a_workload_bypasses_report_zero_work():
    layers = layer_metrics([_document([])])
    assert layers["ingress.decode_us"] == 0.0
    assert layers["cluster.checkpoints"] == 0.0


def test_recorder_parents_spans_per_thread():
    recorder = SpanRecorder()

    def work(name):
        outer = recorder.open(name)
        inner = recorder.open(name + ".inner")
        recorder.close(inner)
        recorder.close(outer)

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = recorder.export()["spans"]
    by_id = {span[ID]: span for span in spans}
    assert len(spans) == 8
    for span in spans:
        if span[NAME].endswith(".inner"):
            assert by_id[span[PARENT]][NAME] + ".inner" == span[NAME]
        else:
            assert span[PARENT] is None
        assert span[END] is not None


def test_instrument_wraps_and_restores_the_public_callables():
    original_tick = BatchedServingEngine.__dict__["tick_detailed"]
    original_offer = AdmissionController.__dict__["offer"]
    recorder = SpanRecorder()
    with instrument(recorder):
        assert BatchedServingEngine.tick_detailed is not original_tick
        assert BatchedServingEngine.tick_detailed.__wrapped__ is original_tick
    assert BatchedServingEngine.__dict__["tick_detailed"] is original_tick
    assert AdmissionController.__dict__["offer"] is original_offer


def test_instrumented_admission_records_waits_and_rejections():
    from repro.serving import IntervalEvent

    recorder = SpanRecorder()
    with instrument(recorder):
        queue = AdmissionController(capacity=2)
        events = [IntervalEvent(f"s{i}", (-50.0,) * 6, None, 0) for i in range(3)]
        accepted = [queue.offer(event) for event in events]
        drained = queue.drain()
    assert accepted == [True, True, False]
    assert len(drained) == 2
    layers = layer_metrics([recorder.export()])
    assert layers["admission.rejected"] == 1.0
    assert layers["admission.depth_max"] == 2.0
    assert layers["admission.wait_p99_ms"] >= 0.0
