"""The engine's observability surface: snapshots and phase timings."""

from __future__ import annotations

import json

import pytest

from repro.motion.pedestrian import BodyProfile
from repro.robustness import ResilientMoLocService
from repro.serving import BatchedServingEngine, IntervalEvent

PHASES = ("prepare", "match", "transitions", "complete")


@pytest.fixture()
def world(small_study):
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    engine = BatchedServingEngine(
        fingerprint_db, motion_db, small_study.config
    )

    def make_service():
        return ResilientMoLocService(
            fingerprint_db,
            motion_db,
            body=BodyProfile(height_m=1.72),
            config=small_study.config,
        )

    return engine, make_service, small_study


def test_metrics_snapshot_shape(world):
    engine, make_service, study = world
    engine.add_session("ana", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    engine.tick([IntervalEvent(session_id="ana", scan=scan)])
    snapshot = engine.metrics_snapshot()
    assert snapshot["schema"] == 2
    assert set(snapshot) == {
        "schema",
        "engine",
        "matcher",
        "transitions",
        "sessions",
    }
    for section in ("engine", "matcher", "transitions", "sessions"):
        assert set(snapshot[section]) == {
            "counters",
            "gauges",
            "histograms",
        }
    # JSON-plain without custom encoders.
    assert json.loads(json.dumps(snapshot)) == snapshot
    counters = snapshot["engine"]["counters"]
    assert counters["engine.ticks"] == 1
    assert counters["engine.intervals"] == 1
    assert snapshot["engine"]["gauges"]["engine.sessions"] == 1
    assert snapshot["engine"]["histograms"]["engine.tick.batch_size"][
        "count"
    ] == 1
    assert snapshot["matcher"]["counters"]["matcher.cache_misses"] == 1
    assert snapshot["sessions"]["counters"]["service.fixes"] == 1
    assert (
        snapshot["sessions"]["counters"][
            "service.fixes_by_mode.wifi-only"
        ]
        == 1
    )


def test_counters_are_monotonic_across_ticks(world):
    engine, make_service, study = world
    engine.add_session("bo", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    event = IntervalEvent(session_id="bo", scan=scan)
    engine.tick([event])
    first = engine.metrics_snapshot()
    engine.tick([event])
    engine.tick([event])
    second = engine.metrics_snapshot()
    for section in ("engine", "matcher", "transitions", "sessions"):
        for name, value in first[section]["counters"].items():
            assert second[section]["counters"][name] >= value, name
    assert second["engine"]["counters"]["engine.ticks"] == 3
    assert (
        second["engine"]["histograms"]["engine.tick.latency_s"]["count"]
        == 3
    )


def test_sessions_aggregate_tracks_membership(world):
    engine, make_service, study = world
    engine.add_session("carla", make_service())
    engine.add_session("dean", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    engine.tick(
        [
            IntervalEvent(session_id="carla", scan=scan),
            IntervalEvent(session_id="dean", scan=scan),
        ]
    )
    both = engine.metrics_snapshot()
    assert both["sessions"]["counters"]["service.fixes"] == 2
    engine.remove_session("dean")
    remaining = engine.metrics_snapshot()
    assert remaining["sessions"]["counters"]["service.fixes"] == 1
    assert remaining["engine"]["gauges"]["engine.sessions"] == 1


def test_last_tick_phases_are_disjoint_and_positive(world):
    engine, make_service, study = world
    engine.add_session("eva", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    engine.tick([IntervalEvent(session_id="eva", scan=scan)])
    phases = engine.last_tick_phases
    assert set(phases) == set(PHASES)
    assert all(duration >= 0.0 for duration in phases.values())
    tick_s = engine.metrics.histogram("engine.tick.latency_s").sum
    # The four phases partition the tick (modulo loop overhead).
    assert sum(phases.values()) <= tick_s


def test_checkpoint_serialization_is_instrumented(world):
    """``checkpoint()``/``restore()`` observe size and timing histograms.

    The snapshot pins the instrument names and semantics the cluster's
    migration path budgets against: one ``checkpoint.bytes`` and
    ``checkpoint.encode_seconds`` observation per full checkpoint, one
    ``checkpoint.restore_seconds`` observation per session restored
    (``restore`` and per-session ``load_session`` alike).
    """
    engine, make_service, study = world
    engine.add_session("gil", make_service())
    engine.add_session("hana", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    engine.tick(
        [
            IntervalEvent(session_id="gil", scan=scan),
            IntervalEvent(session_id="hana", scan=scan),
        ]
    )
    document = engine.checkpoint()
    engine.checkpoint()
    histograms = engine.metrics_snapshot()["engine"]["histograms"]
    assert histograms["checkpoint.bytes"]["count"] == 2
    # The observed size is the actual JSON encoding's byte length.
    import json as _json

    encoded = len(_json.dumps(document, sort_keys=True).encode("utf-8"))
    assert histograms["checkpoint.bytes"]["min"] <= encoded
    assert histograms["checkpoint.bytes"]["max"] >= encoded
    assert histograms["checkpoint.encode_seconds"]["count"] == 2
    assert histograms["checkpoint.encode_seconds"]["sum"] >= 0.0
    assert histograms["checkpoint.restore_seconds"]["count"] == 0

    other = BatchedServingEngine(
        study.fingerprint_db(6), study.motion_db(6)[0], study.config
    )
    other.restore(document, lambda session_id: make_service())
    restored = other.metrics_snapshot()["engine"]["histograms"]
    assert restored["checkpoint.restore_seconds"]["count"] == 2

    entry = engine.checkpoint_session("gil")
    other.remove_session("gil")
    other.load_session(entry, lambda session_id: make_service())
    restored = other.metrics_snapshot()["engine"]["histograms"]
    assert restored["checkpoint.restore_seconds"]["count"] == 3
