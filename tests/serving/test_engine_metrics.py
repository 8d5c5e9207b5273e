"""The engine's observability surface: snapshots and phase timings."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.motion.pedestrian import BodyProfile
from repro.observability import MetricsRegistry
from repro.robustness import ResilientMoLocService, ServingMode
from repro.robustness.trust import ApTrustMonitor
from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    build_session_services,
    serve_batched,
    serve_sequential,
)
from repro.sim.adversary import inject_rogue_ap
from repro.sim.evaluation import multi_session_workload

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
    assert snapshot["schema"] == 3
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
    """Membership moves the ``engine.sessions`` gauge, never a counter.

    A removed session's fixes stay counted, so ``service.fixes`` can be
    read as a rate on a serving stack where sessions come and go.
    """
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
    assert remaining["sessions"]["counters"] == both["sessions"]["counters"]
    assert remaining["engine"]["gauges"]["engine.sessions"] == 1
    engine.tick([IntervalEvent(session_id="carla", scan=scan)])
    later = engine.metrics_snapshot()
    assert later["sessions"]["counters"]["service.fixes"] == 3


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


def _counter_objects(engine):
    registries = [
        engine.metrics,
        engine.matcher.metrics,
        engine.transitions.metrics,
        engine.session_metrics,
    ]
    return sum(len(r.snapshot()["counters"]) for r in registries)


def test_admission_binds_every_session_to_one_registry(world):
    """O(1) registries per engine: the counter count ignores sessions."""
    engine, make_service, study = world
    engine.add_session("s0", make_service())
    one = _counter_objects(engine)
    services = {f"s{i}": make_service() for i in range(1, 8)}
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    assert _counter_objects(engine) == one
    assert all(
        service.metrics is engine.session_metrics
        for service in services.values()
    )
    # The checkpoint paths bind too.
    other = BatchedServingEngine(
        study.fingerprint_db(6), study.motion_db(6)[0], study.config
    )
    other.restore(engine.checkpoint(), lambda session_id: make_service())
    assert all(
        record.service.metrics is other.session_metrics
        for record in other.sessions
    )


def test_a_disabled_engine_disables_its_sessions(world):
    engine, make_service, study = world
    off = BatchedServingEngine(
        study.fingerprint_db(6),
        study.motion_db(6)[0],
        study.config,
        metrics=MetricsRegistry(enabled=False),
    )
    assert not off.session_metrics.enabled
    off.add_session("quiet", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    off.tick([IntervalEvent(session_id="quiet", scan=scan)])
    assert off.metrics_snapshot()["sessions"] == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


N_APS = 6
ROGUE_AP = 5


@pytest.fixture(scope="module")
def degraded_workload(small_study):
    """Trust-defended sessions under a rogue AP, ending on lost scans.

    The rogue AP drives quarantines; the blanked final scans leave live
    coasting streaks, so both per-session gauges are nonzero.
    """
    fingerprint_db = small_study.fingerprint_db(N_APS)
    motion_db, _ = small_study.motion_db(N_APS)
    traces = [
        inject_rogue_ap(
            dataclasses.replace(trace, hops=list(trace.hops[:6])),
            ROGUE_AP,
            2,
        )
        for trace in small_study.test_traces[:3]
    ]
    workload = multi_session_workload(
        traces, 6, corpus_size=3, stagger_ticks=1
    )
    last = len(workload.ticks) - 1
    ticks = [
        [
            dataclasses.replace(interval, scan=None)
            if index >= last - 1 and interval.session_id.endswith(("1", "4"))
            else interval
            for interval in tick
        ]
        for index, tick in enumerate(workload.ticks)
    ]
    workload = dataclasses.replace(workload, ticks=ticks)

    def services():
        return build_session_services(
            workload,
            fingerprint_db,
            motion_db,
            small_study.config,
            make_service=lambda trace: ResilientMoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=small_study.config,
                trust=ApTrustMonitor(n_aps=N_APS),
            ),
        )

    return fingerprint_db, motion_db, small_study.config, workload, services


def test_sessions_section_equals_the_per_session_sum(degraded_workload):
    """While no session has left, one registry equals the old aggregate.

    The reference is what per-session registries summed to: services
    served one ``on_interval`` at a time, each counting into its own
    registry, aggregated.  Gauges are the worst live level anywhere:
    the longest trailing run of coasted fixes and the most quarantined
    APs of any session.
    """
    fingerprint_db, motion_db, config, workload, services = degraded_workload
    alone = services()
    sequential = serve_sequential(workload, alone)
    expected = MetricsRegistry.aggregate(
        service.metrics.snapshot() for service in alone.values()
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    serve_batched(engine, workload, services())
    sessions = engine.metrics_snapshot()["sessions"]
    assert sessions["counters"] == expected["counters"]
    assert sessions["counters"]["service.trust.quarantines"] > 0

    def trailing_coasts(stream):
        run = 0
        for fix in stream:
            coasted = fix.health.mode is ServingMode.DEAD_RECKONING
            run = run + 1 if coasted else 0
        return run

    assert sessions["gauges"] == {
        "service.coasting_streak": max(
            trailing_coasts(stream) for stream in sequential.fixes.values()
        ),
        "service.trust.quarantined_aps": max(
            len(service.trust.quarantined_ap_ids)
            for service in alone.values()
        ),
    }
    assert sessions["gauges"]["service.coasting_streak"] > 0
    assert sessions["gauges"]["service.trust.quarantined_aps"] > 0
