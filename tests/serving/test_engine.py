"""Unit contracts of the serving engine and session manager.

The equivalence suite proves the numbers; these tests pin the lifecycle
and guard rails — duplicate registration, cross-database sessions,
config mismatches, per-tick scheduling rules — that keep the shared
caches sound.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import MoLocConfig
from repro.motion.pedestrian import BodyProfile
from repro.robustness import ResilientMoLocService
from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    SessionManager,
    fix_stream_checksum,
)
from repro.service import MoLocService


@pytest.fixture()
def world(small_study):
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    engine = BatchedServingEngine(
        fingerprint_db, motion_db, small_study.config
    )

    def make_service(cls=ResilientMoLocService, **kwargs):
        kwargs.setdefault("config", small_study.config)
        return cls(
            fingerprint_db,
            motion_db,
            body=BodyProfile(height_m=1.72),
            **kwargs,
        )

    return engine, make_service, small_study


def test_duplicate_session_id_rejected(world):
    engine, make_service, _ = world
    engine.add_session("alice", make_service())
    with pytest.raises(ValueError, match="already registered"):
        engine.add_session("alice", make_service())


def test_foreign_database_session_rejected(world):
    engine, _, study = world
    foreign = MoLocService(
        study.fingerprint_db(4),
        study.motion_db(4)[0],
        body=BodyProfile(height_m=1.72),
        config=study.config,
    )
    with pytest.raises(ValueError, match="different fingerprint database"):
        engine.add_session("bob", foreign)


def test_mismatched_config_session_rejected(world):
    engine, make_service, _ = world
    other = make_service(config=MoLocConfig(k=3))
    with pytest.raises(ValueError, match="config differs"):
        engine.add_session("carol", other)


def test_same_session_twice_in_one_tick_rejected(world):
    engine, make_service, study = world
    engine.add_session("dave", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    events = [
        IntervalEvent(session_id="dave", scan=scan),
        IntervalEvent(session_id="dave", scan=scan),
    ]
    with pytest.raises(ValueError, match="appears twice"):
        engine.tick(events)


def test_unknown_session_dropped_as_unroutable(world):
    """A stranded event for a dead session must not abort the batch."""
    engine, make_service, study = world
    engine.add_session("alive", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    outcome = engine.tick_detailed(
        [
            IntervalEvent(session_id="nobody", scan=scan),
            IntervalEvent(session_id="alive", scan=scan),
        ]
    )
    assert outcome.unroutable == ("nobody",)
    assert outcome.fixes[0] is None
    assert outcome.served == ("alive",)
    assert outcome.fixes[1] is not None
    snapshot = engine.metrics.snapshot()
    assert snapshot["counters"]["engine.unroutable"] == 1


def test_tick_serves_and_counts(world):
    engine, make_service, study = world
    engine.add_session("erin", make_service())
    engine.add_session("frank", make_service())
    scan = study.test_traces[0].initial_fingerprint.rss
    fixes = engine.tick(
        [
            IntervalEvent(session_id="erin", scan=scan),
            IntervalEvent(session_id="frank", scan=scan),
        ]
    )
    assert len(fixes) == 2
    # Identical first-interval inputs coalesce within the tick: one
    # einsum row is computed (the miss), the duplicate subscribes to it;
    # the *next* tick's identical queries are pure cache hits.
    assert engine.matcher.cache_misses == 1
    assert engine.matcher.coalesced_hits == 1
    assert engine.matcher.cache_hits == 0
    engine.tick(
        [
            IntervalEvent(session_id="erin", scan=scan),
            IntervalEvent(session_id="frank", scan=scan),
        ]
    )
    assert engine.matcher.cache_hits == 2
    assert engine.ticks_served == 2
    assert engine.intervals_served == 4
    record = engine.sessions.get("erin")
    assert record.intervals_served == 2
    assert record.last_fix is not None


def test_remove_session_ends_service(world):
    engine, make_service, study = world
    service = make_service()
    engine.add_session("gina", service)
    scan = study.test_traces[0].initial_fingerprint.rss
    engine.tick([IntervalEvent(session_id="gina", scan=scan)])
    assert service.fix_count == 1
    engine.remove_session("gina")
    assert service.fix_count == 0  # end_session ran
    with pytest.raises(KeyError):
        engine.sessions.get("gina")


def test_session_manager_standalone():
    manager = SessionManager()
    assert len(manager) == 0
    with pytest.raises(KeyError):
        manager.get("x")
    with pytest.raises(KeyError):
        manager.remove("x")


def test_malformed_segment_faults_only_its_own_session(world):
    """The tick's batched motion kernel keeps per-session fault isolation.

    A segment the kernel cannot stack (a 2-D accelerometer array, as a
    nested list on the wire decodes to) faults its session alone; the
    other session in the same tick is served exactly as it is alone.
    """
    _, make_service, study = world
    trace = study.test_traces[0]
    hop = trace.hops[0]
    broken = dataclasses.replace(
        hop.imu,
        accel=dataclasses.replace(
            hop.imu.accel, samples=np.stack([hop.imu.accel.samples] * 2)
        ),
    )

    def serve(with_broken_session):
        engine = BatchedServingEngine(
            study.fingerprint_db(6), study.motion_db(6)[0], study.config
        )
        ids = ["alice", "bob"] if with_broken_session else ["alice"]
        for session_id in ids:
            service = make_service()
            service.calibrate_heading(
                [
                    (h.imu.compass_readings, h.imu.true_course_deg)
                    for h in trace.hops[:2]
                ]
            )
            engine.add_session(session_id, service)
        first = trace.initial_fingerprint.rss
        engine.tick([IntervalEvent(sid, first) for sid in ids])
        events = [IntervalEvent("alice", hop.arrival_fingerprint.rss, hop.imu)]
        if with_broken_session:
            events.append(IntervalEvent("bob", hop.arrival_fingerprint.rss, broken))
        return engine.tick_detailed(events)

    alone = serve(False)
    mixed = serve(True)
    assert mixed.served == ("alice",)
    assert [fault.session_id for fault in mixed.faulted] == ["bob"]
    assert fix_stream_checksum(mixed.fixes[:1]) == fix_stream_checksum(alone.fixes)
