"""Per-session fault isolation: quarantine, eviction, sequences, deadlines.

One session's failure must cost that session — and only that session —
its answer.  These tests drive faults through the engine's injector
seam (the same one the chaos harness uses) and assert the strike /
backoff / eviction lifecycle, idempotent duplicate handling, stale-drop
and gap accounting, and deadline shedding under a synthetic clock.
"""

from __future__ import annotations

import itertools

import pytest

from repro.robustness.health import FaultType, ServingMode
from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    QuarantinePolicy,
    fix_stream_checksum,
)
from repro.serving.benchmark import build_session_services
from repro.sim.evaluation import multi_session_workload


@pytest.fixture()
def world(small_study):
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    workload = multi_session_workload(
        small_study.test_traces, 2, corpus_size=2, stagger_ticks=0
    )
    services = build_session_services(
        workload, fingerprint_db, motion_db, small_study.config
    )
    engine = BatchedServingEngine(
        fingerprint_db, motion_db, small_study.config
    )
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    return engine, workload


def _raise_for(session_id, phase="prepare", ticks=None):
    """An injector that fails one session in one phase (optionally only
    on the given engine tick indices)."""

    def injector(current_phase, current_session, _ticks=ticks):
        if current_session != session_id or current_phase != phase:
            return
        raise RuntimeError("injected dependency failure")

    return injector


class TestQuarantineLifecycle:
    def test_fault_quarantines_only_the_faulting_session(self, world):
        engine, workload = world
        victim, healthy = sorted(workload.sessions)
        engine.fault_injector = _raise_for(victim)
        outcome = engine.tick_detailed(list(workload.ticks[0]))
        assert outcome.served == (healthy,)
        assert [fault.session_id for fault in outcome.faulted] == [victim]
        fault = outcome.faulted[0]
        assert fault.phase == "prepare"
        assert fault.strikes == 1
        assert fault.action == "quarantined"
        assert fault.backoff_ticks >= 1
        assert "RuntimeError" in fault.error
        record = engine.sessions.get(victim)
        assert record.strikes == 1
        assert record.quarantined_until == engine.tick_index + fault.backoff_ticks

    def test_quarantined_session_is_skipped_until_backoff_expires(self, world):
        engine, workload = world
        victim, healthy = sorted(workload.sessions)
        engine.fault_injector = _raise_for(victim)
        outcome = engine.tick_detailed(list(workload.ticks[0]))
        backoff = outcome.faulted[0].backoff_ticks
        engine.fault_injector = None  # the dependency has recovered
        victim_events = [
            event
            for tick in workload.ticks[1:]
            for event in tick
            if event.session_id == victim
        ]
        # While quarantined, the victim's events are skipped ...
        for index in range(backoff):
            outcome = engine.tick_detailed([victim_events[index]])
            assert outcome.quarantined == (victim,)
            assert outcome.fixes == [None]
        # ... and the first event after expiry is the retry: it serves,
        # and a full successful interval clears the strike count.
        outcome = engine.tick_detailed([victim_events[backoff]])
        assert outcome.served == (victim,)
        assert outcome.fixes[0] is not None
        record = engine.sessions.get(victim)
        assert record.strikes == 0
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.quarantine.recoveries"] == 1
        assert snapshot["counters"]["engine.quarantine.skipped"] == backoff

    def test_persistent_faults_escalate_to_eviction(self, world):
        engine, workload = world
        victim, healthy = sorted(workload.sessions)
        engine.fault_injector = _raise_for(victim, phase="complete")
        events = itertools.cycle(
            [
                event
                for tick in workload.ticks
                for event in tick
                if event.session_id == victim
            ]
        )
        max_strikes = engine.quarantine_policy.max_strikes
        evicted_at = None
        for _ in range(64):  # bounded: backoffs are capped
            outcome = engine.tick_detailed([next(events)])
            if outcome.evicted:
                evicted_at = outcome
                break
        assert evicted_at is not None, "session never evicted"
        assert evicted_at.evicted == (victim,)
        assert evicted_at.faulted[-1].action == "evicted"
        assert evicted_at.faulted[-1].strikes == max_strikes
        assert victim not in engine.sessions
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.quarantine.evictions"] == 1
        assert snapshot["counters"]["engine.quarantine.faults"] == max_strikes
        # Post-eviction the id is unknown: a stranded event for it is
        # dropped as unroutable instead of aborting the batch.
        outcome = engine.tick_detailed([next(events)])
        assert outcome.unroutable == (victim,)
        assert outcome.fixes == [None]

    def test_faulty_neighbor_leaves_healthy_stream_bitwise_intact(
        self, small_study
    ):
        """The central isolation promise, asserted at the bit level."""
        fingerprint_db = small_study.fingerprint_db(6)
        motion_db, _ = small_study.motion_db(6)
        workload = multi_session_workload(
            small_study.test_traces, 2, corpus_size=2, stagger_ticks=0
        )
        victim, healthy = sorted(workload.sessions)

        def serve(inject: bool):
            services = build_session_services(
                workload, fingerprint_db, motion_db, small_study.config
            )
            engine = BatchedServingEngine(
                fingerprint_db, motion_db, small_study.config
            )
            for session_id, service in services.items():
                engine.add_session(session_id, service)
            if inject:
                engine.fault_injector = _raise_for(victim)
            stream = []
            for tick in workload.ticks:
                # A persistently faulting victim is eventually evicted;
                # the transport stops routing to dead sessions.
                events = [
                    event
                    for event in tick
                    if event.session_id in engine.sessions
                ]
                for event, fix in zip(events, engine.tick(events)):
                    if event.session_id == healthy:
                        stream.append(fix)
            return stream

        assert fix_stream_checksum(serve(True)) == fix_stream_checksum(
            serve(False)
        )

    def test_match_phase_faults_are_isolated_too(self, world):
        engine, workload = world
        victim, healthy = sorted(workload.sessions)
        engine.fault_injector = _raise_for(victim, phase="match")
        outcome = engine.tick_detailed(list(workload.ticks[0]))
        assert outcome.served == (healthy,)
        assert outcome.faulted[0].phase == "match"

    def test_non_isolable_errors_propagate(self, world):
        engine, workload = world
        victim = sorted(workload.sessions)[0]

        def blow_up(phase, session_id):
            if session_id == victim:
                raise MemoryError("process-level failure")

        engine.fault_injector = blow_up
        with pytest.raises(MemoryError):
            engine.tick(list(workload.ticks[0]))


class TestQuarantinePolicy:
    def test_backoff_grows_exponentially_to_the_cap(self):
        policy = QuarantinePolicy(
            max_strikes=10, backoff_base_ticks=1, backoff_cap_ticks=8
        )
        lengths = [policy.backoff_ticks("user", s) for s in range(1, 7)]
        bases = [1, 2, 4, 8, 8, 8]
        for length, base in zip(lengths, bases):
            assert base <= length <= base + 1  # +1 is the hash jitter

    def test_jitter_is_deterministic_per_session(self):
        policy = QuarantinePolicy()
        assert policy.backoff_ticks("alice", 1) == policy.backoff_ticks(
            "alice", 1
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QuarantinePolicy(max_strikes=0)
        with pytest.raises(ValueError):
            QuarantinePolicy(backoff_base_ticks=0)
        with pytest.raises(ValueError):
            QuarantinePolicy(backoff_base_ticks=4, backoff_cap_ticks=2)
        with pytest.raises(ValueError):
            QuarantinePolicy().backoff_ticks("user", 0)


class TestSequenceAdmission:
    def test_duplicate_delivery_is_answered_idempotently(self, world):
        engine, workload = world
        session_id = sorted(workload.sessions)[0]
        events = [
            event
            for tick in workload.ticks[:2]
            for event in tick
            if event.session_id == session_id
        ]
        engine.tick([events[0]])
        (first_fix,) = engine.tick([events[1]])
        record = engine.sessions.get(session_id)
        state_before = record.service.state_dict()
        served_before = record.intervals_served
        # The transport re-delivers the same message.
        outcome = engine.tick_detailed([events[1]])
        assert outcome.duplicates == (session_id,)
        assert outcome.served == ()
        assert outcome.fixes[0] is first_fix
        # Idempotent means *no state advanced*: the posterior would
        # otherwise double-count the scan.
        assert record.service.state_dict() == state_before
        assert record.intervals_served == served_before
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.sequence.duplicates"] == 1

    def test_duplicate_during_quarantine_is_answered_idempotently(
        self, world
    ):
        """Answering from the cache re-faults nothing, so a backoff
        window must not swallow a duplicate redelivery."""
        engine, workload = world
        victim = sorted(workload.sessions)[0]
        victim_events = [
            event
            for tick in workload.ticks[:2]
            for event in tick
            if event.session_id == victim
        ]
        # Tick 1 serves cleanly: the victim now has a cached fix.
        (cached,) = engine.tick([victim_events[0]])
        assert cached is not None
        # Tick 2 faults: the victim enters a backoff window.
        engine.fault_injector = _raise_for(victim)
        outcome = engine.tick_detailed([victim_events[1]])
        assert outcome.faulted[0].action == "quarantined"
        engine.fault_injector = None
        record = engine.sessions.get(victim)
        assert record.quarantined_until > engine.tick_index
        strikes_before = record.strikes
        # The transport re-delivers the already-served interval while
        # the window is still open.
        outcome = engine.tick_detailed([victim_events[0]])
        assert outcome.duplicates == (victim,)
        assert outcome.quarantined == ()
        assert outcome.fixes[0] is cached
        # The quarantine itself is untouched: no state, no strikes.
        assert record.strikes == strikes_before
        assert record.quarantined_until >= engine.tick_index

    def test_stale_delivery_is_dropped(self, world):
        engine, workload = world
        session_id = sorted(workload.sessions)[0]
        events = [
            event
            for tick in workload.ticks[:3]
            for event in tick
            if event.session_id == session_id
        ]
        for event in events:
            engine.tick([event])
        record = engine.sessions.get(session_id)
        state_before = record.service.state_dict()
        outcome = engine.tick_detailed([events[0]])  # sequence 0 again
        assert outcome.stale == (session_id,)
        assert outcome.fixes == [None]
        assert record.service.state_dict() == state_before
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.sequence.stale"] == 1

    def test_delivery_gap_is_counted_but_served(self, world):
        engine, workload = world
        session_id = sorted(workload.sessions)[0]
        events = [
            event
            for tick in workload.ticks[:4]
            for event in tick
            if event.session_id == session_id
        ]
        engine.tick([events[0]])
        engine.tick([events[1]])
        outcome = engine.tick_detailed([events[3]])  # sequence 2 lost
        assert outcome.served == (session_id,)
        assert outcome.fixes[0] is not None
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.sequence.gaps"] == 1
        assert engine.sessions.get(session_id).last_sequence == 3

    def test_unsequenced_events_skip_ordering_checks(self, world):
        engine, workload = world
        session_id = sorted(workload.sessions)[0]
        events = [
            IntervalEvent(event.session_id, event.scan, event.imu, None)
            for tick in workload.ticks[:2]
            for event in tick
            if event.session_id == session_id
        ]
        for event in events:
            outcome = engine.tick_detailed([event])
            assert outcome.served == (session_id,)
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.sequence.duplicates"] == 0
        assert snapshot["counters"]["engine.sequence.stale"] == 0
        assert engine.sessions.get(session_id).last_sequence is None


class TestDeadlineShedding:
    def _engine(self, small_study, budget_s):
        fingerprint_db = small_study.fingerprint_db(6)
        motion_db, _ = small_study.motion_db(6)
        workload = multi_session_workload(
            small_study.test_traces, 2, corpus_size=2, stagger_ticks=0
        )
        services = build_session_services(
            workload, fingerprint_db, motion_db, small_study.config
        )
        # Each clock() call advances a full second: any positive budget
        # below 1 s is blown the moment the completion loop checks it.
        ticker = itertools.count()
        engine = BatchedServingEngine(
            fingerprint_db,
            motion_db,
            small_study.config,
            tick_budget_s=budget_s,
            clock=lambda: float(next(ticker)),
        )
        for session_id, service in services.items():
            engine.add_session(session_id, service)
        return engine, workload

    def test_over_budget_completions_shed_to_wifi_only(self, small_study):
        engine, workload = self._engine(small_study, budget_s=0.5)
        # Tick 1: initial intervals carry no IMU, so nothing sheds ...
        outcome = engine.tick_detailed(list(workload.ticks[0]))
        assert outcome.shed == ()
        # ... tick 2: motion-assisted completions cross the deadline.
        outcome = engine.tick_detailed(list(workload.ticks[1]))
        assert set(outcome.shed) == set(workload.sessions)
        for fix in outcome.fixes:
            assert fix is not None, "a shed session is served, not dropped"
            assert fix.health.mode is ServingMode.WIFI_ONLY
            assert FaultType.DEADLINE_SHED in fix.health.faults
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.deadline.shed"] == len(
            workload.sessions
        )

    def test_no_budget_means_no_shedding(self, small_study):
        engine, workload = self._engine(small_study, budget_s=None)
        for tick in workload.ticks[:3]:
            outcome = engine.tick_detailed(list(tick))
            assert outcome.shed == ()
        assert (
            engine.metrics.snapshot()["counters"]["engine.deadline.shed"] == 0
        )

    def test_budget_validation(self, small_study):
        fingerprint_db = small_study.fingerprint_db(6)
        motion_db, _ = small_study.motion_db(6)
        with pytest.raises(ValueError, match="tick_budget_s"):
            BatchedServingEngine(
                fingerprint_db,
                motion_db,
                small_study.config,
                tick_budget_s=0.0,
            )
