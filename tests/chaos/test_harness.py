"""Chaos storms: the harness mechanics and the never-silently-wrong invariant.

The central assertion: under a seeded 10%+-per-tick fault storm, every
session the storm never touched produces a fix stream *bitwise equal*
to the fault-free run — and every answer the storm did touch is either
flagged degraded, quarantined, or absent.  Nothing is silently wrong.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import ChaosError, ChaosHarness, FaultKind, FaultPlan, FaultSpec
from repro.serving import (
    BatchedServingEngine,
    build_session_services,
    fix_stream_checksum,
    serve_batched,
)
from repro.sim.evaluation import multi_session_workload

N_SESSIONS = 8
VICTIMS = ("user-0000", "user-0001", "user-0002", "user-0003")
STORM_SEED = 20260806
STORM_RATE = 0.25


@pytest.fixture(scope="module")
def storm_world(small_study):
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:6]))
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, N_SESSIONS, corpus_size=4, stagger_ticks=1
    )
    return fingerprint_db, motion_db, small_study.config, workload


def _routable(tick, engine):
    return [
        interval
        for interval in tick
        if interval.session_id in engine.sessions
    ]


def _run_storm(storm_world, plan):
    """Serve the workload under the plan; returns (engine, streams, outcomes)."""
    fingerprint_db, motion_db, config, workload = storm_world
    services = build_session_services(
        workload, fingerprint_db, motion_db, config
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    harness = ChaosHarness(engine, plan)
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    streams = {sid: [] for sid in workload.sessions}
    outcomes = []
    tick_served_fixes = []  # one {session_id: fix} per tick, served only
    for tick in workload.ticks:
        outcome = harness.tick_detailed(_routable(tick, engine))
        outcomes.append(outcome)
        by_session = {}
        for session_id in outcome.served:
            fix = engine.sessions.get(session_id).last_fix
            streams[session_id].append(fix)
            by_session[session_id] = fix
        tick_served_fixes.append(by_session)
    return engine, streams, outcomes, tick_served_fixes


@pytest.fixture(scope="module")
def storm_plan(storm_world):
    _, _, _, workload = storm_world
    plan = FaultPlan.random(
        seed=STORM_SEED,
        n_ticks=len(workload.ticks),
        session_ids=list(VICTIMS),
        rate=STORM_RATE,
    )
    assert len(plan) > 0, "seed produced an empty storm; pick another"
    return plan


@pytest.fixture(scope="module")
def storm_runs(storm_world, storm_plan):
    fingerprint_db, motion_db, config, workload = storm_world
    baseline_services = build_session_services(
        workload, fingerprint_db, motion_db, config
    )
    baseline_engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    baseline = serve_batched(baseline_engine, workload, baseline_services)
    chaos = _run_storm(storm_world, storm_plan)
    return baseline, chaos


class TestStormInvariant:
    def test_untouched_sessions_are_bitwise_identical(
        self, storm_world, storm_plan, storm_runs
    ):
        _, _, _, workload = storm_world
        baseline, (_, streams, _, _) = storm_runs
        untouched = set(workload.sessions) - set(VICTIMS)
        assert untouched, "the storm covered every session"
        for session_id in sorted(untouched):
            assert fix_stream_checksum(
                streams[session_id]
            ) == fix_stream_checksum(baseline.fixes[session_id]), (
                f"untouched session {session_id} diverged under chaos"
            )

    def test_every_unserved_slot_is_accounted_for(self, storm_runs):
        """No silent losses: each None fix has a reported reason."""
        _, (_, _, outcomes, _) = storm_runs
        for outcome in outcomes:
            unserved = sum(1 for fix in outcome.fixes if fix is None)
            assert unserved == (
                len(outcome.faulted)
                + len(outcome.quarantined)
                + len(outcome.stale)
            )

    def test_corrupted_answers_are_flagged_degraded(
        self, storm_world, storm_plan, storm_runs
    ):
        """A served fix built from a corrupted scan must say so."""
        _, (_, _, outcomes, tick_served_fixes) = storm_runs
        checked = 0
        for served_fixes, tick_specs in zip(
            tick_served_fixes,
            (
                storm_plan.faults_at(index)
                for index in range(1, len(outcomes) + 1)
            ),
        ):
            for spec in tick_specs:
                if spec.kind is not FaultKind.CORRUPT_SCAN:
                    continue
                fix = served_fixes.get(spec.session_id)
                if fix is None:
                    continue  # quarantined away or dropped: also fine
                assert fix.health.faults, (
                    f"corrupted scan for {spec.session_id} served an "
                    "unflagged fix"
                )
                checked += 1
        # The seed is chosen so this test actually bites.
        assert checked > 0

    def test_storm_and_response_share_one_metrics_document(
        self, storm_plan, storm_runs
    ):
        _, (engine, _, _, _) = storm_runs
        counters = engine.metrics_snapshot()["engine"]["counters"]
        injected = sum(
            value
            for name, value in counters.items()
            if name.startswith("chaos.injected.")
        )
        assert 0 < injected <= len(storm_plan)
        # Every applied RAISE fault became exactly one counted session
        # fault — injection and isolation agree.
        assert (
            counters["engine.quarantine.faults"]
            == counters["chaos.injected.raise"]
        )

    def test_every_scheduled_fault_is_accounted_for(
        self, storm_plan, storm_runs
    ):
        """injected + skipped reconciles exactly against the plan."""
        _, (engine, _, _, _) = storm_runs
        counters = engine.metrics_snapshot()["engine"]["counters"]
        injected = sum(
            value
            for name, value in counters.items()
            if name.startswith("chaos.injected.")
        )
        assert injected + counters["chaos.skipped"] == len(storm_plan)

    def test_identical_storms_converge_to_identical_state(
        self, storm_world, storm_plan, storm_runs
    ):
        """Chaos runs are reproducible down to the engine's full state."""
        _, (first_engine, first_streams, _, _) = storm_runs
        second_engine, second_streams, _, _ = _run_storm(storm_world, storm_plan)
        assert json.dumps(
            second_engine.checkpoint(), sort_keys=True
        ) == json.dumps(first_engine.checkpoint(), sort_keys=True)
        for session_id, stream in first_streams.items():
            assert fix_stream_checksum(
                second_streams[session_id]
            ) == fix_stream_checksum(stream)


@pytest.fixture()
def duo_world(small_study):
    """Two sessions over short walks, for targeted message-fault tests."""
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:4]))
        for trace in small_study.test_traces[:2]
    ]
    workload = multi_session_workload(
        traces, 2, corpus_size=2, stagger_ticks=0
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


class TestMessageFaults:
    def test_duplicate_redelivery_is_answered_idempotently(self, duo_world):
        engine, workload = duo_world
        victim = sorted(workload.sessions)[0]
        last_tick = len(workload.ticks)
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=last_tick,
                    session_id=victim,
                    kind=FaultKind.DUPLICATE_MESSAGE,
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        for tick in workload.ticks:
            harness.tick_detailed(_routable(tick, engine))
        assert harness.pending_redeliveries == 1
        # The re-delivery lands on the first tick without a fresh event.
        outcome = harness.tick_detailed([])
        assert outcome.duplicates == (victim,)
        assert outcome.fixes == [engine.sessions.get(victim).last_fix]
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["engine.sequence.duplicates"] == 1
        assert counters["chaos.injected.duplicate-message"] == 1

    def test_reorder_produces_a_gap_then_a_stale_drop(self, duo_world):
        engine, workload = duo_world
        victim = sorted(workload.sessions)[0]
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=3,
                    session_id=victim,
                    kind=FaultKind.REORDER_MESSAGE,
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        for tick in workload.ticks:
            harness.tick_detailed(_routable(tick, engine))
        outcome = harness.tick_detailed([])
        assert outcome.stale == (victim,)
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["engine.sequence.gaps"] == 1
        assert counters["engine.sequence.stale"] == 1
        assert counters["chaos.injected.reorder-message"] == 1

    def test_dropped_message_never_reaches_the_engine(self, duo_world):
        engine, workload = duo_world
        victim, other = sorted(workload.sessions)
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=2, session_id=victim, kind=FaultKind.DROP_MESSAGE
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        harness.tick_detailed(_routable(workload.ticks[0], engine))
        outcome = harness.tick_detailed(_routable(workload.ticks[1], engine))
        assert victim not in outcome.served
        assert other in outcome.served
        assert len(outcome.fixes) == 1  # the event list shrank
        # The next delivery shows the engine a sequence gap, then serves.
        outcome = harness.tick_detailed(_routable(workload.ticks[2], engine))
        assert victim in outcome.served
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["chaos.injected.drop-message"] == 1
        assert counters["engine.sequence.gaps"] == 1

    def test_truncated_scan_halves_the_vector(self, duo_world):
        engine, workload = duo_world
        victim = sorted(workload.sessions)[0]
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=2, session_id=victim, kind=FaultKind.TRUNCATE_SCAN
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        harness.tick_detailed(_routable(workload.ticks[0], engine))
        outcome = harness.tick_detailed(_routable(workload.ticks[1], engine))
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["chaos.injected.truncate-scan"] == 1
        # The resilient service flags or coasts — it never serves a
        # clean-looking fix from half a scan.
        fix = engine.sessions.get(victim).last_fix
        if victim in outcome.served:
            assert fix.health.faults


class TestHarnessMechanics:
    def test_refuses_an_engine_with_an_injector(self, duo_world):
        engine, _ = duo_world
        engine.fault_injector = lambda phase, session_id: None
        with pytest.raises(ValueError, match="fault injector"):
            ChaosHarness(engine, FaultPlan())

    def test_uninstall_restores_the_engine_seams(self, duo_world):
        engine, _ = duo_world
        clock = engine.clock
        harness = ChaosHarness(engine, FaultPlan())
        assert engine.fault_injector == harness._inject
        harness.uninstall()
        assert engine.fault_injector is None
        assert engine.clock is clock

    def test_latency_fault_skews_the_clock_not_the_wall(self, duo_world):
        engine, workload = duo_world
        victim = sorted(workload.sessions)[0]
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=1,
                    session_id=victim,
                    kind=FaultKind.LATENCY,
                    phase="prepare",
                    magnitude=2.5,
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        harness.tick_detailed(_routable(workload.ticks[0], engine))
        assert harness.clock_skew_s == 2.5
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["chaos.injected.latency"] == 1

    def test_raise_fault_quarantines_the_victim(self, duo_world):
        engine, workload = duo_world
        victim, other = sorted(workload.sessions)
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=1,
                    session_id=victim,
                    kind=FaultKind.RAISE,
                    phase="complete",
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        outcome = harness.tick_detailed(_routable(workload.ticks[0], engine))
        assert outcome.served == (other,)
        assert outcome.faulted[0].session_id == victim
        assert "ChaosError" in outcome.faulted[0].error

    def test_unfired_phase_fault_counts_as_skipped(self, duo_world):
        """A RAISE whose victim has no event that tick never fires —
        it must land in chaos.skipped, not silently undercount."""
        engine, workload = duo_world
        victim, other = sorted(workload.sessions)
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=1,
                    session_id=victim,
                    kind=FaultKind.RAISE,
                    phase="complete",
                )
            ]
        )
        harness = ChaosHarness(engine, plan)
        events = [
            event
            for event in _routable(workload.ticks[0], engine)
            if event.session_id != victim
        ]
        outcome = harness.tick_detailed(events)
        assert outcome.served == (other,)
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["chaos.skipped"] == 1
        assert counters.get("chaos.injected.raise", 0) == 0

    def test_quarantined_victims_fault_counts_as_skipped(self, duo_world):
        """A phase fault aimed at a session inside its backoff window
        is never reached by the injector; it must still be counted."""
        engine, workload = duo_world
        victim, other = sorted(workload.sessions)
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=1,
                    session_id=victim,
                    kind=FaultKind.RAISE,
                    phase="prepare",
                ),
                FaultSpec(
                    tick=2,
                    session_id=victim,
                    kind=FaultKind.RAISE,
                    phase="prepare",
                ),
            ]
        )
        harness = ChaosHarness(engine, plan)
        outcome = harness.tick_detailed(_routable(workload.ticks[0], engine))
        assert outcome.faulted[0].action == "quarantined"
        # Tick 2: the victim is inside its backoff window, so the
        # scheduled fault has nowhere to fire.
        outcome = harness.tick_detailed(_routable(workload.ticks[1], engine))
        assert victim in outcome.quarantined
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["chaos.injected.raise"] == 1
        assert counters["chaos.skipped"] == 1

    def test_unroutable_events_are_filtered_not_fatal(self, duo_world):
        engine, workload = duo_world
        victim, other = sorted(workload.sessions)
        engine.remove_session(victim)
        harness = ChaosHarness(engine, FaultPlan())
        events = list(workload.ticks[0])
        outcome = harness.tick_detailed(events)
        assert outcome.served == (other,)
        counters = engine.metrics_snapshot()["engine"]["counters"]
        assert counters["chaos.unroutable"] == 1


class TestLogicalClockStorms:
    """Latency skew on an injectable logical clock: no wall time anywhere."""

    def test_latency_skew_shedding_is_deterministic(self, storm_world):
        """Deadline shedding under injected latency is schedule-pure.

        The engine runs on a :class:`~repro.serving.LogicalClock`
        (auto-advancing per reading) with a tick budget, and the storm
        injects latency as clock skew — so *which* sessions get shed to
        the fast path is a pure function of the plan, and two runs
        agree exactly.  On a wall clock this assertion is impossible:
        machine load would move the shed boundary between runs.
        """
        from repro.serving import LogicalClock

        fingerprint_db, motion_db, config, workload = storm_world
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=2,
                    session_id=victim,
                    kind=FaultKind.LATENCY,
                    phase="prepare",
                    magnitude=0.5,
                )
                for victim in VICTIMS[:2]
            ]
        )

        def run():
            services = build_session_services(
                workload, fingerprint_db, motion_db, config
            )
            engine = BatchedServingEngine(
                fingerprint_db,
                motion_db,
                config,
                tick_budget_s=0.25,
                clock=LogicalClock(auto_advance_s=0.01),
            )
            harness = ChaosHarness(engine, plan)
            for session_id, service in services.items():
                engine.add_session(session_id, service)
            shed = []
            for tick in workload.ticks:
                outcome = harness.tick_detailed(_routable(tick, engine))
                shed.append(outcome.shed)
            return shed, harness.clock_skew_s

        first_shed, first_skew = run()
        second_shed, second_skew = run()
        assert first_shed == second_shed
        assert first_skew == second_skew == 1.0
        # The injected second of skew blows the quarter-second budget:
        # the tick the faults land on must shed somebody.
        assert any(shed for shed in first_shed)
