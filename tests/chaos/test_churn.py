"""DB churn: the environment moves, the harness models it honestly.

A churn fault is not a corrupted message — it changes the *field*.
From its scheduled tick onward every session's honest scan reads the
changed environment while the serving database still describes the old
one.  Under test here: the :class:`EnvironmentOverlay`'s per-kind scan
transforms, its overlay↔repair symmetry (the seam the staleness
benchmark stands on), and the chaos harness integration — churn
activates once, rewrites every *fresh* scan from that tick on, keeps
redelivered messages byte-stable, and stays inside the
injected/skipped accounting invariant.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import ChaosHarness, FaultKind, FaultPlan, FaultSpec
from repro.chaos.harness import EnvironmentOverlay
from repro.core.fingerprint import RSS_CEILING_DBM, RSS_FLOOR_DBM
from repro.db.epochs import ApRemoved, ApRepowered, DriftDelta, apply_updates
from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    build_session_services,
    fix_stream_checksum,
)
from repro.sim.evaluation import multi_session_workload

SCAN = [-40.0, -55.0, -70.0, RSS_FLOOR_DBM]


def _spec(kind, ap_id=None, magnitude=0.0, tick=1):
    return FaultSpec(
        tick=tick,
        session_id="environment",
        kind=kind,
        ap_id=ap_id,
        magnitude=magnitude,
    )


class TestEnvironmentOverlay:
    def test_only_churn_kinds_activate(self):
        overlay = EnvironmentOverlay()
        with pytest.raises(ValueError, match="not a DB churn kind"):
            overlay.activate(
                FaultSpec(tick=1, session_id="alice", kind=FaultKind.DROP_MESSAGE)
            )
        assert len(overlay) == 0

    def test_ap_die_floors_the_reading(self):
        overlay = EnvironmentOverlay()
        overlay.activate(_spec(FaultKind.ENV_AP_DIE, ap_id=1))
        out = overlay.apply_scan(SCAN)
        assert out == [-40.0, RSS_FLOOR_DBM, -70.0, RSS_FLOOR_DBM]

    def test_ap_repower_shifts_one_reading(self):
        overlay = EnvironmentOverlay()
        overlay.activate(
            _spec(FaultKind.ENV_AP_REPOWER, ap_id=0, magnitude=-9.0)
        )
        assert overlay.apply_scan(SCAN)[0] == -49.0

    def test_drift_shifts_non_floored_readings_clipped(self):
        overlay = EnvironmentOverlay()
        overlay.activate(_spec(FaultKind.ENV_DRIFT, magnitude=45.0))
        out = overlay.apply_scan(SCAN)
        # Every live reading moves (clipped at the ceiling); the dead
        # slot stays dead — a floored reading is an absence, not a
        # level.
        assert out == [
            RSS_CEILING_DBM,
            -10.0,
            -25.0,
            RSS_FLOOR_DBM,
        ]

    def test_changes_compose_in_activation_order(self):
        overlay = EnvironmentOverlay()
        overlay.activate(_spec(FaultKind.ENV_DRIFT, magnitude=2.0))
        overlay.activate(_spec(FaultKind.ENV_AP_DIE, ap_id=0))
        out = overlay.apply_scan(SCAN)
        assert out[0] == RSS_FLOOR_DBM  # died after drifting
        assert out[1] == -53.0

    def test_apply_event_leaves_scanless_events_alone(self):
        overlay = EnvironmentOverlay()
        overlay.activate(_spec(FaultKind.ENV_DRIFT, magnitude=2.0))
        event = IntervalEvent(session_id="alice", scan=None)
        assert overlay.apply_event(event) is event

    def test_repair_updates_mirror_the_active_churn(self):
        overlay = EnvironmentOverlay()
        overlay.activate(_spec(FaultKind.ENV_DRIFT, magnitude=2.5))
        overlay.activate(
            _spec(FaultKind.ENV_AP_REPOWER, ap_id=2, magnitude=-9.0)
        )
        overlay.activate(_spec(FaultKind.ENV_AP_DIE, ap_id=1))
        assert overlay.repair_updates(4) == [
            DriftDelta(offsets_db=[2.5] * 4),
            ApRepowered(ap_id=2, shift_db=-9.0),
            ApRemoved(ap_id=1),
        ]

    def test_overlay_and_repair_agree_on_the_field(self, small_study):
        """The symmetry the staleness bench stands on: scanning the
        changed field against the *repaired* database reads like
        scanning the original field against the original database —
        for the readings churn rewrites deterministically."""
        fingerprint_db = small_study.fingerprint_db(6)
        n_aps = fingerprint_db.n_aps
        overlay = EnvironmentOverlay()
        overlay.activate(_spec(FaultKind.ENV_AP_DIE, ap_id=n_aps - 1))
        overlay.activate(
            _spec(FaultKind.ENV_AP_REPOWER, ap_id=0, magnitude=-6.0)
        )
        repaired = apply_updates(
            fingerprint_db, overlay.repair_updates(n_aps)
        )
        for lid in fingerprint_db.location_ids:
            expected = overlay.apply_scan(fingerprint_db.fingerprint_of(lid).rss)
            assert list(repaired.fingerprint_of(lid).rss) == pytest.approx(
                expected
            )


N_SESSIONS = 8
CHURN_TICK = 2


@pytest.fixture(scope="module")
def churn_world(small_study):
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:5]))
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, N_SESSIONS, corpus_size=4, stagger_ticks=1
    )
    return fingerprint_db, motion_db, small_study.config, workload


def _serve(churn_world, plan):
    fingerprint_db, motion_db, config, workload = churn_world
    services = build_session_services(
        workload, fingerprint_db, motion_db, config
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    harness = ChaosHarness(engine, plan) if plan is not None else None
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    per_tick = []
    for tick in workload.ticks:
        events = list(tick)
        if harness is not None:
            harness.tick_detailed(events)
            fixes = {
                sid: engine.sessions.get(sid).last_fix
                for sid in (e.session_id for e in events)
            }
        else:
            fixes = {
                event.session_id: fix
                for event, fix in zip(events, engine.tick(events))
            }
        per_tick.append(fixes)
    return harness, per_tick


class TestHarnessChurn:
    @pytest.fixture(scope="class")
    def churn_runs(self, churn_world):
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=CHURN_TICK,
                    session_id="environment",
                    kind=FaultKind.ENV_DRIFT,
                    magnitude=6.0,
                )
            ]
        )
        _, clean = _serve(churn_world, None)
        harness, churned = _serve(churn_world, plan)
        return harness, clean, churned

    def test_churn_hits_every_session_from_its_tick_onward(
        self, churn_world, churn_runs
    ):
        _, _, _, workload = churn_world
        harness, clean, churned = churn_runs
        # Plan ticks are 1-based: the churn scheduled for CHURN_TICK
        # lands on delivered frame CHURN_TICK - 1.
        first_churned_frame = CHURN_TICK - 1
        for session_id in workload.sessions:
            before = [
                t[session_id]
                for t in clean[:first_churned_frame]
                if session_id in t
            ]
            before_churned = [
                t[session_id]
                for t in churned[:first_churned_frame]
                if session_id in t
            ]
            # Bitwise identical before the field changed ...
            assert fix_stream_checksum(before) == fix_stream_checksum(
                before_churned
            )
        # ... and *some* sessions diverge after (the field moved for
        # everyone; a 6 dB site drift is not absorbed silently).
        after = lambda run: fix_stream_checksum(
            [
                t[sid]
                for t in run[first_churned_frame:]
                for sid in sorted(t)
            ]
        )
        assert after(clean) != after(churned)

    def test_churn_is_injected_not_skipped(self, churn_runs):
        harness, _, _ = churn_runs
        counters = harness.metrics.snapshot()["counters"]
        assert counters["chaos.injected.env-drift"] == 1
        assert counters.get("chaos.skipped", 0) == 0
        assert harness.overlay.active == (
            FaultSpec(
                tick=CHURN_TICK,
                session_id="environment",
                kind=FaultKind.ENV_DRIFT,
                magnitude=6.0,
            ),
        )

    def test_redelivered_events_keep_their_original_bytes(
        self, churn_world
    ):
        """A duplicate redelivered *after* churn activates must carry
        the bytes of its original delivery — a replayed wire message
        does not re-sample the field."""
        fingerprint_db, motion_db, config, workload = churn_world
        victim = sorted(workload.sessions)[0]
        plan = FaultPlan(
            [
                FaultSpec(
                    tick=1, session_id=victim, kind=FaultKind.DUPLICATE_MESSAGE
                ),
                FaultSpec(
                    tick=CHURN_TICK,
                    session_id="environment",
                    kind=FaultKind.ENV_DRIFT,
                    magnitude=6.0,
                ),
            ]
        )
        services = build_session_services(
            workload, fingerprint_db, motion_db, config
        )
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        harness = ChaosHarness(engine, plan)
        for session_id, service in services.items():
            engine.add_session(session_id, service)
        delivered = []
        for tick in workload.ticks:
            events = list(tick)
            harness.tick_detailed(events)
            delivered.append(list(harness.last_delivered))
        # The duplicated message shows up twice in the delivered frames;
        # both deliveries must carry identical bytes even though the
        # field drifted in between.
        by_key = {}
        for frame in delivered:
            for event in frame:
                if event.session_id == victim:
                    by_key.setdefault(
                        (event.session_id, event.sequence), []
                    ).append(event.scan)
        doubled = {
            key: scans for key, scans in by_key.items() if len(scans) > 1
        }
        assert doubled, "the duplicate never made it back"
        for scans in doubled.values():
            first = scans[0]
            for scan in scans[1:]:
                assert scan == first
