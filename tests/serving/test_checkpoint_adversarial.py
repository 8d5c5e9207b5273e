"""Crash safety under attack: trust state survives checkpoint/restore.

The adversarial acceptance bar: serve a workload that carries a live
rogue-AP attack with the trust defense enabled, kill the engine after
*any* tick, restore the newest checkpoint into a fresh engine with
fresh trust monitors, replay the write-ahead log — and the post-crash
fix stream (masked APs, fault attributions, confidences and all) is
bitwise identical to the run that never crashed.  Quarantine streaks,
parole countdowns and EWMA residual statistics all live in the
checkpoint; losing any of them would flip a post-restore quarantine
decision and diverge the stream.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.motion.pedestrian import BodyProfile
from repro.robustness import ResilientMoLocService
from repro.robustness.trust import ApTrustMonitor
from repro.serving import (
    BatchedServingEngine,
    WriteAheadLog,
    build_session_services,
    fix_stream_checksum,
)
from repro.sim.adversary import inject_rogue_ap
from repro.sim.evaluation import multi_session_workload

N_SESSIONS = 16
N_APS = 6
ROGUE_AP = 5
ONSET_INTERVAL = 2


def _defended_service(fingerprint_db, motion_db, config):
    # One monitor per service: trust state is per-user.
    return ResilientMoLocService(
        fingerprint_db,
        motion_db,
        body=BodyProfile(height_m=1.72),
        config=config,
        trust=ApTrustMonitor(n_aps=N_APS),
    )


@pytest.fixture(scope="module")
def attack_world(small_study):
    """A 16-session workload whose every walk carries a rogue AP.

    The forgery lands at interval 2, so the first ticks build honest
    EWMA statistics and the quarantine streak is mid-flight at several
    crash points — exactly the state a lossy restore would corrupt.
    """
    fingerprint_db = small_study.fingerprint_db(N_APS)
    motion_db, _ = small_study.motion_db(N_APS)
    traces = [
        inject_rogue_ap(
            dataclasses.replace(trace, hops=list(trace.hops[:5])),
            ROGUE_AP,
            ONSET_INTERVAL,
        )
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, N_SESSIONS, corpus_size=4, stagger_ticks=0
    )
    return fingerprint_db, motion_db, small_study.config, workload


def _checkpoint_text(engine: BatchedServingEngine) -> str:
    return json.dumps(engine.checkpoint(), sort_keys=True)


@pytest.fixture(scope="module")
def baseline_run(attack_world, tmp_path_factory):
    """The uninterrupted defended run under attack, fully journaled."""
    fingerprint_db, motion_db, config, workload = attack_world
    wal_path = tmp_path_factory.mktemp("wal-adv") / "serving.wal"
    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        config,
        make_service=lambda trace: _defended_service(
            fingerprint_db, motion_db, config
        ),
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    tick_fixes = []
    checkpoints = {0: json.loads(json.dumps(engine.checkpoint()))}
    with WriteAheadLog(wal_path, fsync=False) as wal:
        for tick in workload.ticks:
            events = list(tick)
            wal.append(engine.tick_index + 1, events)
            fixes = engine.tick(events)
            tick_fixes.append(
                {
                    event.session_id: fix
                    for event, fix in zip(events, fixes)
                }
            )
            checkpoints[engine.tick_index] = json.loads(
                json.dumps(engine.checkpoint())
            )
    return engine, services, wal_path, tick_fixes, checkpoints


class TestDefendedKillAnywhere:
    def test_the_attack_and_the_defense_actually_engaged(self, baseline_run):
        """A vacuous baseline would make the sweep below meaningless."""
        engine, _, _, tick_fixes, checkpoints = baseline_run
        # Every session counts into the engine's one session registry.
        counters = engine.metrics_snapshot()["sessions"]["counters"]
        assert counters["service.trust.quarantines"] > 0
        masked = {
            ap
            for fixes in tick_fixes
            for fix in fixes.values()
            for ap in fix.health.masked_ap_ids
        }
        assert ROGUE_AP in masked
        # The final checkpoint carries live trust state for the rogue.
        final = checkpoints[len(tick_fixes)]
        trust_states = [
            entry["service"]["trust"] for entry in final["sessions"]
        ]
        assert all("quarantined" in state for state in trust_states)
        assert any(state["quarantined"][ROGUE_AP] for state in trust_states)

    def test_restore_and_replay_is_bitwise_exact_at_every_crash_point(
        self, attack_world, baseline_run
    ):
        """Crash after tick t, for every t: identical defended streams."""
        fingerprint_db, motion_db, config, workload = attack_world
        engine, _, wal_path, tick_fixes, checkpoints = baseline_run
        final_state = _checkpoint_text(engine)
        n_ticks = len(workload.ticks)
        assert engine.tick_index == n_ticks

        for crash_after in range(n_ticks + 1):
            fresh = BatchedServingEngine(fingerprint_db, motion_db, config)
            fresh.restore(
                checkpoints[crash_after],
                lambda session_id: _defended_service(
                    fingerprint_db, motion_db, config
                ),
            )
            assert fresh.tick_index == crash_after
            replayed = {sid: [] for sid in workload.sessions}
            with WriteAheadLog(wal_path, fsync=False) as wal:
                for kind, _, events in wal.records_after(crash_after):
                    assert kind == "tick"
                    for event, fix in zip(events, fresh.tick(events)):
                        replayed[event.session_id].append(fix)
            assert fresh.tick_index == n_ticks
            for session_id, fixes in replayed.items():
                baseline = [
                    tick_fixes[t][session_id]
                    for t in range(crash_after, n_ticks)
                    if session_id in tick_fixes[t]
                ]
                assert fix_stream_checksum(fixes) == fix_stream_checksum(
                    baseline
                ), f"stream diverged for {session_id} (crash at {crash_after})"
            assert _checkpoint_text(fresh) == final_state

    def test_pre_trust_checkpoint_restores_with_a_clean_monitor(
        self, attack_world, baseline_run
    ):
        """A checkpoint written before the defense existed still loads.

        The trust key is absent from such documents; restore must reset
        the monitor rather than crash or carry stale quarantines.
        """
        fingerprint_db, motion_db, config, _ = attack_world
        _, _, _, _, checkpoints = baseline_run
        legacy = json.loads(json.dumps(checkpoints[3]))
        for entry in legacy["sessions"]:
            entry["service"].pop("trust", None)
        fresh = BatchedServingEngine(fingerprint_db, motion_db, config)
        fresh.restore(
            legacy,
            lambda session_id: _defended_service(
                fingerprint_db, motion_db, config
            ),
        )
        for entry in legacy["sessions"]:
            monitor = fresh.sessions.get(entry["session_id"]).service.trust
            assert monitor.quarantined_ap_ids == ()
            assert monitor.residual_means == (None,) * N_APS
