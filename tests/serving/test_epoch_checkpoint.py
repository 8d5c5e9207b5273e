"""Crash safety across a database-epoch flip.

``tests/serving/test_checkpoint.py`` proves kill-anywhere recovery for
a frozen database.  This module proves the same contract when the
database itself moves mid-run: an engine over an
:class:`~repro.db.epochs.EpochalDatabase` flips to epoch 1 halfway
through the workload (WAL-logged first, same append-before-act
discipline as ticks), the process is killed after *any* tick — before,
at, or after the flip — and the restored engine replays to a bitwise
identical fix stream and end state.

Also under test: the checkpoint format seams the flip introduced —
frozen engines keep writing byte-stable version-1 checkpoints, epochal
engines write version 2 with an embedded epoch snapshot, a version-1
checkpoint restored into an epochal engine pins it back to epoch 0,
and anything newer than version 2 fails loudly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.db.epochs import (
    ApRepowered,
    DriftDelta,
    EpochalDatabase,
    update_from_dict,
)
from repro.motion.pedestrian import BodyProfile
from repro.robustness import ResilientMoLocService
from repro.serving import (
    CHECKPOINT_FORMAT_VERSION,
    EPOCHAL_CHECKPOINT_FORMAT_VERSION,
    BatchedServingEngine,
    IntervalEvent,
    WriteAheadLog,
    build_session_services,
    fix_stream_checksum,
    recover_engine,
)

N_SESSIONS = 16


@pytest.fixture(scope="module")
def epoch_world(small_study):
    """A small multi-session workload plus its databases and updates."""
    from repro.sim.evaluation import multi_session_workload

    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:5]))
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, N_SESSIONS, corpus_size=4, stagger_ticks=0
    )
    updates = [
        ApRepowered(ap_id=0, shift_db=-6.0),
        DriftDelta(offsets_db=(1.0,) * fingerprint_db.n_aps),
    ]
    return fingerprint_db, motion_db, small_study.config, workload, updates


def _make_service_factory(engine, motion_db, config):
    """Restore-side factory bound to the *engine's* current database.

    Restore re-binds the epoch before rebuilding sessions, so the
    factory must read ``engine.fingerprint_db`` at call time — a
    closure over the epoch-0 database would reject under the engine's
    same-database check after a post-flip restore.  (The cluster
    bootstrap does exactly this.)
    """

    def make_service(session_id: str) -> ResilientMoLocService:
        return ResilientMoLocService(
            engine.fingerprint_db,
            motion_db,
            body=BodyProfile(height_m=1.72),
            config=config,
        )

    return make_service


def _checkpoint_text(engine: BatchedServingEngine) -> str:
    return json.dumps(engine.checkpoint(), sort_keys=True)


def _fresh_epochal_engine(fingerprint_db, motion_db, config):
    return BatchedServingEngine(
        EpochalDatabase(fingerprint_db), motion_db, config
    )


@pytest.fixture(scope="module")
def flip_baseline(epoch_world, tmp_path_factory):
    """The uninterrupted epochal run with a WAL-logged mid-run flip.

    Returns the finished engine, the WAL path, per-tick fixes, per-tick
    (JSON-round-tripped) checkpoints — and, for the flip tick itself,
    an extra checkpoint captured *after* the flip, so recovery is
    exercised from both sides of the crash window the flip opens.
    """
    fingerprint_db, motion_db, config, workload, updates = epoch_world
    wal_path = tmp_path_factory.mktemp("epoch-wal") / "serving.wal"
    flip_after = len(workload.ticks) // 2

    engine = _fresh_epochal_engine(fingerprint_db, motion_db, config)
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    for session_id, service in services.items():
        engine.add_session(session_id, service)

    tick_fixes = []
    checkpoints = {0: json.loads(json.dumps(engine.checkpoint()))}
    post_flip_checkpoint = None
    with WriteAheadLog(wal_path, fsync=False) as wal:
        for tick in workload.ticks:
            if engine.tick_index == flip_after and engine.epoch_id == 0:
                staged = engine.epochal_db.stage(updates)
                wal.append_epoch(
                    engine.tick_index,
                    staged.epoch_id,
                    staged.checksum,
                    updates,
                )
                engine.advance_epoch(
                    updates, expected_checksum=staged.checksum
                )
                post_flip_checkpoint = json.loads(
                    json.dumps(engine.checkpoint())
                )
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
    assert engine.epoch_id == 1
    assert post_flip_checkpoint is not None
    return (
        engine,
        wal_path,
        tick_fixes,
        checkpoints,
        post_flip_checkpoint,
        flip_after,
    )


def _replay_tail(fresh, wal_path, crash_after, sessions):
    """Replay the WAL tail by hand, collecting per-session fixes."""
    replayed = {sid: [] for sid in sessions}
    with WriteAheadLog(wal_path, fsync=False) as wal:
        for kind, _, payload in wal.records_after(crash_after):
            if kind == "epoch":
                if int(payload["target"]) <= fresh.epoch_id:
                    continue
                fresh.advance_epoch(
                    updates=[
                        update_from_dict(entry)
                        for entry in payload["updates"]
                    ],
                    expected_checksum=payload["checksum"],
                )
                continue
            for event, fix in zip(payload, fresh.tick(payload)):
                replayed[event.session_id].append(fix)
    return replayed


class TestKillAnywhereAcrossTheFlip:
    def test_restore_and_replay_is_bitwise_exact_at_every_crash_point(
        self, epoch_world, flip_baseline
    ):
        fingerprint_db, motion_db, config, workload, _ = epoch_world
        engine, wal_path, tick_fixes, checkpoints, _, flip_after = (
            flip_baseline
        )
        final_state = _checkpoint_text(engine)
        n_ticks = len(workload.ticks)

        for crash_after in range(n_ticks + 1):
            fresh = _fresh_epochal_engine(fingerprint_db, motion_db, config)
            fresh.restore(
                checkpoints[crash_after],
                _make_service_factory(fresh, motion_db, config),
            )
            # Checkpoints up to and including the flip tick were taken
            # at epoch 0 (the flip lands just before the next tick).
            assert fresh.epoch_id == (0 if crash_after <= flip_after else 1)
            replayed = _replay_tail(
                fresh, wal_path, crash_after, workload.sessions
            )
            assert fresh.tick_index == n_ticks
            assert fresh.epoch_id == 1
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

    def test_crash_between_flip_and_next_checkpoint(
        self, epoch_world, flip_baseline
    ):
        """The flip's own crash window: checkpoint already at epoch 1.

        ``records_after`` re-yields the flip logged at the checkpoint's
        own tick; the replay must recognize it as already folded in and
        skip it rather than double-apply.
        """
        fingerprint_db, motion_db, config, workload, _ = epoch_world
        engine, wal_path, tick_fixes, _, post_flip, flip_after = (
            flip_baseline
        )
        fresh = _fresh_epochal_engine(fingerprint_db, motion_db, config)
        fresh.restore(
            post_flip, _make_service_factory(fresh, motion_db, config)
        )
        assert fresh.epoch_id == 1
        replayed = _replay_tail(
            fresh, wal_path, flip_after, workload.sessions
        )
        assert fresh.epoch_id == 1
        for session_id, fixes in replayed.items():
            baseline = [
                tick_fixes[t][session_id]
                for t in range(flip_after, len(workload.ticks))
                if session_id in tick_fixes[t]
            ]
            assert fix_stream_checksum(fixes) == fix_stream_checksum(baseline)
        assert _checkpoint_text(fresh) == _checkpoint_text(engine)

    def test_recover_engine_replays_ticks_and_the_flip(
        self, epoch_world, flip_baseline
    ):
        fingerprint_db, motion_db, config, workload, _ = epoch_world
        engine, wal_path, _, checkpoints, _, _ = flip_baseline
        crash_after = 1  # before the flip
        fresh = _fresh_epochal_engine(fingerprint_db, motion_db, config)
        with WriteAheadLog(wal_path, fsync=False) as wal:
            replayed = recover_engine(
                fresh,
                checkpoints[crash_after],
                wal,
                _make_service_factory(fresh, motion_db, config),
            )
        assert replayed == len(workload.ticks) - crash_after
        assert fresh.epoch_id == 1
        assert _checkpoint_text(fresh) == _checkpoint_text(engine)


class TestCheckpointFormats:
    def test_frozen_engines_stay_on_version_1(self, epoch_world):
        fingerprint_db, motion_db, config, _, _ = epoch_world
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        document = engine.checkpoint()
        assert document["format_version"] == CHECKPOINT_FORMAT_VERSION == 1
        assert "epoch" not in document

    def test_epochal_engines_write_version_2_with_the_snapshot(
        self, epoch_world
    ):
        fingerprint_db, motion_db, config, _, updates = epoch_world
        engine = _fresh_epochal_engine(fingerprint_db, motion_db, config)
        engine.advance_epoch(updates)
        document = engine.checkpoint()
        assert (
            document["format_version"]
            == EPOCHAL_CHECKPOINT_FORMAT_VERSION
            == 2
        )
        assert document["epoch"]["epoch_id"] == 1
        assert document["epoch"]["checksum"] == engine.epochal_db.checksum

    def test_future_version_fails_loudly(self, epoch_world):
        fingerprint_db, motion_db, config, _, _ = epoch_world
        engine = _fresh_epochal_engine(fingerprint_db, motion_db, config)
        with pytest.raises(ValueError, match="newer than this build"):
            engine.restore(
                {"kind": "engine_checkpoint", "format_version": 3},
                lambda sid: None,
            )

    def test_epochal_checkpoint_rejected_by_a_frozen_engine(
        self, epoch_world
    ):
        fingerprint_db, motion_db, config, _, updates = epoch_world
        source = _fresh_epochal_engine(fingerprint_db, motion_db, config)
        source.advance_epoch(updates)
        document = json.loads(json.dumps(source.checkpoint()))
        frozen = BatchedServingEngine(fingerprint_db, motion_db, config)
        with pytest.raises(ValueError, match="frozen database"):
            frozen.restore(document, lambda sid: None)

    def test_version_1_checkpoint_pins_an_epochal_engine_to_epoch_0(
        self, epoch_world
    ):
        """Pre-epoch checkpoints restore with an implicit epoch-0 pin."""
        fingerprint_db, motion_db, config, _, updates = epoch_world
        v1 = BatchedServingEngine(
            fingerprint_db, motion_db, config
        ).checkpoint()
        v1 = json.loads(json.dumps(v1))

        epochal = EpochalDatabase(fingerprint_db)
        epochal.advance_epoch(updates)  # engine starts at epoch 1
        engine = BatchedServingEngine(epochal, motion_db, config)
        assert engine.epoch_id == 1
        engine.restore(v1, _make_service_factory(engine, motion_db, config))
        assert engine.epoch_id == 0
        assert engine.fingerprint_db is epochal.snapshot(0).database


class TestEpochWalRecords:
    def test_records_interleave_ticks_and_flips_in_file_order(
        self, tmp_path
    ):
        path = tmp_path / "mixed.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, [IntervalEvent("alice", [1.0])])
            wal.append_epoch(1, 1, "aa" * 32, [ApRepowered(0, -3.0)])
            wal.append(2, [IntervalEvent("alice", [2.0])])
        with WriteAheadLog(path, fsync=False) as wal:
            kinds = [(kind, tick) for kind, tick, _ in wal.records()]
        assert kinds == [("tick", 1), ("epoch", 1), ("tick", 2)]

    def test_records_after_keeps_flips_at_the_boundary(self, tmp_path):
        """Ticks strictly after, flips at or after: the flip logged at
        the checkpoint's own tick must be re-offered to recovery."""
        path = tmp_path / "boundary.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, [IntervalEvent("bob", [1.0])])
            wal.append_epoch(1, 1, "bb" * 32, [ApRepowered(1, 2.0)])
            wal.append(2, [IntervalEvent("bob", [2.0])])
        with WriteAheadLog(path, fsync=False) as wal:
            tail = [(kind, tick) for kind, tick, _ in wal.records_after(1)]
        assert tail == [("epoch", 1), ("tick", 2)]

    def test_epoch_payload_round_trips_its_updates(self, tmp_path):
        path = tmp_path / "payload.wal"
        updates = [ApRepowered(2, -4.5), DriftDelta((0.5, -1.0))]
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append_epoch(3, 7, "cc" * 32, updates)
        with WriteAheadLog(path, fsync=False) as wal:
            ((kind, tick, payload),) = list(wal.records())
        assert (kind, tick) == ("epoch", 3)
        assert payload["target"] == 7
        assert payload["checksum"] == "cc" * 32
        assert [
            update_from_dict(entry) for entry in payload["updates"]
        ] == updates
