"""Crash safety: checkpoint/restore, the WAL, and kill-anywhere recovery.

The contract under test is the strongest one serving makes: kill the
process after *any* tick, restore the newest checkpoint into a fresh
engine, replay the write-ahead log — and the post-crash fix stream is
bitwise identical to the run that never crashed.  Serialization
round-trips are property-tested (JSON floats round-trip exactly), and
the WAL's torn-tail tolerance is exercised directly.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.io.serialize import (
    fix_from_dict,
    fix_to_dict,
    imu_segment_from_dict,
    imu_segment_to_dict,
)
from repro.motion.pedestrian import BodyProfile
from repro.robustness import ResilientMoLocService
from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    WriteAheadLog,
    build_session_services,
    fix_stream_checksum,
    recover_engine,
)
from repro.serving.checkpoint import (
    checkpoint_digest,
    event_from_dict,
    event_to_dict,
)
from repro.sim.evaluation import multi_session_workload

N_SESSIONS = 64


@pytest.fixture(scope="module")
def crash_world(small_study):
    """A 64-session workload over truncated walks, plus its databases.

    Five hops per walk keep the kill-at-every-tick sweep (a full serve
    per possible crash point) affordable while still crossing every
    checkpointed state: calibration, retention, stride personalization,
    and the robustness monitors all engage within the first intervals.
    """
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:5]))
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, N_SESSIONS, corpus_size=4, stagger_ticks=0
    )
    return fingerprint_db, motion_db, small_study.config, workload


def _make_service_factory(fingerprint_db, motion_db, config):
    """The restore-side factory: same kind of service, fresh state."""

    def make_service(session_id: str) -> ResilientMoLocService:
        return ResilientMoLocService(
            fingerprint_db,
            motion_db,
            body=BodyProfile(height_m=1.72),
            config=config,
        )

    return make_service


def _checkpoint_text(engine: BatchedServingEngine) -> str:
    return json.dumps(engine.checkpoint(), sort_keys=True)


@pytest.fixture(scope="module")
def baseline_run(crash_world, tmp_path_factory):
    """The uninterrupted run: WAL, per-tick fixes, per-tick checkpoints.

    Checkpoints are JSON-round-tripped before use, so every restore in
    this module also proves the checkpoint survives serialization to
    disk, not just in-memory hand-off.
    """
    fingerprint_db, motion_db, config, workload = crash_world
    wal_path = tmp_path_factory.mktemp("wal") / "serving.wal"
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    tick_fixes = []  # one {session_id: fix} per tick, in tick order
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
    return engine, wal_path, tick_fixes, checkpoints


class TestKillAnywhere:
    def test_restore_and_replay_is_bitwise_exact_at_every_crash_point(
        self, crash_world, baseline_run
    ):
        """Crash after tick t, for every t: identical streams and state."""
        fingerprint_db, motion_db, config, workload = crash_world
        engine, wal_path, tick_fixes, checkpoints = baseline_run
        final_state = _checkpoint_text(engine)
        make_service = _make_service_factory(fingerprint_db, motion_db, config)
        n_ticks = len(workload.ticks)
        assert engine.tick_index == n_ticks

        for crash_after in range(n_ticks + 1):
            fresh = BatchedServingEngine(fingerprint_db, motion_db, config)
            fresh.restore(checkpoints[crash_after], make_service)
            assert fresh.tick_index == crash_after
            replayed = {sid: [] for sid in workload.sessions}
            with WriteAheadLog(wal_path, fsync=False) as wal:
                for kind, _, events in wal.records_after(crash_after):
                    assert kind == "tick"
                    for event, fix in zip(events, fresh.tick(events)):
                        replayed[event.session_id].append(fix)
            assert fresh.tick_index == n_ticks
            # The replayed suffix matches the uninterrupted run bit for
            # bit, for every session ...
            for session_id, fixes in replayed.items():
                baseline = [
                    tick_fixes[t][session_id]
                    for t in range(crash_after, n_ticks)
                    if session_id in tick_fixes[t]
                ]
                assert fix_stream_checksum(fixes) == fix_stream_checksum(
                    baseline
                ), f"stream diverged for {session_id} (crash at {crash_after})"
            # ... and so does the engine's own end state.
            assert _checkpoint_text(fresh) == final_state

    def test_recover_engine_replays_the_tail(self, crash_world, baseline_run):
        fingerprint_db, motion_db, config, workload = crash_world
        engine, wal_path, _, checkpoints = baseline_run
        crash_after = 2
        fresh = BatchedServingEngine(
            fingerprint_db, motion_db, config, tick_budget_s=5.0
        )
        with WriteAheadLog(wal_path, fsync=False) as wal:
            replayed = recover_engine(
                fresh,
                checkpoints[crash_after],
                wal,
                _make_service_factory(fingerprint_db, motion_db, config),
            )
        assert replayed == len(workload.ticks) - crash_after
        assert fresh.tick_index == engine.tick_index
        assert _checkpoint_text(fresh) == _checkpoint_text(engine)
        # The budget was suspended for the replay, not lost.
        assert fresh.tick_budget_s == 5.0


class TestCheckpointValidation:
    def test_restore_rejects_wrong_kind(self, crash_world):
        fingerprint_db, motion_db, config, _ = crash_world
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        with pytest.raises(ValueError, match="engine_checkpoint"):
            engine.restore({"kind": "fault_plan"}, lambda sid: None)

    def test_restore_rejects_unknown_version(self, crash_world):
        fingerprint_db, motion_db, config, _ = crash_world
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        with pytest.raises(ValueError, match="version"):
            engine.restore(
                {"kind": "engine_checkpoint", "format_version": 99},
                lambda sid: None,
            )

    def test_restore_requires_a_fresh_engine(self, crash_world, baseline_run):
        fingerprint_db, motion_db, config, _ = crash_world
        _, _, _, checkpoints = baseline_run
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        engine.add_session(
            "occupant",
            ResilientMoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=config,
            ),
        )
        with pytest.raises(ValueError, match="fresh engine"):
            engine.restore(
                checkpoints[0],
                _make_service_factory(fingerprint_db, motion_db, config),
            )


class TestCheckpointEncoding:
    def test_checkpoint_json_is_the_canonical_encoding(self, baseline_run):
        """One encoding serves both the size histogram and the file."""
        engine = baseline_run[0]
        before = engine.metrics_snapshot()["engine"]["histograms"]
        text = engine.checkpoint_json()
        assert text == json.dumps(engine.checkpoint(), sort_keys=True)
        after = engine.metrics_snapshot()["engine"]["histograms"]
        observed = after["checkpoint.bytes"]
        assert observed["count"] == before["checkpoint.bytes"]["count"] + 2
        # Both calls observed the byte length of that same text.
        assert observed["sum"] - before["checkpoint.bytes"]["sum"] == 2 * len(
            text.encode("utf-8")
        )


def _admission(make_service, session_id):
    """A never-served session's checkpoint entry."""
    return {
        "session_id": session_id,
        "service": make_service(session_id).state_dict(),
        "intervals_served": 0,
        "last_sequence": None,
        "strikes": 0,
        "quarantined_until": 0,
        "last_fix": None,
    }


class TestMembershipRecovery:
    """Admissions and removals replay from the WAL, in file order."""

    def _logged_run(self, crash_world, wal_path):
        """Admit, serve, checkpoint at a tick and keep admitting at it.

        Returns the engine, the checkpoint texts with their marker
        written (in order), and the served fixes per tick.
        """
        fingerprint_db, motion_db, config, workload = crash_world
        make_service = _make_service_factory(fingerprint_db, motion_db, config)
        ids = sorted(workload.sessions)[:6]
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        texts = []
        with WriteAheadLog(wal_path, fsync=False) as wal:

            def admit(session_id):
                record = engine.build_session(
                    _admission(make_service, session_id), make_service
                )
                wal.append_admission(
                    engine.tick_index, _admission(make_service, session_id)
                )
                engine.admit(record)

            def remove(session_id):
                wal.append_removal(engine.tick_index, session_id)
                engine.remove_session(session_id)

            def checkpoint():
                text = engine.checkpoint_json()
                wal.append_checkpoint(
                    engine.tick_index, checkpoint_digest(text)
                )
                texts.append(text)

            def tick(index):
                events = [
                    event
                    for event in workload.ticks[index]
                    if event.session_id in engine.sessions
                ]
                wal.append(engine.tick_index + 1, events)
                engine.tick(events)

            for session_id in ids[:4]:
                admit(session_id)
            tick(0)
            checkpoint()  # tick 1, before the admissions at tick 1
            admit(ids[4])
            remove(ids[4])
            admit(ids[4])
            admit(ids[5])
            checkpoint()  # tick 1 again, folding those four records
            remove(ids[0])
            tick(1)
        return engine, texts

    def test_whole_log_replays_without_a_checkpoint(
        self, crash_world, tmp_path
    ):
        fingerprint_db, motion_db, config, _ = crash_world
        wal_path = tmp_path / "membership.wal"
        engine, _ = self._logged_run(crash_world, wal_path)
        fresh = BatchedServingEngine(fingerprint_db, motion_db, config)
        with WriteAheadLog(wal_path, fsync=False) as wal:
            replayed = recover_engine(
                fresh,
                None,
                wal,
                _make_service_factory(fingerprint_db, motion_db, config),
            )
        assert replayed == 2
        assert fresh.checkpoint_json() == engine.checkpoint_json()

    def test_each_checkpoint_replays_exactly_the_records_after_it(
        self, crash_world, tmp_path
    ):
        """Two checkpoints at one tick, admissions between them: each
        recovers to the same end state, sessions in the same order."""
        fingerprint_db, motion_db, config, _ = crash_world
        wal_path = tmp_path / "membership.wal"
        engine, texts = self._logged_run(crash_world, wal_path)
        first, second = texts
        assert json.loads(first)["tick_index"] == 1
        assert json.loads(second)["tick_index"] == 1
        for text in texts:
            fresh = BatchedServingEngine(fingerprint_db, motion_db, config)
            with WriteAheadLog(wal_path, fsync=False) as wal:
                recover_engine(
                    fresh,
                    text,
                    wal,
                    _make_service_factory(fingerprint_db, motion_db, config),
                )
            assert fresh.checkpoint_json() == engine.checkpoint_json()

    def test_a_marker_without_its_checkpoint_is_ignored(
        self, crash_world, tmp_path
    ):
        """Died between a marker and its checkpoint write: the older
        checkpoint on disk still finds its own marker."""
        fingerprint_db, motion_db, config, _ = crash_world
        wal_path = tmp_path / "membership.wal"
        engine, texts = self._logged_run(crash_world, wal_path)
        with WriteAheadLog(wal_path, fsync=False) as wal:
            wal.append_checkpoint(engine.tick_index, "0" * 32)
        fresh = BatchedServingEngine(fingerprint_db, motion_db, config)
        with WriteAheadLog(wal_path, fsync=False) as wal:
            recover_engine(
                fresh,
                texts[0],
                wal,
                _make_service_factory(fingerprint_db, motion_db, config),
            )
        assert fresh.checkpoint_json() == engine.checkpoint_json()


class TestWriteAheadLog:
    def test_membership_records_round_trip_in_file_order(self, tmp_path):
        path = tmp_path / "members.wal"
        entry = {"session_id": "alice", "service": {"k": [1.5, None]}}
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append_admission(0, entry)
            wal.append(1, [IntervalEvent("alice", [1.5])])
            wal.append_checkpoint(1, "ab" * 16)
            wal.append_removal(1, "alice")
        with WriteAheadLog(path, fsync=False) as wal:
            records = list(wal.records())
            tail = [(k, t) for k, t, _ in wal.records_after(1, "ab" * 16)]
            unmarked = [(k, t) for k, t, _ in wal.records_after(0)]
        assert [(kind, tick) for kind, tick, _ in records] == [
            ("admit", 0),
            ("tick", 1),
            ("checkpoint", 1),
            ("remove", 1),
        ]
        assert records[0][2] == entry
        assert records[2][2] == "ab" * 16
        assert records[3][2] == "alice"
        # After its marker: exactly the records the checkpoint lacks.
        assert tail == [("remove", 1)]
        # No marker named: the checkpoint folds everything up to its
        # tick, and markers are never yielded.
        assert unmarked == [("tick", 1), ("remove", 1)]

    def test_torn_final_admission_is_dropped(self, tmp_path):
        path = tmp_path / "torn-admit.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append_admission(0, {"session_id": "alice"})
        line = json.dumps(
            {"v": 2, "tick": 0, "admit": {"session_id": "bob"}},
            sort_keys=True,
        )
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line[:-7])
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append_admission(0, {"session_id": "carol"})
            admitted = [
                payload["session_id"] for _, _, payload in wal.records()
            ]
        assert admitted == ["alice", "carol"]

    def test_version_one_lines_still_read(self, tmp_path):
        path = tmp_path / "v1.wal"
        path.write_text(
            '{"events": [], "tick": 1, "v": 1}\n'
            '{"epoch": {"checksum": "c", "target": 1, "updates": []}, '
            '"tick": 1, "v": 1}\n'
        )
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(2, [])
            kinds = [(kind, tick) for kind, tick, _ in wal.records()]
        assert kinds == [("tick", 1), ("epoch", 1), ("tick", 2)]
        assert json.loads(path.read_text().splitlines()[-1])["v"] == 2

    def test_unknown_version_admission_is_refused(self, tmp_path):
        path = tmp_path / "future-admit.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append_admission(0, {"session_id": "alice"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 3, "tick": 0, "admit": {"session_id": "x"}}\n')
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(ValueError, match="unsupported WAL version 3"):
                list(wal.records_after(0))

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, [IntervalEvent("alice", [1.5, -2.25])])
            wal.append(2, [IntervalEvent("alice", [0.5, -0.5])])
        # The process died mid-write: a truncated JSON tail.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "tick": 3, "eve')
        with WriteAheadLog(path, fsync=False) as wal:
            ticks = [tick for _, tick, _ in wal.records()]
        assert ticks == [1, 2]

    def test_torn_tail_is_truncated_before_appending(self, tmp_path):
        """Crash, recover and keep appending, crash again: no lost tick.

        Without the torn-tail guard the recovered process's first new
        line concatenates onto the fragment, producing one undecodable
        line — and a tick that WAS served silently vanishes from the
        next replay.
        """
        path = tmp_path / "torn-append.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, [IntervalEvent("alice", [1.5])])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "tick": 2, "eve')  # died mid-append
        # The recovered process re-runs tick 2 (the torn one was never
        # served) and keeps appending to the same WAL.
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(2, [IntervalEvent("alice", [0.5])])
        with WriteAheadLog(path, fsync=False) as wal:
            replayed = list(wal.records())
        assert [tick for _, tick, _ in replayed] == [1, 2]
        assert replayed[1][2][0].scan == [0.5]

    def test_mid_file_corruption_raises_instead_of_skipping(self, tmp_path):
        """A corrupted *served* tick must fail loudly, not vanish."""
        path = tmp_path / "corrupt.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            for tick in (1, 2, 3):
                wal.append(tick, [IntervalEvent("bob", [float(tick)])])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"v": 1, "tick": 2, GARBAGE}\n'
        path.write_text("".join(lines), encoding="utf-8")
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(ValueError, match="undecodable line 2"):
                list(wal.records())

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "future.wal"
        path.write_text('{"v": 99, "tick": 1, "events": []}\n')
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(ValueError, match="unsupported WAL version"):
                list(wal.records())

    def test_records_after_filters_by_tick(self, tmp_path):
        path = tmp_path / "tail.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            for tick in (1, 2, 3):
                wal.append(tick, [IntervalEvent("bob", [float(tick)])])
            tail = list(wal.records_after(1))
        assert [tick for _, tick, _ in tail] == [2, 3]
        assert tail[0][2][0].scan == [2.0]


finite = st.floats(allow_nan=False, allow_infinity=True, width=64)


class TestSerializationRoundTrips:
    @given(
        scan=st.one_of(
            st.none(), st.lists(finite, min_size=1, max_size=12)
        ),
        sequence=st.one_of(st.none(), st.integers(min_value=0, max_value=9999)),
    )
    @settings(max_examples=50, deadline=None)
    def test_event_round_trip_is_bitwise(self, scan, sequence):
        event = IntervalEvent(
            session_id="user-0001", scan=scan, imu=None, sequence=sequence
        )
        payload = json.loads(json.dumps(event_to_dict(event)))
        back = event_from_dict(payload)
        assert back.session_id == event.session_id
        assert back.sequence == event.sequence
        if scan is None:
            assert back.scan is None
        else:
            # Exact float equality, sign of zero included.
            assert [value.hex() for value in back.scan] == [
                value.hex() for value in scan
            ]

    def test_event_round_trip_preserves_nan(self):
        event = IntervalEvent("u", [float("nan"), -65.0])
        back = event_from_dict(json.loads(json.dumps(event_to_dict(event))))
        assert math.isnan(back.scan[0]) and back.scan[1] == -65.0

    def test_imu_segment_round_trip_is_bitwise(self, small_study):
        for hop in small_study.test_traces[0].hops[:3]:
            payload = json.loads(json.dumps(imu_segment_to_dict(hop.imu)))
            back = imu_segment_from_dict(payload)
            np.testing.assert_array_equal(
                back.accel.samples, hop.imu.accel.samples
            )
            np.testing.assert_array_equal(
                back.compass_readings, hop.imu.compass_readings
            )
            assert back.accel.rate_hz == hop.imu.accel.rate_hz
            assert back.true_course_deg == hop.imu.true_course_deg
            assert back.true_distance_m == hop.imu.true_distance_m

    def test_served_fix_round_trip_is_bitwise(self, crash_world):
        """A real served fix (health, candidates and all) survives JSON."""
        fingerprint_db, motion_db, config, workload = crash_world
        services = build_session_services(
            workload, fingerprint_db, motion_db, config, resilient=True
        )
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        session_id = next(iter(services))
        engine.add_session(session_id, services[session_id])
        fixes = []
        for tick in workload.ticks[:3]:
            for interval in tick:
                if interval.session_id != session_id:
                    continue
                (fix,) = engine.tick([interval])
                fixes.append(fix)
        assert fixes
        for fix in fixes:
            back = fix_from_dict(json.loads(json.dumps(fix_to_dict(fix))))
            assert fix_stream_checksum([back]) == fix_stream_checksum([fix])
