"""Supervised recovery: a killed worker is invisible in the fix stream.

The invariant under test everywhere here: kill a shard's worker at any
point — between ticks, mid-conversation, by real ``SIGKILL`` — and the
cluster's merged fix streams stay bitwise identical to a kill-free run,
because the respawned worker rebuilds itself from checkpoint + WAL and
answers re-deliveries idempotently.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chaos import ChaosHarness, FaultKind, FaultPlan, FaultSpec
from repro.cluster import (
    ClusterChaosHarness,
    ClusterWireError,
    ProcessShard,
    ShardDown,
    fresh_session_entry,
)
from repro.cluster.core import supervised_request
from repro.serving import BatchedServingEngine, build_session_services
from repro.serving.checkpoint import WriteAheadLog, event_to_dict

from cluster_helpers import (
    checksums,
    make_cluster,
    make_shards,
    run_cluster,
)


def _kill_plan(workload, ticks=(3, 6)):
    victims = sorted(workload.sessions)[: len(ticks)]
    return FaultPlan(
        [
            FaultSpec(tick=tick, session_id=victim, kind=FaultKind.WORKER_KILL)
            for tick, victim in zip(ticks, victims)
        ]
    )


def test_local_worker_kills_are_bitwise_invisible(
    world, baseline_fixes, tmp_path
):
    workload = world[3]
    plan = _kill_plan(workload)
    coordinator = make_cluster(world, tmp_path, 2)
    harness = ClusterChaosHarness(coordinator, plan)
    fixes = run_cluster(coordinator, workload, harness=harness)
    snapshot = coordinator.metrics_snapshot()
    coordinator.shutdown()

    assert checksums(fixes) == checksums(baseline_fixes)
    counters = snapshot["coordinator"]["counters"]
    assert counters["chaos.injected.worker-kill"] == len(plan)
    assert counters["cluster.recoveries"] == len(plan)
    # Accounting: every scheduled fault landed in injected or skipped.
    injected = sum(
        value
        for name, value in counters.items()
        if name.startswith("chaos.injected.")
    )
    assert injected + counters["chaos.skipped"] == len(plan)


def test_kills_compose_with_message_faults(world, baseline_fixes, tmp_path):
    """A storm mixing kills with transport faults still degrades loudly.

    Untouched sessions stay bitwise identical to the single-engine
    baseline; the storm's faults land on the cluster exactly as the
    engine-level harness would land them (same seeded corruption, same
    redelivery bookkeeping).
    """
    workload = world[3]
    sessions = sorted(workload.sessions)
    # Message-fault victims must actually be in the faulted tick's batch
    # (a miss is counted skipped, not injected), so pick them from it.
    drop_victim = sorted({i.session_id for i in workload.ticks[1]})[0]
    dup_victim = next(
        sid
        for sid in sorted({i.session_id for i in workload.ticks[3]})
        if sid != drop_victim
    )
    plan = FaultPlan(
        [
            FaultSpec(
                tick=2, session_id=drop_victim, kind=FaultKind.DROP_MESSAGE
            ),
            FaultSpec(
                tick=3, session_id=sessions[0], kind=FaultKind.WORKER_KILL
            ),
            FaultSpec(
                tick=4,
                session_id=dup_victim,
                kind=FaultKind.DUPLICATE_MESSAGE,
            ),
        ]
    )
    coordinator = make_cluster(world, tmp_path, 2)
    harness = ClusterChaosHarness(coordinator, plan)
    fixes = run_cluster(coordinator, workload, harness=harness)
    snapshot = coordinator.metrics_snapshot()
    coordinator.shutdown()

    baseline = checksums(baseline_fixes)
    touched = {drop_victim, dup_victim}
    untouched = {
        session_id: stream
        for session_id, stream in fixes.items()
        if session_id not in touched
    }
    for session_id, checksum in checksums(untouched).items():
        assert checksum == baseline[session_id], session_id
    # The storm's marks on the touched streams: the dropped event is
    # simply missing, and the duplicate's late redelivery was dropped
    # as stale (a None slot), never served twice.
    assert len(fixes[drop_victim]) == len(baseline_fixes[drop_victim]) - 1
    assert fixes[dup_victim][-1] is None
    counters = snapshot["coordinator"]["counters"]
    assert counters["chaos.injected.worker-kill"] == 1
    assert counters["chaos.injected.drop-message"] == 1
    assert counters["chaos.injected.duplicate-message"] == 1


def test_redelivery_after_kill_replays_idempotently(world, tmp_path):
    """Re-sending the tick a dead worker already served is answered
    bitwise-identically from the duplicate cache, without clock drift —
    the exact exchange a supervisor performs when a worker dies after
    serving but before acknowledging."""
    fingerprint_db, motion_db, config, workload = world
    shard = make_shards(world, tmp_path, 1)[0]
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    for session_id in sorted(services):
        shard.request(
            {
                "op": "add_session",
                "entry": fresh_session_entry(session_id, services[session_id]),
            }
        )
    last_request, last_reply = None, None
    for tick_index, tick in enumerate(workload.ticks[:3], start=1):
        last_request = {
            "op": "tick",
            "tick": tick_index,
            "events": [event_to_dict(event) for event in tick],
        }
        last_reply = shard.request(last_request)
        assert last_reply["replayed"] is False

    shard.kill()
    with pytest.raises(ShardDown):
        shard.request({"op": "ping"})
    shard.respawn()
    ping = shard.request({"op": "ping"})
    assert ping["recovered"] is True
    assert ping["tick"] == 3  # WAL replay caught the worker back up

    redelivered = shard.request(last_request)
    assert redelivered["replayed"] is True
    assert redelivered["tick"] == 3
    # Bitwise-identical fixes, now attributed to the duplicate cache:
    # the replay answered every event idempotently instead of re-serving.
    assert redelivered["outcome"]["fixes"] == last_reply["outcome"]["fixes"]
    assert sorted(redelivered["outcome"]["duplicates"]) == sorted(
        last_reply["outcome"]["served"]
    )
    assert redelivered["outcome"]["served"] == []

    # And the clock didn't drift: the next tick serves normally.
    next_request = {
        "op": "tick",
        "tick": 4,
        "events": [
            event_to_dict(event) for event in workload.ticks[3]
        ],
    }
    reply = shard.request(next_request)
    assert reply["replayed"] is False
    assert reply["tick"] == 4

    # Anything but the current or next tick is refused loudly.
    with pytest.raises(ClusterWireError, match="cannot serve"):
        shard.request({"op": "tick", "tick": 2, "events": []})
    shard.shutdown()


def test_engine_harness_counts_worker_kill_as_skipped(world):
    """The single-engine harness has no worker to kill; a plan that
    schedules one against it must surface as skipped, preserving the
    injected+skipped==scheduled invariant across both harnesses."""
    fingerprint_db, motion_db, config, workload = world
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    victim = sorted(workload.sessions)[0]
    plan = FaultPlan(
        [FaultSpec(tick=1, session_id=victim, kind=FaultKind.WORKER_KILL)]
    )
    harness = ChaosHarness(engine, plan)
    harness.tick_detailed(list(workload.ticks[0]))
    counters = harness.metrics.snapshot()["counters"]
    assert counters["chaos.skipped"] == 1
    assert counters["chaos.injected.worker-kill"] == 0


@pytest.mark.slow
def test_process_shard_sigkill_recovers_bitwise(
    world, baseline_fixes, tmp_path
):
    """A real SIGKILL mid-run: the supervisor respawns the child from a
    cold interpreter and the merged streams stay bitwise identical."""
    workload = world[3]
    coordinator = make_cluster(world, tmp_path, 2, transport=ProcessShard)
    state = {"killed": False}

    def kill_once(coord):
        if coord.tick_index == 3 and not state["killed"]:
            next(iter(coord.shards.values())).kill()
            state["killed"] = True

    fixes = run_cluster(coordinator, workload, on_tick=kill_once)
    snapshot = coordinator.metrics_snapshot()
    coordinator.shutdown()

    assert state["killed"]
    assert checksums(fixes) == checksums(baseline_fixes)
    assert snapshot["coordinator"]["counters"]["cluster.recoveries"] == 1


# ----------------------------------------------------------------------
# Kill at every admission and removal
# ----------------------------------------------------------------------


class _Crash(BaseException):
    """The worker process dies: escapes ``handle_line``'s error net."""


def _membership_script(world):
    """One shard's op sequence: admissions, removals, ticks, checkpoints.

    With ``checkpoint_every=2`` the periodic checkpoints land at ticks 2
    and 4, so the script covers: admissions before any checkpoint
    exists (tick 0); admissions logged after a checkpoint at the same
    tick (tick 2, after the periodic one, and again after an explicit
    one); an admit, remove and re-admit of one id within one tick,
    followed by another admission and then that explicit checkpoint
    (a replay that re-applied the records the checkpoint folds would
    re-register the id after the later one, reordering the sessions);
    and a re-admission of an id removed at an earlier tick.
    """
    fingerprint_db, motion_db, config, workload = world
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    ids = sorted(services)

    def admit(index):
        entry = fresh_session_entry(ids[index], services[ids[index]])
        return {"op": "add_session", "entry": entry}

    def remove(index):
        return {"op": "remove_session", "session_id": ids[index]}

    def tick(index):
        return {
            "op": "tick",
            "tick": index,
            "events": [
                event_to_dict(event)
                for event in workload.ticks[index - 1]
            ],
        }

    n_ticks = len(workload.ticks)
    return (
        [admit(i) for i in range(5)]
        + [tick(1), tick(2)]
        + [admit(5), remove(5), admit(5), admit(6), {"op": "checkpoint"}]
        + [remove(1), admit(7)]
        + [tick(3), tick(4)]
        + [remove(0), admit(1)]
        + [tick(i) for i in range(5, n_ticks + 1)]
    )


def _run_script(shard, script, kill_at=None, how=None):
    """Drive one shard through the script, killing it once.

    ``how`` is where the kill lands around op ``kill_at``: ``"before"``
    (the worker is dead when the op arrives), ``"logged"`` (it dies
    right after the op's WAL record, before the engine acts and before
    the reply) or ``"after"`` (right after the reply).  Every op goes
    through :func:`supervised_request`, so a dead worker is respawned
    and the op re-delivered.

    Returns the tick outcomes and the final checkpoint text.
    """
    outcomes = []
    respawned_at = None
    if kill_at is not None:
        respawned_at = kill_at + 1 if how == "after" else kill_at
    for index, payload in enumerate(script):
        if index == kill_at and how == "before":
            shard.kill()
        if index == kill_at and how == "logged":
            appends = {
                name: getattr(WriteAheadLog, name)
                for name in ("append_admission", "append_removal")
            }

            def crash_after(original):
                def append(self, *args):
                    original(self, *args)
                    raise _Crash()

                return append

            try:
                for name, original in appends.items():
                    setattr(WriteAheadLog, name, crash_after(original))
                with pytest.raises(_Crash):
                    shard.request(payload)
            finally:
                for name, original in appends.items():
                    setattr(WriteAheadLog, name, original)
            shard.kill()
        reply, recovered = supervised_request(shard, payload)
        assert recovered == (index == respawned_at)
        if payload["op"] == "tick":
            outcomes.append(reply["outcome"])
        if index == kill_at and how == "after":
            shard.kill()
    if not shard.is_alive():
        shard.respawn()
    final = shard._worker.engine.checkpoint_json()
    shard.shutdown()
    return outcomes, final


def _membership_shard(world, directory):
    directory.mkdir()
    return make_shards(world, directory, 1, checkpoint_every=2)[0]


def test_kill_at_every_admission_and_removal_recovers_bitwise(
    world, tmp_path
):
    """Kill before, inside (after the WAL record) and after every
    ``add_session`` / ``remove_session``: the respawned worker finishes
    the script with tick outcomes and end state bitwise equal to the
    run without kills."""
    script = _membership_script(world)
    shard = _membership_shard(world, tmp_path / "reference")
    assert shard.request({"op": "ping"})["recovered"] is False
    reference = _run_script(shard, script)
    membership = [
        index
        for index, payload in enumerate(script)
        if payload["op"] in ("add_session", "remove_session")
    ]
    assert len(membership) == 13
    for index in membership:
        for how in ("before", "logged", "after"):
            shard = _membership_shard(world, tmp_path / f"{index}-{how}")
            killed = _run_script(shard, script, kill_at=index, how=how)
            assert killed == reference, (index, how)


def test_kill_after_every_tick_of_the_membership_script(world, tmp_path):
    """The same script killed after each tick and each explicit
    checkpoint: recovery crosses the logged admissions either way."""
    script = _membership_script(world)
    reference = _run_script(
        _membership_shard(world, tmp_path / "reference"), script
    )
    for index, payload in enumerate(script):
        if payload["op"] not in ("tick", "checkpoint"):
            continue
        shard = _membership_shard(world, tmp_path / f"{index}")
        killed = _run_script(shard, script, kill_at=index, how="after")
        assert killed == reference, index


def test_torn_final_admission_is_dropped_and_redelivered(world, tmp_path):
    """The worker died mid-append of an admission: the torn record was
    never acknowledged, so recovery drops it and the re-delivered
    admission is served as new."""
    script = _membership_script(world)
    reference = _run_script(
        _membership_shard(world, tmp_path / "reference"), script
    )
    shard = _membership_shard(world, tmp_path / "torn")
    wal_path = shard.spec["wal_path"]
    torn_at = 3  # the fourth admission, before any checkpoint
    for payload in script[:torn_at]:
        shard.request(payload)
    shard.kill()
    line = json.dumps(
        {"v": 2, "tick": 0, "admit": script[torn_at]["entry"]},
        sort_keys=True,
    )
    with open(wal_path, "a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])
    shard.respawn()
    ping = shard.request({"op": "ping"})
    assert ping["recovered"] is True
    assert len(ping["sessions"]) == torn_at
    outcomes = []
    for payload in script[torn_at:]:
        reply = shard.request(payload)
        if payload["op"] == "tick":
            outcomes.append(reply["outcome"])
    final = shard._worker.engine.checkpoint_json()
    shard.shutdown()
    assert (outcomes, final) == reference


def test_duplicate_admission_in_a_different_state_is_refused(
    world, tmp_path
):
    """Only an exact re-delivery is idempotent; a second session under
    a hosted id is refused and leaves no WAL record."""
    script = _membership_script(world)
    shard = _membership_shard(world, tmp_path / "dup")
    for payload in script[:7]:  # five admissions, two ticks
        shard.request(payload)
    wal_path = Path(shard.spec["wal_path"])
    logged = wal_path.read_text(encoding="utf-8")
    stale = script[0]  # s0's fresh entry; s0 has served two ticks since
    with pytest.raises(ClusterWireError, match="different state"):
        shard.request(stale)
    assert wal_path.read_text(encoding="utf-8") == logged
    shard.shutdown()


def test_unknown_wal_version_is_refused_on_respawn(world, tmp_path):
    script = _membership_script(world)
    shard = _membership_shard(world, tmp_path / "future")
    for payload in script[:3]:
        shard.request(payload)
    shard.kill()
    with open(shard.spec["wal_path"], "a", encoding="utf-8") as handle:
        handle.write('{"v": 3, "tick": 0, "remove": "x"}\n')
    with pytest.raises(ValueError, match="unsupported WAL version 3"):
        shard.respawn()


def test_checkpoint_file_is_the_engines_canonical_encoding(world, tmp_path):
    """The file holds ``json.dumps(engine.checkpoint(), sort_keys=True)``
    byte for byte — here an epochal shard's, after three ticks."""
    _, _, _, workload = world
    shard = make_shards(world, tmp_path, 1, epochal=True)[0]
    script = _membership_script(world)
    for payload in script[:5]:
        shard.request(payload)
    for index in (1, 2, 3):
        shard.request(
            {
                "op": "tick",
                "tick": index,
                "events": [
                    event_to_dict(event)
                    for event in workload.ticks[index - 1]
                ],
            }
        )
    path = shard.request({"op": "checkpoint"})["path"]
    engine = shard._worker.engine
    with open(path, "rb") as handle:
        written = handle.read()
    assert written == json.dumps(engine.checkpoint(), sort_keys=True).encode(
        "utf-8"
    )
    shard.shutdown()
