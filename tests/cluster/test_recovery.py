"""Supervised recovery: a killed worker is invisible in the fix stream.

The invariant under test everywhere here: kill a shard's worker at any
point — between ticks, mid-conversation, by real ``SIGKILL`` — and the
cluster's merged fix streams stay bitwise identical to a kill-free run,
because the respawned worker rebuilds itself from checkpoint + WAL and
answers re-deliveries idempotently.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosHarness, FaultKind, FaultPlan, FaultSpec
from repro.cluster import (
    ClusterChaosHarness,
    ClusterWireError,
    ProcessShard,
    ShardDown,
    fresh_session_entry,
)
from repro.serving import BatchedServingEngine, build_session_services
from repro.serving.checkpoint import event_to_dict

from cluster_helpers import (
    admit_sessions,
    checksums,
    events_of,
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
            "events": [event_to_dict(event) for event in events_of(tick)],
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
            event_to_dict(event) for event in events_of(workload.ticks[3])
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
    harness.tick_detailed(events_of(workload.ticks[0]))
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


def test_admission_pump_feeds_the_cluster(world, baseline_fixes, tmp_path):
    """The cluster drains the same front-door queue the engine does,
    and an unconfigured coordinator refuses to pump."""
    from repro.cluster import ClusterCoordinator
    from repro.serving.admission import AdmissionController

    fingerprint_db, motion_db, config, workload = world
    admission = AdmissionController(capacity=4 * len(workload.sessions))
    coordinator = ClusterCoordinator(
        make_shards(world, tmp_path, 2), admission=admission
    )
    admit_sessions(coordinator, world)
    fixes = {sid: [] for sid in workload.sessions}
    for tick in workload.ticks:
        events = events_of(tick)
        for event in events:
            assert admission.offer(event)
        outcome = coordinator.pump()
        for event, fix in zip(events, outcome.fixes):
            fixes[event.session_id].append(fix)
    coordinator.shutdown()
    assert checksums(fixes) == checksums(baseline_fixes)

    bare_dir = tmp_path / "bare"
    bare_dir.mkdir()
    bare = make_cluster(world, bare_dir, 1)
    try:
        with pytest.raises(ValueError, match="no admission controller"):
            bare.pump()
    finally:
        bare.shutdown()
