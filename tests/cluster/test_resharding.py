"""Live resharding: checkpoint handoff mid-run, bitwise invisible.

Growing or shrinking the topology halfway through a workload must not
perturb a single fix: moved sessions travel as checkpoint entries (the
same unit recovery restores), stayers are untouched, and the merged
streams still match the single-engine baseline bit for bit.  The same
contract is held with the adversarial defense live: a session mid-way
through a quarantine streak migrates with its trust state intact.  The
coordinator's own bookkeeping around membership (one request per
admission, the ``cluster.sessions`` gauge) is checked here too.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster import ClusterCoordinator, LocalShard, shard_spec
from repro.motion.pedestrian import BodyProfile
from repro.robustness import ResilientMoLocService
from repro.robustness.trust import ApTrustMonitor
from repro.serving import build_session_services
from repro.sim.adversary import inject_rogue_ap
from repro.sim.evaluation import multi_session_workload

from cluster_helpers import (
    admit_sessions,
    checksums,
    make_cluster,
    make_shards,
)


def _serve(coordinator, fixes, ticks):
    for tick in ticks:
        events = list(tick)
        outcome = coordinator.tick_detailed(events)
        for event, fix in zip(events, outcome.fixes):
            fixes[event.session_id].append(fix)


def test_growing_midrun_is_bitwise_invisible(
    world, baseline_fixes, tmp_path
):
    fingerprint_db, motion_db, config, workload = world
    coordinator = make_cluster(world, tmp_path, 2)
    fixes = {sid: [] for sid in workload.sessions}
    half = len(workload.ticks) // 2
    _serve(coordinator, fixes, workload.ticks[:half])

    old_router = coordinator.router
    homes_before = coordinator.session_homes()
    new_shard = LocalShard(
        shard_spec(
            "shard-2",
            fingerprint_db,
            motion_db,
            config,
            wal_path=tmp_path / "shard-2.wal",
            checkpoint_path=tmp_path / "shard-2.ckpt",
        )
    )
    moved = coordinator.reshard(
        list(coordinator.shards.values()) + [new_shard]
    )

    # The migration set is exactly the router's prediction, every move
    # targets the new shard, and the workers agree on the new homes.
    assert moved == old_router.moved_sessions(
        coordinator.router, homes_before
    )
    assert moved, "the fixture should move at least one session"
    assert all(new_home == "shard-2" for _, new_home in moved.values())
    homes_after = coordinator.session_homes()
    for session_id, (_, new_home) in moved.items():
        assert homes_after[session_id] == new_home
    for session_id, home in homes_before.items():
        if session_id not in moved:
            assert homes_after[session_id] == home

    _serve(coordinator, fixes, workload.ticks[half:])
    snapshot = coordinator.metrics_snapshot()
    coordinator.shutdown()
    assert checksums(fixes) == checksums(baseline_fixes)
    counters = snapshot["coordinator"]["counters"]
    assert counters["cluster.reshards"] == 1
    assert counters["cluster.migrated_sessions"] == len(moved)


def test_shrinking_midrun_drains_and_retires_the_shard(
    world, baseline_fixes, tmp_path
):
    workload = world[3]
    coordinator = make_cluster(world, tmp_path, 3)
    fixes = {sid: [] for sid in workload.sessions}
    half = len(workload.ticks) // 2
    _serve(coordinator, fixes, workload.ticks[:half])

    old_router = coordinator.router
    homes_before = coordinator.session_homes()
    survivors = [
        shard
        for shard_id, shard in coordinator.shards.items()
        if shard_id != "shard-2"
    ]
    retired = coordinator.shards["shard-2"]
    moved = coordinator.reshard(survivors)

    assert moved == old_router.moved_sessions(
        coordinator.router, homes_before
    )
    assert all(old_home == "shard-2" for old_home, _ in moved.values())
    assert not retired.is_alive(), "the drained shard must be shut down"
    assert sorted(coordinator.router.shard_ids) == ["shard-0", "shard-1"]

    _serve(coordinator, fixes, workload.ticks[half:])
    coordinator.shutdown()
    assert checksums(fixes) == checksums(baseline_fixes)


def test_merged_counters_never_go_backwards(world, tmp_path):
    """No merged counter drops when a session leaves or the fleet resizes.

    Each shard engine counts its sessions into one registry that keeps
    a removed session's counts, and the coordinator keeps the final
    snapshot of every shard a reshard retires, so ``merged`` can be
    read as rates across growth, removal and shrinkage.
    """
    fingerprint_db, motion_db, config, workload = world
    coordinator = make_cluster(world, tmp_path, 2)
    fixes = {sid: [] for sid in workload.sessions}
    third = len(workload.ticks) // 3
    merged = []

    def snapshot():
        merged.append(coordinator.metrics_snapshot()["merged"])

    _serve(coordinator, fixes, workload.ticks[:third])
    snapshot()
    grown = coordinator.reshard(
        list(coordinator.shards.values())
        + [
            LocalShard(
                shard_spec(
                    "shard-2",
                    fingerprint_db,
                    motion_db,
                    config,
                    wal_path=tmp_path / "shard-2.wal",
                    checkpoint_path=tmp_path / "shard-2.ckpt",
                )
            )
        ]
    )
    assert grown, "the fixture should move at least one session"
    snapshot()
    _serve(coordinator, fixes, workload.ticks[third : 2 * third])
    snapshot()
    leaver = sorted(workload.sessions)[0]
    coordinator.shards[coordinator.session_homes()[leaver]].request(
        {"op": "remove_session", "session_id": leaver}
    )
    snapshot()
    coordinator.reshard(
        [
            shard
            for shard_id, shard in coordinator.shards.items()
            if shard_id != "shard-2"
        ]
    )
    snapshot()
    _serve(coordinator, fixes, workload.ticks[2 * third :])
    snapshot()
    coordinator.shutdown()

    for before, after in zip(merged, merged[1:]):
        for section in ("engine", "sessions"):
            for name, value in before[section]["counters"].items():
                assert after[section]["counters"][name] >= value, name
    final = merged[-1]
    assert final["schema"] == 3
    assert (
        final["sessions"]["counters"]["service.fixes"]
        == final["engine"]["counters"]["engine.intervals"]
        > merged[0]["engine"]["counters"]["engine.intervals"]
    )


class _CountingShard:
    """A shard transport that records the op of every request it carries."""

    def __init__(self, shard):
        self._shard = shard
        self.shard_id = shard.shard_id
        self.ops = []

    def request(self, payload):
        self.ops.append(payload["op"])
        return self._shard.request(payload)

    def __getattr__(self, name):
        return getattr(self._shard, name)


def test_admission_is_one_request_to_the_home_shard(world, tmp_path):
    """``add_session`` asks the session's home shard once and no other;
    ``cluster.sessions`` is read off the shard snapshots instead."""
    workload = world[3]
    shards = [
        _CountingShard(shard) for shard in make_shards(world, tmp_path, 3)
    ]
    coordinator = ClusterCoordinator(shards)
    # Shards that never held a session have never set engine.sessions.
    empty = coordinator.metrics_snapshot()["coordinator"]["gauges"]
    for shard in shards:
        shard.ops.clear()
    admit_sessions(coordinator, world)
    ops = [op for shard in shards for op in shard.ops]
    assert ops == ["add_session"] * len(workload.sessions)
    full = coordinator.metrics_snapshot()["coordinator"]["gauges"]
    coordinator.shutdown()
    assert empty["cluster.sessions"] == 0
    assert full["cluster.sessions"] == len(workload.sessions)


ROGUE_AP = 5
N_APS = 6


@pytest.fixture(scope="module")
def attacked_world(small_study):
    """A defended-cluster world whose every walk carries a rogue AP."""
    fingerprint_db = small_study.fingerprint_db(N_APS)
    motion_db, _ = small_study.motion_db(N_APS)
    traces = [
        inject_rogue_ap(
            dataclasses.replace(trace, hops=list(trace.hops[:5])),
            ROGUE_AP,
            2,
        )
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, 8, corpus_size=4, stagger_ticks=1
    )
    return fingerprint_db, motion_db, small_study.config, workload


def _defended_cluster(world, tmp_path, n_shards) -> ClusterCoordinator:
    """Defended shards plus admitted trust-enabled sessions."""
    fingerprint_db, motion_db, config, workload = world
    from repro.cluster import fresh_session_entry

    coordinator = ClusterCoordinator(
        make_shards(world, tmp_path, n_shards, defended=True)
    )
    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        config,
        # One monitor per session: trust state is per-user.
        make_service=lambda trace: ResilientMoLocService(
            fingerprint_db,
            motion_db,
            body=BodyProfile(height_m=1.72),
            config=config,
            trust=ApTrustMonitor(n_aps=N_APS),
        ),
    )
    for session_id in sorted(services):
        coordinator.add_session(
            fresh_session_entry(session_id, services[session_id])
        )
    return coordinator


def test_defended_reshard_migrates_trust_state_bitwise(
    attacked_world, tmp_path
):
    """Growing a defended cluster mid-attack perturbs no defended fix.

    The reshard lands while quarantine streaks and EWMA residuals are
    mid-flight; if the checkpoint handoff dropped any of it, the moved
    sessions' post-migration quarantine decisions — and therefore their
    fix streams — would diverge from the undisturbed cluster's.
    """
    fingerprint_db, motion_db, config, workload = attacked_world
    baseline = _defended_cluster(attacked_world, tmp_path / "base", 2)
    baseline_fixes = {sid: [] for sid in workload.sessions}
    _serve(baseline, baseline_fixes, workload.ticks)
    baseline.shutdown()

    coordinator = _defended_cluster(attacked_world, tmp_path / "grown", 2)
    fixes = {sid: [] for sid in workload.sessions}
    half = len(workload.ticks) // 2
    _serve(coordinator, fixes, workload.ticks[:half])
    new_shard = LocalShard(
        shard_spec(
            "shard-2",
            fingerprint_db,
            motion_db,
            config,
            wal_path=tmp_path / "shard-2.wal",
            checkpoint_path=tmp_path / "shard-2.ckpt",
            defended=True,
        )
    )
    moved = coordinator.reshard(
        list(coordinator.shards.values()) + [new_shard]
    )
    assert moved, "the fixture should move at least one session"
    assert all(new_home == "shard-2" for _, new_home in moved.values())
    # The migrated entries landed with their trust state explicitly.
    new_shard.request({"op": "checkpoint"})
    landed = json.loads(
        (tmp_path / "shard-2.ckpt").read_text(encoding="utf-8")
    )
    landed_entries = {
        entry["session_id"]: entry for entry in landed["sessions"]
    }
    for session_id in moved:
        assert "trust" in landed_entries[session_id]["service"]
    _serve(coordinator, fixes, workload.ticks[half:])
    coordinator.shutdown()

    assert checksums(fixes) == checksums(baseline_fixes)
    # The defense was live, not idle: the rogue AP got masked.
    masked = {
        ap
        for stream in baseline_fixes.values()
        for fix in stream
        if fix is not None
        for ap in fix.health.masked_ap_ids
    }
    assert ROGUE_AP in masked


def test_duplicate_shard_ids_rejected_on_reshard(world, tmp_path):
    coordinator = make_cluster(world, tmp_path, 2)
    clone_dir = tmp_path / "clone"
    clone_dir.mkdir()
    clone = make_shards(world, clone_dir, 1)[0]  # another "shard-0"
    try:
        with pytest.raises(ValueError, match="duplicate"):
            coordinator.reshard(
                list(coordinator.shards.values()) + [clone]
            )
    finally:
        clone.shutdown()
        coordinator.shutdown()
