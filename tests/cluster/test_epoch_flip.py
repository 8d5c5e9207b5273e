"""Two-phase epoch flips over the cluster: atomic, idempotent, durable.

The contract: :meth:`ClusterCoordinator.advance_epoch` moves *every*
shard to the next database epoch or none of them, a flip mid-workload
is bitwise invisible relative to the single-engine epochal run, an
interrupted flip (coordinator death between phases, or a worker killed
after prepare) completes idempotently, and a tampered retry — the same
target epoch with a *different* batch — is refused.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterWireError, LocalShard, shard_spec
from repro.db.epochs import (
    ApRepowered,
    DriftDelta,
    EpochalDatabase,
    apply_updates,
    database_checksum,
    update_to_dict,
)
from repro.serving import BatchedServingEngine, build_session_services

from cluster_helpers import checksums, make_cluster, run_cluster


@pytest.fixture(scope="module")
def updates(world):
    fingerprint_db, _, _, _ = world
    return [
        ApRepowered(ap_id=0, shift_db=-6.0),
        DriftDelta(offsets_db=(1.0,) * fingerprint_db.n_aps),
    ]


@pytest.fixture(scope="module")
def flip_tick(world):
    _, _, _, workload = world
    return len(workload.ticks) // 2


@pytest.fixture(scope="module")
def epochal_baseline_fixes(world, updates, flip_tick):
    """Single-engine epochal run with the mid-workload flip: the yardstick."""
    fingerprint_db, motion_db, config, workload = world
    engine = BatchedServingEngine(
        EpochalDatabase(fingerprint_db), motion_db, config
    )
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    fixes = {sid: [] for sid in workload.sessions}
    for index, tick in enumerate(workload.ticks):
        if index == flip_tick:
            engine.advance_epoch(updates)
        events = list(tick)
        for event, fix in zip(events, engine.tick(events)):
            fixes[event.session_id].append(fix)
    assert engine.epoch_id == 1
    return fixes


def _flip_before_tick(flip_tick, updates):
    state = {"tick": 0}

    def hook(coordinator):
        if state["tick"] == flip_tick:
            coordinator.advance_epoch(updates)
        state["tick"] += 1

    return hook


class TestMidRunFlip:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_flip_is_bitwise_identical_to_the_single_engine(
        self, world, updates, flip_tick, epochal_baseline_fixes,
        tmp_path, n_shards,
    ):
        _, _, _, workload = world
        coordinator = make_cluster(world, tmp_path, n_shards, epochal=True)
        fixes = run_cluster(
            coordinator,
            workload,
            on_tick=_flip_before_tick(flip_tick, updates),
        )
        status = coordinator.epoch_status()
        snapshot = coordinator.metrics_snapshot()
        coordinator.shutdown()
        assert checksums(fixes) == checksums(epochal_baseline_fixes)
        assert set(status.values()) == {1}
        counters = snapshot["coordinator"]["counters"]
        assert counters["cluster.epoch_flips"] == 1
        assert counters.get("cluster.epoch_aborts", 0) == 0

    def test_flip_result_checksum_matches_local_staging(
        self, world, updates, tmp_path
    ):
        """The committed checksum is exactly what local compaction gives."""
        fingerprint_db, _, _, _ = world
        coordinator = make_cluster(world, tmp_path, 2, epochal=True)
        result = coordinator.advance_epoch(updates)
        status = coordinator.epoch_status()
        coordinator.shutdown()
        assert result == {
            "epoch": 1,
            "checksum": database_checksum(
                apply_updates(fingerprint_db, updates)
            ),
        }
        assert status == {
            shard_id: 1 for shard_id in status
        } and len(status) == 2


class TestFrozenCluster:
    def test_epoch_ops_are_refused_and_counted(self, world, updates, tmp_path):
        coordinator = make_cluster(world, tmp_path, 2)  # no epochal=True
        # Status still answers (epoch 0, not epochal) ...
        assert set(coordinator.epoch_status().values()) == {0}
        # ... but a flip is refused shard-side, loudly.
        with pytest.raises(ClusterWireError, match="frozen database"):
            coordinator.advance_epoch(updates)
        snapshot = coordinator.metrics_snapshot()
        coordinator.shutdown()
        counters = snapshot["coordinator"]["counters"]
        assert counters["cluster.epoch_aborts"] == 1
        assert counters.get("cluster.epoch_flips", 0) == 0


def _commit_on_one_shard(coordinator, updates, target=1):
    """Simulate a coordinator killed between prepare and commit."""
    serialized = [update_to_dict(update) for update in updates]
    first = coordinator.router.shard_ids[0]
    shard = coordinator.shards[first]
    staged = shard.request(
        {"op": "epoch_prepare", "target": target, "updates": serialized}
    )
    shard.request(
        {
            "op": "epoch_commit",
            "target": target,
            "checksum": staged["checksum"],
            "updates": serialized,
        }
    )
    return first


class TestInterruptedFlip:
    def test_same_batch_completes_the_flip(self, world, updates, tmp_path):
        coordinator = make_cluster(world, tmp_path, 2, epochal=True)
        committed = _commit_on_one_shard(coordinator, updates)
        split = coordinator.epoch_status()
        assert split[committed] == 1
        assert sorted(split.values()) == [0, 1]

        result = coordinator.advance_epoch(updates)
        status = coordinator.epoch_status()
        coordinator.shutdown()
        # Completion, not a second flip: the target is the epoch the
        # leader already committed, and everyone lands on it.
        assert result["epoch"] == 1
        assert set(status.values()) == {1}

    def test_a_different_batch_is_refused(self, world, updates, tmp_path):
        coordinator = make_cluster(world, tmp_path, 2, epochal=True)
        _commit_on_one_shard(coordinator, updates)
        with pytest.raises(ValueError, match="disagreed on contents"):
            coordinator.advance_epoch([ApRepowered(ap_id=1, shift_db=3.0)])
        # The abort left the split untouched; the honest batch heals it.
        assert sorted(coordinator.epoch_status().values()) == [0, 1]
        result = coordinator.advance_epoch(updates)
        snapshot = coordinator.metrics_snapshot()
        status = coordinator.epoch_status()
        coordinator.shutdown()
        assert result["epoch"] == 1
        assert set(status.values()) == {1}
        counters = snapshot["coordinator"]["counters"]
        assert counters["cluster.epoch_aborts"] == 1
        assert counters["cluster.epoch_flips"] == 1


class TestKillDuringFlip:
    def test_worker_killed_after_prepare_commits_on_respawn(
        self, world, updates, tmp_path
    ):
        """Prepare everywhere, kill a worker, then drive the flip: the
        supervised respawn lost its staged snapshot, so the commit's
        carried batch re-stages it — and the flip still lands on every
        shard with one recovery on the books."""
        coordinator = make_cluster(world, tmp_path, 2, epochal=True)
        serialized = [update_to_dict(update) for update in updates]
        for shard in coordinator.shards.values():
            shard.request(
                {"op": "epoch_prepare", "target": 1, "updates": serialized}
            )
        coordinator.shards[coordinator.router.shard_ids[0]].kill()

        result = coordinator.advance_epoch(updates)
        status = coordinator.epoch_status()
        snapshot = coordinator.metrics_snapshot()

        # The flipped cluster still serves.
        _, _, _, workload = world
        events = list(workload.ticks[0])
        outcome = coordinator.tick_detailed(events)
        coordinator.shutdown()

        assert result["epoch"] == 1
        assert set(status.values()) == {1}
        assert len(outcome.fixes) == len(events)
        counters = snapshot["coordinator"]["counters"]
        assert counters["cluster.recoveries"] == 1
        assert counters["cluster.epoch_flips"] == 1


class TestReshardAfterFlip:
    def test_new_shard_joins_at_the_served_epoch(
        self, world, updates, tmp_path
    ):
        """A shard added after N flips must serve epoch N, not its
        spec's epoch 0 — migrated sessions land on the database they
        left."""
        fingerprint_db, motion_db, config, _ = world
        coordinator = make_cluster(world, tmp_path, 2, epochal=True)
        coordinator.advance_epoch(updates)
        joiner = LocalShard(
            shard_spec(
                "shard-2",
                fingerprint_db,
                motion_db,
                config,
                wal_path=tmp_path / "shard-2.wal",
                checkpoint_path=tmp_path / "shard-2.ckpt",
                epochal=True,
            )
        )
        coordinator.reshard(list(coordinator.shards.values()) + [joiner])
        status = coordinator.epoch_status()
        reply = coordinator.shards["shard-2"].request({"op": "epoch_status"})
        coordinator.shutdown()
        assert status["shard-2"] == 1
        assert set(status.values()) == {1}
        assert reply["epochal"] and reply["snapshot"]["epoch_id"] == 1
