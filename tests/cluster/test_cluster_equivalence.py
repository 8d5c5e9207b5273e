"""The tentpole contract: a cluster is not an approximation.

Each golden scenario is served through a coordinator at 1, 2, and 4
shards and the merged fix streams must match the serialized golden
fixtures **bitwise** — the same fixtures the sequential and batched
single-engine paths are pinned to, so all four serving topologies are
provably the same function.  The in-process transport runs the full
matrix; the spawned-process transport (cold interpreters, real pipes)
repeats it at 2 shards in the slow lane.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterCoordinator,
    LocalShard,
    ProcessShard,
    fresh_session_entry,
    shard_spec,
)
from repro.serving import build_session_services

from golden_scenarios import SCENARIOS, load_golden, scenario_case, serialize_fix


def serve_cluster(study, name, n_shards, transport, tmp_path):
    """Serve one golden scenario through a cluster; serialized streams."""
    fingerprint_db, motion_db, workload = scenario_case(study, name)
    plan = study.scenario.plan
    shards = [
        transport(
            shard_spec(
                f"shard-{index}",
                fingerprint_db,
                motion_db,
                study.config,
                plan=plan,
                wal_path=tmp_path / f"{name}-{index}.wal",
                checkpoint_path=tmp_path / f"{name}-{index}.ckpt",
            )
        )
        for index in range(n_shards)
    ]
    coordinator = ClusterCoordinator(shards)
    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=plan,
    )
    for session_id in sorted(services):
        coordinator.add_session(
            fresh_session_entry(session_id, services[session_id])
        )
    fixes = {session_id: [] for session_id in services}
    for tick in workload.ticks:
        events = list(tick)
        outcome = coordinator.tick_detailed(events)
        for event, fix in zip(events, outcome.fixes):
            fixes[event.session_id].append(fix)
    snapshot = coordinator.metrics_snapshot()
    coordinator.shutdown()
    serialized = {
        session_id: [serialize_fix(fix) for fix in stream]
        for session_id, stream in sorted(fixes.items())
    }
    return serialized, snapshot


@pytest.mark.parametrize("n_shards", (1, 2, 4))
@pytest.mark.parametrize("name", SCENARIOS)
def test_local_cluster_matches_golden_bitwise(
    small_study, tmp_path, name, n_shards
):
    serialized, snapshot = serve_cluster(
        small_study, name, n_shards, LocalShard, tmp_path
    )
    assert serialized == load_golden(name)
    # Lockstep ticking: every shard engine counted every cluster tick.
    _, _, workload = scenario_case(small_study, name)
    merged = snapshot["merged"]["engine"]["counters"]
    assert merged["engine.ticks"] == len(workload.ticks) * n_shards
    assert snapshot["coordinator"]["counters"]["cluster.recoveries"] == 0


@pytest.mark.slow
@pytest.mark.parametrize("name", SCENARIOS)
def test_process_cluster_matches_golden_bitwise(small_study, tmp_path, name):
    serialized, snapshot = serve_cluster(
        small_study, name, 2, ProcessShard, tmp_path
    )
    assert serialized == load_golden(name)
    assert snapshot["coordinator"]["counters"]["cluster.recoveries"] == 0


def test_local_cluster_reproduces_single_engine_streams(
    world, baseline_fixes, tmp_path
):
    """The fast world's streams match a single engine at 3 shards too."""
    from cluster_helpers import checksums, make_cluster, run_cluster

    coordinator = make_cluster(world, tmp_path, 3)
    fixes = run_cluster(coordinator, world[3])
    coordinator.shutdown()
    assert checksums(fixes) == checksums(baseline_fixes)
