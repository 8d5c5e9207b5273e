"""Adversarial storms: exact injected/skipped accounting, both harnesses.

The chaos invariant — every scheduled fault lands in exactly one of
``chaos.injected.*`` or ``chaos.skipped`` — must hold when the storm
vocabulary includes the attack kinds, through the single-engine
:class:`~repro.chaos.ChaosHarness` and through the cluster front door
at 1, 2, and 4 shards.  The cluster runs also pin that the same seeded
attack storm produces the same merged fix stream regardless of shard
count: routing must not change what the attacker achieves.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import ChaosHarness, FaultKind, FaultPlan
from repro.chaos.plan import ADVERSARY_KINDS, MESSAGE_KINDS
from repro.cluster import ClusterChaosHarness
from repro.serving import BatchedServingEngine, build_session_services
from repro.sim.evaluation import multi_session_workload

from tests.cluster.cluster_helpers import (
    checksums,
    make_cluster,
    run_cluster,
)

STORM_SEED = 20260802
N_APS = 6


@pytest.fixture(scope="module")
def world(small_study):
    fingerprint_db = small_study.fingerprint_db(N_APS)
    motion_db, _ = small_study.motion_db(N_APS)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:5]))
        for trace in small_study.test_traces[:4]
    ]
    workload = multi_session_workload(
        traces, 8, corpus_size=4, stagger_ticks=1
    )
    return fingerprint_db, motion_db, small_study.config, workload


@pytest.fixture(scope="module")
def attack_plan(world):
    """A dense mixed storm: every adversarial kind plus message faults."""
    _, _, _, workload = world
    plan = FaultPlan.random(
        seed=STORM_SEED,
        n_ticks=len(workload.ticks),
        session_ids=sorted(workload.sessions),
        rate=0.4,
        kinds=list(ADVERSARY_KINDS) + list(MESSAGE_KINDS),
        n_aps=N_APS,
    )
    kinds = {spec.kind for spec in plan}
    assert set(ADVERSARY_KINDS) <= kinds, (
        "seed did not draw every adversarial kind; pick another"
    )
    return plan


def _accounting(counters):
    injected = sum(
        value
        for name, value in counters.items()
        if name.startswith("chaos.injected.")
    )
    return injected, counters["chaos.skipped"]


class TestEngineHarnessAccounting:
    def test_injected_plus_skipped_equals_plan(self, world, attack_plan):
        fingerprint_db, motion_db, config, workload = world
        services = build_session_services(
            workload, fingerprint_db, motion_db, config
        )
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        harness = ChaosHarness(engine, attack_plan)
        for session_id, service in services.items():
            engine.add_session(session_id, service)
        for tick in workload.ticks:
            harness.tick(
                [
                    interval
                    for interval in tick
                    if interval.session_id in engine.sessions
                ]
            )
        counters = engine.metrics_snapshot()["engine"]["counters"]
        injected, skipped = _accounting(counters)
        assert injected + skipped == len(attack_plan)
        # The storm genuinely attacked: at least one adversarial kind
        # was injected, not just skipped away.
        adversarial_injected = sum(
            counters.get(f"chaos.injected.{kind.value}", 0)
            for kind in ADVERSARY_KINDS
        )
        assert adversarial_injected > 0

    def test_replay_waits_for_a_capture(self, world):
        """A replay scheduled before any delivered scan is skipped."""
        fingerprint_db, motion_db, config, workload = world
        services = build_session_services(
            workload, fingerprint_db, motion_db, config
        )
        engine = BatchedServingEngine(fingerprint_db, motion_db, config)
        victim = sorted(workload.sessions)[0]
        from repro.chaos import FaultSpec

        plan = FaultPlan(
            [
                FaultSpec(
                    tick=1, session_id=victim, kind=FaultKind.REPLAY_SCAN
                ),
                FaultSpec(
                    tick=3, session_id=victim, kind=FaultKind.REPLAY_SCAN
                ),
            ]
        )
        harness = ChaosHarness(engine, plan)
        for session_id, service in services.items():
            engine.add_session(session_id, service)
        for tick in workload.ticks[:4]:
            harness.tick(list(tick))
        counters = engine.metrics_snapshot()["engine"]["counters"]
        # Tick 1 carries the victim's first-ever scan: nothing captured
        # yet, so the replay must reconcile as skipped.  By tick 3 a
        # capture exists and the replay injects.
        assert counters["chaos.skipped"] == 1
        assert counters["chaos.injected.replay-scan"] == 1


class TestClusterHarnessAccounting:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_injected_plus_skipped_equals_plan(
        self, world, attack_plan, tmp_path, n_shards
    ):
        _, _, _, workload = world
        coordinator = make_cluster(world, tmp_path, n_shards)
        harness = ClusterChaosHarness(coordinator, attack_plan)
        run_cluster(coordinator, workload, harness=harness)
        counters = coordinator.metrics_snapshot()["coordinator"]["counters"]
        injected, skipped = _accounting(counters)
        assert injected + skipped == len(attack_plan)
        coordinator.shutdown()

    def test_attack_outcome_is_shard_count_invariant(
        self, world, attack_plan, tmp_path
    ):
        """The same storm yields bitwise-equal streams at 1 and 2 shards."""
        _, _, _, workload = world
        streams = {}
        for n_shards in (1, 2):
            coordinator = make_cluster(
                world, tmp_path / str(n_shards), n_shards
            )
            harness = ClusterChaosHarness(coordinator, attack_plan)
            fixes = run_cluster(coordinator, workload, harness=harness)
            streams[n_shards] = checksums(
                {
                    sid: [fix for fix in stream if fix is not None]
                    for sid, stream in fixes.items()
                }
            )
            coordinator.shutdown()
        assert streams[1] == streams[2]
