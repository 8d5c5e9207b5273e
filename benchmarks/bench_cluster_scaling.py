"""Cluster — sharded serving vs the single batched engine.

A deployment that outgrows one process shards its sessions across
supervised workers (:mod:`repro.cluster`).  This bench drives two
seeded workloads through the single
:class:`~repro.serving.BatchedServingEngine` and through
:class:`~repro.cluster.ClusterCoordinator` topologies at 1, 2, and 4
shards (in-process :class:`~repro.cluster.LocalShard` transports, plus
real-subprocess :class:`~repro.cluster.ProcessShard` rows at 2 and 4
workers):

* **distinct** — 32 sessions each replaying their *own* recorded walk.
  This is the scale-out scenario (many different users), the one the
  scaling gate judges: every session brings new matching and motion
  work, and rendezvous sharding splits it cleanly.
* **replay** — 256 sessions replaying an 8-walk corpus.  This is the
  redundancy scenario the single engine's content-addressed caches and
  identity-keyed motion memos collapse to ~one share of work; sharded,
  the twins scatter across workers and every shard re-derives most of
  the shared work itself.  The row is reported (and still
  checksum-verified) as an honest negative: replicated load does not
  scale out, distinct load does.

Reported per topology: wall-clock elapsed, per-shard busy seconds, and
two speedups:

* **wall-clock speedup** — single-engine elapsed over cluster elapsed.
  On a single-CPU host this is expected to be *below* 1.0: every
  transport runs in turn and the versioned JSON wire format is pure
  overhead on top of the same serving work.
* **critical-path speedup** — the single engine's busy seconds (its
  ``engine.tick.latency_s`` histogram sum) over the *slowest shard's*
  busy seconds.  This is the wall-clock lower bound the topology
  reaches once each worker owns a CPU: with lockstep ticking, a
  cluster tick can finish no sooner than its busiest shard.

Asserted, not just reported:

* every topology's per-session fix streams are **bitwise identical**
  to the single engine's on the same workload (checksum comparison
  over every session) — sharding is an optimization, not an
  approximation;
* no shard was respawned and nothing was shed, evicted, or faulted —
  the numbers describe clean serving, not degraded answers;
* on the distinct workload at 4 workers the speedup clears **1.5x**
  (a level that falls short is re-measured up to twice before
  judging).  When the host has >= 4 CPUs the gate is the 4-shard
  **ProcessShard wall clock** — real processes, real parallelism.  On
  a smaller host four subprocess workers timeshare the cores, so each
  worker's in-process busy seconds measure *preemption* on top of
  work — gating on that would gate on scheduler noise.  There the
  gate is the 4-shard **LocalShard critical path**: the transports run
  serially in-process, so every shard's busy seconds are
  contention-free, and the slowest shard bounds what the identical
  partition costs once each worker owns a core.  The gate's metric,
  transport basis, and the CPU count are all recorded so a reader can
  tell which claim was made.

The full report is written to ``BENCH_cluster.json`` at the repo root
with the machine fingerprint (CPU count included, so a reader can tell
which gate was armed).  The timed operation is the 4-shard LocalShard
tick loop.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.analysis.tables import format_table
from repro.cluster import (
    ClusterCoordinator,
    LocalShard,
    ProcessShard,
    fresh_session_entry,
    shard_spec,
)
from repro.serving import (
    BatchedServingEngine,
    build_session_services,
    fix_stream_checksum,
    serve_batched,
)
from repro.sim.evaluation import multi_session_workload

# The gated workload: every session replays its *own* recorded walk
# (corpus_size=None takes all traces) — the scale-out scenario, where
# each user brings genuinely new work to shard.
DISTINCT_SESSIONS = 32
# The contrast workload: classic corpus replay, 8 walks shared by 256
# sessions — the redundancy the single engine's content-addressed
# caches collapse, and sharding cannot.
REPLAY_SESSIONS = 256
REPLAY_CORPUS = 8
STAGGER_TICKS = 2
SHARD_COUNTS = (1, 2, 4)
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
MIN_SPEEDUP = 1.5
# Timing gates re-measure a failing level up to this many extra times —
# on a noisy host a single sample can land in a slow phase.
RETRIES = 2


def _machine_fingerprint() -> dict:
    """Identity of the machine wall-clock numbers were produced on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _checksums(fixes: dict) -> dict:
    return {
        session_id: fix_stream_checksum(stream)
        for session_id, stream in fixes.items()
    }


def _serve_single(study, workload) -> dict:
    """The yardstick: one engine, one process, wall clock and busy time."""
    fingerprint_db = study.fingerprint_db(6)
    motion_db, _ = study.motion_db(6)
    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=study.scenario.plan,
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, study.config)
    gc.collect()
    gc.disable()
    try:
        result = serve_batched(engine, workload, services)
    finally:
        gc.enable()
    busy_s = engine.metrics.histogram("engine.tick.latency_s").sum
    return {
        "elapsed_s": result.elapsed_s,
        "busy_s": busy_s,
        "checksums": _checksums(result.fixes),
    }


def _serve_cluster(
    study, workload, n_shards: int, transport, workdir: Path
) -> dict:
    """One cluster topology serving the whole workload in lockstep."""
    fingerprint_db = study.fingerprint_db(6)
    motion_db, _ = study.motion_db(6)
    workdir.mkdir(parents=True, exist_ok=True)
    shards = [
        transport(
            shard_spec(
                f"shard-{index}",
                fingerprint_db,
                motion_db,
                study.config,
                plan=study.scenario.plan,
                wal_path=workdir / f"shard-{index}.wal",
                checkpoint_path=workdir / f"shard-{index}.ckpt",
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
        plan=study.scenario.plan,
    )
    for session_id in sorted(services):
        coordinator.add_session(
            fresh_session_entry(session_id, services[session_id])
        )

    fixes = {session_id: [] for session_id in workload.sessions}
    anomalies = {"faulted": 0, "shed": 0, "evicted": 0, "unroutable": 0}
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        for tick in workload.ticks:
            events = list(tick)
            outcome = coordinator.tick_detailed(events)
            for event, fix in zip(events, outcome.fixes):
                fixes[event.session_id].append(fix)
            for name in anomalies:
                anomalies[name] += len(getattr(outcome, name))
        elapsed_s = time.perf_counter() - start
    finally:
        gc.enable()

    snapshot = coordinator.metrics_snapshot()
    coordinator.shutdown()
    busy_by_shard = {
        shard_id: shard["engine"]["histograms"]["engine.tick.latency_s"][
            "sum"
        ]
        for shard_id, shard in snapshot["shards"].items()
    }
    return {
        "shards": n_shards,
        "transport": transport.__name__,
        "elapsed_s": elapsed_s,
        "busy_s_by_shard": busy_by_shard,
        "critical_path_s": max(busy_by_shard.values()),
        "recoveries": snapshot["coordinator"]["counters"][
            "cluster.recoveries"
        ],
        "anomalies": anomalies,
        "checksums": _checksums(fixes),
    }


@pytest.mark.bench
def test_cluster_scaling(benchmark, study, report, tmp_path):
    distinct = multi_session_workload(
        study.test_traces,
        DISTINCT_SESSIONS,
        corpus_size=None,
        stagger_ticks=STAGGER_TICKS,
    )
    replay = multi_session_workload(
        study.test_traces,
        REPLAY_SESSIONS,
        corpus_size=REPLAY_CORPUS,
        stagger_ticks=STAGGER_TICKS,
    )
    machine = _machine_fingerprint()
    single = _serve_single(study, distinct)
    single_replay = _serve_single(study, replay)

    def measure(workload, yardstick, n_shards: int, transport, tag) -> dict:
        entry = _serve_cluster(
            study, workload, n_shards, transport, tmp_path / tag
        )
        entry["wall_speedup"] = yardstick["elapsed_s"] / entry["elapsed_s"]
        entry["critical_path_speedup"] = (
            yardstick["busy_s"] / entry["critical_path_s"]
        )
        # Bitwise first: a topology that does not reproduce the single
        # engine's streams has no business being benchmarked.
        assert entry["checksums"] == yardstick["checksums"], (
            f"{transport.__name__} x{n_shards} ({tag}) diverges from "
            f"the single engine"
        )
        assert entry["recoveries"] == 0
        assert all(count == 0 for count in entry["anomalies"].values()), (
            entry["anomalies"]
        )
        return entry

    entries = []
    for n_shards in SHARD_COUNTS:
        if n_shards == max(SHARD_COUNTS):
            # The timed operation: the 4-shard LocalShard tick loop.
            holder = {}

            def serve_gated():
                holder["entry"] = measure(
                    distinct, single, n_shards, LocalShard,
                    f"local-{n_shards}",
                )

            benchmark.pedantic(serve_gated, rounds=1, iterations=1)
            entries.append(holder["entry"])
        else:
            entries.append(
                measure(
                    distinct, single, n_shards, LocalShard,
                    f"local-{n_shards}",
                )
            )
    entries.append(measure(distinct, single, 2, ProcessShard, "process-2"))
    entries.append(
        measure(
            distinct, single, max(SHARD_COUNTS), ProcessShard,
            f"process-{max(SHARD_COUNTS)}",
        )
    )
    # The contrast row: replicated corpus-replay load does NOT scale
    # out — each shard re-derives shared work the single engine's
    # content-addressed caches deduplicate once — so it is reported
    # (and checksum-verified) but never gated.
    contrast = measure(
        replay, single_replay, max(SHARD_COUNTS), LocalShard, "replay"
    )

    # The scaling gate.  A 1-CPU container cannot run four workers
    # concurrently, so wall clock is only judged when the host has the
    # cores to show it; the critical path — the slowest shard's busy
    # seconds, the lockstep tick's lower bound — is judged always.
    cpus = machine["cpus"] or 1
    gate_metric = (
        "wall_speedup" if cpus >= max(SHARD_COUNTS) else
        "critical_path_speedup"
    )
    # On a contended single CPU, the pipelined ProcessShard workers
    # timeshare the core, so their in-worker busy seconds measure
    # preemption, not work — the contention-free critical path comes
    # from the LocalShard topology, which serves the identically
    # partitioned batches serially through the same wire format.  When
    # the host has the cores, the ProcessShard wall clock is the gate
    # and no proxy is needed.
    gate_transport = ProcessShard if gate_metric == "wall_speedup" else (
        LocalShard
    )
    gated_slot = next(
        index
        for index, entry in enumerate(entries)
        if entry["shards"] == max(SHARD_COUNTS)
        and entry["transport"] == gate_transport.__name__
    )
    gated = entries[gated_slot]
    retries_used = 0
    while gated[gate_metric] < MIN_SPEEDUP and retries_used < RETRIES:
        retries_used += 1
        gated = measure(
            distinct, single, max(SHARD_COUNTS), gate_transport,
            f"retry-{retries_used}",
        )
        entries[gated_slot] = gated

    rows = []
    for label, entry in [("distinct", e) for e in entries] + [
        ("replay", contrast)
    ]:
        rows.append(
            [
                f"{entry['transport']} x{entry['shards']} ({label})",
                f"{entry['elapsed_s']:.3f}",
                f"{entry['wall_speedup']:.2f}x",
                f"{entry['critical_path_s']:.3f}",
                f"{entry['critical_path_speedup']:.2f}x",
            ]
        )
    report(
        "Cluster scaling: sharded serving vs the single engine",
        format_table(
            [
                "topology",
                "elapsed s",
                "wall speedup",
                "crit path s",
                "crit speedup",
            ],
            rows,
        )
        + f"\nsingle engine: distinct {single['elapsed_s']:.3f}s "
        f"elapsed / {single['busy_s']:.3f}s busy, replay "
        f"{single_replay['elapsed_s']:.3f}s / "
        f"{single_replay['busy_s']:.3f}s; gate (distinct x4 "
        f"{gate_transport.__name__}): {gate_metric} >= {MIN_SPEEDUP}x "
        f"on {cpus} cpu(s)"
        + f"\nfull report: {OUTPUT_PATH.name}",
    )

    def public(entry: dict) -> dict:
        return {
            key: value for key, value in entry.items() if key != "checksums"
        }

    document = {
        "benchmark": "cluster_scaling",
        "machine": machine,
        "workloads": {
            "distinct": {
                "sessions": DISTINCT_SESSIONS,
                "corpus_size": DISTINCT_SESSIONS,
                "stagger_ticks": STAGGER_TICKS,
                "ticks": len(distinct.ticks),
                "intervals": sum(len(tick) for tick in distinct.ticks),
            },
            "replay": {
                "sessions": REPLAY_SESSIONS,
                "corpus_size": REPLAY_CORPUS,
                "stagger_ticks": STAGGER_TICKS,
                "ticks": len(replay.ticks),
                "intervals": sum(len(tick) for tick in replay.ticks),
            },
        },
        "single": {
            "distinct": {
                "elapsed_s": single["elapsed_s"],
                "busy_s": single["busy_s"],
            },
            "replay": {
                "elapsed_s": single_replay["elapsed_s"],
                "busy_s": single_replay["busy_s"],
            },
        },
        "results": [public(entry) for entry in entries],
        "redundancy_contrast": public(contrast),
        "deterministic": {
            "equal": True,  # measure() asserts every topology bitwise
            "sessions": {
                "distinct": len(single["checksums"]),
                "replay": len(single_replay["checksums"]),
            },
        },
        "gate": {
            "metric": gate_metric,
            "transport": gate_transport.__name__,
            "threshold": MIN_SPEEDUP,
            "speedup": gated[gate_metric],
            "retries_used": retries_used,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True))

    assert gated[gate_metric] >= MIN_SPEEDUP, (
        f"4-shard {gate_metric} {gated[gate_metric]:.2f}x < "
        f"{MIN_SPEEDUP}x (after {retries_used} retries)"
    )
