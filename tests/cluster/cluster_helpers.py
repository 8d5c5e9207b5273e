"""Shared builders for the cluster suite.

A deliberately small world — four truncated walks replayed by eight
staggered sessions — keeps every cluster test fast while still mixing
sessions at different walk phases in each tick, which is what exercises
routing, merging, and recovery for real.  The single-engine baseline
built from the same world is the bitwise yardstick every cluster run is
held to.  Shard construction, session admission and the serving loop
are the gate harness's own (:mod:`repro.gates`), so the suite and the
``python -m repro gate`` registry drive clusters the same way.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterCoordinator, LocalShard
from repro.gates import admit_sessions, make_shards, run_cluster
from repro.serving import (
    BatchedServingEngine,
    build_session_services,
    fix_stream_checksum,
    serve_batched,
)
from repro.sim.evaluation import multi_session_workload

__all__ = [
    "N_HOPS",
    "N_SESSIONS",
    "N_TRACES",
    "admit_sessions",
    "checksums",
    "make_cluster",
    "make_shards",
    "run_cluster",
    "single_engine_fixes",
    "small_world",
]

N_SESSIONS = 8
N_TRACES = 4
N_HOPS = 5

World = Tuple[object, object, object, object]


def small_world(study) -> World:
    """``(fingerprint_db, motion_db, config, workload)``, truncated walks."""
    fingerprint_db = study.fingerprint_db(6)
    motion_db, _ = study.motion_db(6)
    traces = [
        dataclasses.replace(trace, hops=list(trace.hops[:N_HOPS]))
        for trace in study.test_traces[:N_TRACES]
    ]
    workload = multi_session_workload(
        traces, N_SESSIONS, corpus_size=N_TRACES, stagger_ticks=1
    )
    return fingerprint_db, motion_db, study.config, workload


def make_cluster(
    world: World,
    tmp_path,
    n_shards: int,
    transport=LocalShard,
    transport_kwargs: Optional[Dict[str, object]] = None,
    **spec_kwargs,
) -> ClusterCoordinator:
    """A coordinator over fresh shards with every workload session admitted."""
    coordinator = ClusterCoordinator(
        make_shards(
            world,
            tmp_path,
            n_shards,
            transport,
            transport_kwargs=transport_kwargs,
            **spec_kwargs,
        )
    )
    admit_sessions(coordinator, world)
    return coordinator


def single_engine_fixes(world: World) -> Dict[str, List[object]]:
    """The one-engine fix streams the cluster must reproduce bitwise."""
    fingerprint_db, motion_db, config, workload = world
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, config)
    return serve_batched(engine, workload, services).fixes


def checksums(fixes: Dict[str, Sequence[object]]) -> Dict[str, str]:
    return {
        session_id: fix_stream_checksum(stream)
        for session_id, stream in fixes.items()
    }
