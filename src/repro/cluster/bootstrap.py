"""Shard bootstrap: a JSON spec that builds a worker in any process.

A shard worker may live in the coordinator's process
(:class:`~repro.cluster.transport.LocalShard`) or in a spawned child
(:class:`~repro.cluster.transport.ProcessShard`); either way it must
construct the exact same deployment — databases, configuration, service
kind — or the cluster's bitwise-equivalence contract is void before the
first tick.  The *shard spec* built here is that deployment, flattened
to a JSON-compatible dict through the project's existing serializers
(:mod:`repro.io.serialize`), so it crosses a process boundary as plain
data: no pickled objects, no code, nothing a corrupted transport could
turn into execution.

The spec also pins the worker's durable files (checkpoint + WAL paths),
which is what makes supervised respawn a pure function of the spec: the
supervisor re-runs :func:`build_worker` with the same dict and the
worker recovers itself from its own files.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..core.config import MoLocConfig
from ..core.fingerprint import FingerprintDatabase
from ..db.epochs import EpochalDatabase
from ..core.motion_db import MotionDatabase
from ..env.floorplan import FloorPlan
from ..io.serialize import (
    fingerprint_db_from_dict,
    fingerprint_db_to_dict,
    floorplan_from_dict,
    floorplan_to_dict,
    motion_db_from_dict,
    motion_db_to_dict,
)
from ..motion.pedestrian import BodyProfile
from ..robustness.service import ResilientMoLocService
from ..robustness.trust import ApTrustMonitor
from ..service import MoLocService
from ..serving.clock import LogicalClock
from ..serving.engine import BatchedServingEngine

_CLOCK_KINDS = ("monotonic", "logical")

__all__ = [
    "SPEC_FORMAT_VERSION",
    "shard_spec",
    "build_engine",
    "fresh_session_entry",
]

SPEC_FORMAT_VERSION = 1


def shard_spec(
    shard_id: str,
    fingerprint_db: FingerprintDatabase,
    motion_db: MotionDatabase,
    config: MoLocConfig = MoLocConfig(),
    *,
    wal_path: Union[str, Path],
    checkpoint_path: Union[str, Path],
    resilient: bool = True,
    defended: bool = False,
    plan: Optional[FloorPlan] = None,
    body_height_m: float = 1.72,
    checkpoint_every: int = 8,
    tick_budget_s: Optional[float] = None,
    clock: str = "monotonic",
    clock_auto_advance_s: float = 0.0,
    fsync: bool = False,
    epochal: bool = False,
    gait: bool = False,
) -> Dict[str, object]:
    """One shard's full deployment as a JSON-compatible dict.

    Args:
        shard_id: The shard's identity (the rendezvous-hash key).
        fingerprint_db: The fingerprint database every session shares.
        motion_db: The motion database every session shares.
        config: The shared algorithm configuration.
        wal_path: The worker's write-ahead log file.
        checkpoint_path: The worker's checkpoint file.
        resilient: Serve sessions through
            :class:`~repro.robustness.service.ResilientMoLocService`
            (True) or the plain service.
        defended: Give each resilient service a fresh
            :class:`~repro.robustness.trust.ApTrustMonitor` (the
            adversarial defense).  Required when admitted sessions
            carry trust state: a trust-less worker would silently drop
            it on restore and the bitwise contract across migration
            would be void.
        plan: Optional floor plan for the resilient watchdog.
        body_height_m: Body profile height for restored services (the
            checkpointed stride state overrides its step length).
        checkpoint_every: Write the checkpoint file every N ticks (0
            disables periodic checkpoints; handoff, restore and epoch
            commit always checkpoint, and admissions and removals go to
            the WAL).
        tick_budget_s: Optional per-tick deadline for the shard engine.
        clock: The shard engine's time source — ``"monotonic"``
            (``time.perf_counter``, wall-clock deadlines) or
            ``"logical"`` (a :class:`~repro.serving.clock.LogicalClock`,
            so deadline shedding under ``tick_budget_s`` is a
            deterministic function of the event schedule instead of
            machine load, and replay is bit-reproducible).  Serialized
            as plain data, so every respawn rebuilds the same time
            source.
        clock_auto_advance_s: With the logical clock, seconds the clock
            advances per reading (deterministic "work takes time";
            see :class:`~repro.serving.clock.LogicalClock`).  Must be 0
            with the monotonic clock.
        fsync: Whether the worker's WAL fsyncs every append.
        epochal: Wrap the fingerprint database in an
            :class:`~repro.db.epochs.EpochalDatabase` so the worker
            accepts cluster-wide epoch flips (``epoch_prepare`` /
            ``epoch_commit``).  The spec's database becomes epoch 0.
            Serialized only when set, so pre-epoch spec documents stay
            byte-identical.
        gait: Turn on speed-adaptive serving (``config.speed_adaptive``)
            for every session this worker builds, regardless of the
            spec's config document.  Serialized only when set, so
            pre-gait spec documents stay byte-identical.
    """
    if not shard_id:
        raise ValueError("shard_id must be a non-empty string")
    if checkpoint_every < 0:
        raise ValueError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}"
        )
    if defended and not resilient:
        raise ValueError(
            "defended requires resilient: the trust monitor lives in "
            "ResilientMoLocService"
        )
    if clock not in _CLOCK_KINDS:
        raise ValueError(
            f"unknown clock {clock!r}; expected one of {_CLOCK_KINDS}"
        )
    if clock_auto_advance_s < 0:
        raise ValueError(
            f"clock_auto_advance_s must be >= 0, got {clock_auto_advance_s}"
        )
    if clock == "monotonic" and clock_auto_advance_s:
        raise ValueError(
            "clock_auto_advance_s requires the logical clock; the "
            "monotonic clock advances itself"
        )
    spec: Dict[str, object] = {
        "kind": "shard_spec",
        "format_version": SPEC_FORMAT_VERSION,
        "shard_id": shard_id,
        "fingerprint_db": fingerprint_db_to_dict(fingerprint_db),
        "motion_db": motion_db_to_dict(motion_db),
        "config": dataclasses.asdict(config),
        "resilient": bool(resilient),
        "defended": bool(defended),
        "floorplan": None if plan is None else floorplan_to_dict(plan),
        "body_height_m": float(body_height_m),
        "wal_path": str(wal_path),
        "checkpoint_path": str(checkpoint_path),
        "checkpoint_every": int(checkpoint_every),
        "tick_budget_s": tick_budget_s,
        "clock": clock,
        "clock_auto_advance_s": float(clock_auto_advance_s),
        "fsync": bool(fsync),
    }
    # Pre-epoch spec documents carry no "epochal" key — omitting it
    # keeps them byte-identical (same convention as "defended").
    if epochal:
        spec["epochal"] = True
    # Same convention: only gait-enabled specs carry the key.
    if gait:
        spec["gait"] = True
    return spec


def build_engine(
    spec: Dict[str, object],
) -> Tuple[BatchedServingEngine, Callable[[str], MoLocService]]:
    """Rebuild a shard's engine and service factory from its spec.

    Returns:
        ``(engine, make_service)`` — a fresh engine over the spec's
        databases and config, and the per-session factory its
        checkpoint entries restore into.

    Raises:
        ValueError: for a non-spec document or an unsupported version.
    """
    if spec.get("kind") != "shard_spec":
        raise ValueError(
            f"expected a 'shard_spec' document, got {spec.get('kind')!r}"
        )
    version = spec.get("format_version")
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(
            f"unsupported shard spec version {version} "
            f"(supported: {SPEC_FORMAT_VERSION})"
        )
    fingerprint_db = fingerprint_db_from_dict(spec["fingerprint_db"])
    motion_db = motion_db_from_dict(spec["motion_db"])
    config = MoLocConfig(**spec["config"])
    # Pre-gait spec documents carry no "gait" key; they keep building
    # fixed-pedestrian workers.  The flag wins over the config document
    # so one spec knob flips the whole worker.
    if spec.get("gait", False):
        config = dataclasses.replace(config, speed_adaptive=True)
    plan = (
        None
        if spec["floorplan"] is None
        else floorplan_from_dict(spec["floorplan"])
    )
    resilient = bool(spec["resilient"])
    # Pre-adversarial spec documents carry no "defended" key; they keep
    # building exactly the workers they always did.
    defended = bool(spec.get("defended", False))
    height_m = float(spec["body_height_m"])

    def make_service(session_id: str) -> MoLocService:
        # Build against the engine's *current* database, not the spec's
        # epoch-0 copy: after an epoch flip (or a restore of an epochal
        # checkpoint) admitted sessions must share the served epoch, and
        # the engine's identity check enforces exactly that.
        serving_db = engine.fingerprint_db
        if resilient:
            return ResilientMoLocService(
                serving_db,
                motion_db,
                body=BodyProfile(height_m=height_m),
                config=config,
                plan=plan,
                trust=(
                    ApTrustMonitor(n_aps=serving_db.n_aps)
                    if defended
                    else None
                ),
            )
        return MoLocService(
            serving_db,
            motion_db,
            body=BodyProfile(height_m=height_m),
            config=config,
        )

    # Pre-ingress spec documents carry no clock keys; they keep the
    # wall-clock engines they always built.
    clock_kind = spec.get("clock", "monotonic")
    if clock_kind == "logical":
        engine_clock = LogicalClock(
            auto_advance_s=float(spec.get("clock_auto_advance_s", 0.0))
        )
    elif clock_kind == "monotonic":
        engine_clock = time.perf_counter
    else:
        raise ValueError(
            f"unknown clock {clock_kind!r} in shard spec; expected one "
            f"of {_CLOCK_KINDS}"
        )
    # Pre-epoch spec documents carry no "epochal" key; they keep the
    # frozen-database engines they always built.
    engine_db: object = fingerprint_db
    if spec.get("epochal", False):
        engine_db = EpochalDatabase(fingerprint_db)
    engine = BatchedServingEngine(
        engine_db,
        motion_db,
        config,
        tick_budget_s=spec["tick_budget_s"],
        clock=engine_clock,
    )
    return engine, make_service


def fresh_session_entry(
    session_id: str, service: MoLocService
) -> Dict[str, object]:
    """A checkpoint entry for a session that has never been served.

    The cluster admits sessions *as checkpoint entries* — the same unit
    :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint_session`
    emits for migration — so a calibrated service built in the
    coordinator's process travels to its home shard as pure state and
    is reconstructed there by the shard's own factory.
    """
    return {
        "session_id": session_id,
        "service": service.state_dict(),
        "intervals_served": 0,
        "last_sequence": None,
        "strikes": 0,
        "quarantined_until": 0,
        "last_fix": None,
    }
