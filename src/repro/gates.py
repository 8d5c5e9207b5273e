"""Serving correctness gates, each declared once.

MoLoc's result holds only if every serving path fuses the Eq. 4-7
posterior bit for bit the same.  Each :class:`Gate` in :data:`GATES`
declares one such contract: a workload builder with fixed smoke and
full :class:`Sizes`, a reference path, candidate paths, and one
comparison — the per-session
:func:`~repro.serving.benchmark.fix_stream_checksum` of the *raw* fix
stream.  A dropped event's ``None`` slot is digested as an explicit
marker, so two streams agree only if they are identical slot for slot.

Every check reports a validation ledger: how many comparisons it made,
how many mismatched, and the largest difference.  For a bitwise check
the largest difference is the count of differing sessions in the worst
(reference, candidate) pair; for an accuracy check it is the measured
value, reported against its bound.

One registry, three callers: ``python -m repro gate <name>...|--all
[--smoke]``, ``tests/test_gates.py`` (parametrized over
:data:`GATES`), and the CI lanes.  The shard and session helpers
(:func:`make_shards`, :func:`admit_sessions`, :func:`run_cluster`) are
also the ones the cluster and ingress test suites build on.
"""

from __future__ import annotations

import dataclasses
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .cluster import (
    ClusterChaosHarness,
    ClusterCoordinator,
    LocalShard,
    ProcessShard,
    fresh_session_entry,
    shard_spec,
)
from .serving import (
    BatchedServingEngine,
    build_session_services,
    fix_stream_checksum,
    serve_sequential,
)
from .sim.evaluation import multi_session_workload, open_loop_schedule
from .sim.experiments import Study, prepare_study

__all__ = [
    "FEATURES",
    "GATES",
    "TOPOLOGIES",
    "Check",
    "Gate",
    "GateRun",
    "Sizes",
    "World",
    "admit_sessions",
    "bitwise",
    "make_shards",
    "run_cluster",
    "run_gate",
    "run_gates",
]

N_APS = 6
# Per-(tick, session) fault probability of the sharded-single storm.
STORM_RATE = 0.15
FEATURES = ("speed_adaptive", "epoch_flip", "defended", "chaos_storm")
TOPOLOGIES = ("batched", "local-1", "local-2", "local-4", "process", "ingress")


class World(NamedTuple):
    """What every serving path of one gate shares."""

    fingerprint_db: object
    motion_db: object
    config: object
    workload: object


def make_shards(
    world: Sequence[object],
    shard_dir: Path,
    n_shards: int,
    transport=LocalShard,
    transport_kwargs: Optional[Dict[str, object]] = None,
    tag: str = "shard",
    **spec_kwargs,
) -> List[object]:
    """``n_shards`` started transports with durable files under ``shard_dir``.

    ``tag`` prefixes the WAL/checkpoint file names so several
    deployments can share one directory; ``spec_kwargs`` go to
    :func:`~repro.cluster.bootstrap.shard_spec`.
    """
    fingerprint_db, motion_db, config, _ = world
    return [
        transport(
            shard_spec(
                f"shard-{index}",
                fingerprint_db,
                motion_db,
                config,
                wal_path=Path(shard_dir) / f"{tag}-{index}.wal",
                checkpoint_path=Path(shard_dir) / f"{tag}-{index}.ckpt",
                **spec_kwargs,
            ),
            **(transport_kwargs or {}),
        )
        for index in range(n_shards)
    ]


def _services(world, plan=None, make_service=None) -> Dict[str, object]:
    fingerprint_db, motion_db, config, workload = world
    return build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        config,
        resilient=True,
        plan=plan,
        make_service=make_service,
    )


def admit_sessions(
    target: object,
    world: Sequence[object],
    plan: Optional[object] = None,
    make_service: Optional[Callable[[object], object]] = None,
) -> None:
    """Calibrate fresh services for the workload and admit them.

    ``target`` is anything with ``add_session(entry)``: a
    :class:`~repro.cluster.ClusterCoordinator` or an
    :class:`~repro.ingress.IngressDriver`.
    """
    services = _services(world, plan, make_service)
    for session_id in sorted(services):
        target.add_session(
            fresh_session_entry(session_id, services[session_id])
        )


def _engine(world, plan, database=None) -> BatchedServingEngine:
    """A single engine with every workload session admitted."""
    fingerprint_db, motion_db, config, _ = world
    engine = BatchedServingEngine(
        fingerprint_db if database is None else database, motion_db, config
    )
    for session_id, service in _services(world, plan).items():
        engine.add_session(session_id, service)
    return engine


def run_cluster(
    target: object,
    workload,
    harness=None,
    on_tick: Optional[Callable[[object], None]] = None,
) -> Dict[str, List[object]]:
    """Serve the whole workload; returns per-session fix streams.

    Args:
        target: A :class:`~repro.cluster.ClusterCoordinator`, or a
            :class:`~repro.serving.BatchedServingEngine` (same tick
            surface).
        harness: Optional chaos harness to route ticks through; fixes
            are then attributed by its ``last_delivered`` events.
        on_tick: Called with ``target`` before each tick (e.g. to kill
            a shard or flip an epoch mid-run).
    """
    fixes: Dict[str, List[object]] = {sid: [] for sid in workload.sessions}
    for tick in workload.ticks:
        if on_tick is not None:
            on_tick(target)
        events = list(tick)
        if harness is None:
            delivered, outcome = events, target.tick_detailed(events)
        else:
            outcome = harness.tick(events)
            delivered = harness.last_delivered
        # ChaosHarness.tick returns the fixes, ClusterChaosHarness.tick
        # the whole outcome.
        for event, fix in zip(delivered, getattr(outcome, "fixes", outcome)):
            fixes[event.session_id].append(fix)
    return fixes


@dataclass(frozen=True)
class Check:
    """One verdict's validation ledger.

    Attributes:
        verdict: The verdict name the gate documents carry.
        comparisons: Keys compared (sessions across every pair, or 1
            for an accuracy check).
        mismatches: Comparisons that disagreed.
        max_difference: Bitwise: differing sessions in the worst pair.
            Accuracy: the measured value.
        passed: The verdict.
        pairs: Bitwise: the ``(reference, candidate)`` labels compared.
        bound: Accuracy: the bound ``max_difference`` is held to.
    """

    verdict: str
    comparisons: int
    mismatches: int
    max_difference: Optional[float]
    passed: bool
    pairs: Tuple[Tuple[str, str], ...] = ()
    bound: Optional[str] = None


def bitwise(
    verdict: str,
    pairs: Iterable[Tuple[str, str]],
    table: Mapping[str, Mapping[str, str]],
) -> Check:
    """Compare each ``(reference, candidate)`` pair of checksum tables.

    A key present on one side only counts as a mismatch.
    """
    pairs = tuple(pairs)
    comparisons, differing = 0, []
    for reference, candidate in pairs:
        expected, actual = table[reference], table[candidate]
        keys = set(expected) | set(actual)
        comparisons += len(keys)
        differing.append(sum(expected.get(k) != actual.get(k) for k in keys))
    worst = max(differing, default=0)
    return Check(verdict, comparisons, sum(differing), worst, not worst, pairs)


def bounded(
    verdict: str, value: Optional[float], bound: str, passed: bool
) -> Check:
    """An accuracy verdict: one measured value against its bound."""
    return Check(verdict, 1, int(not passed), value, passed, bound=bound)


@dataclass(frozen=True)
class Sizes:
    """One gate profile's fixed volumes.

    Attributes:
        training_traces: Crowdsourced walks behind the motion database.
        test_traces: Held-out walks the workload replays from.
        sessions: Concurrent sessions.
        corpus_size: Distinct walks the sessions replay.
        shards: Shard counts the candidate deployments run at.
        stagger_ticks: Start offset between successive corpus laps.
        hops: Truncate every served walk to this many hops.
        mix: Serve walks of this gait mix against a database
            crowdsourced at the paper gait (12-hop walks both).
        rogue_ap: A rogue AP forges this slot from the third interval
            on, so trust-defended sessions have something to mask.
    """

    training_traces: int
    test_traces: int
    sessions: int
    corpus_size: int
    shards: Tuple[int, ...]
    stagger_ticks: int = 2
    hops: Optional[int] = None
    mix: Optional[str] = None
    rogue_ap: Optional[int] = None


@dataclass
class GateRun:
    """One gate execution: its options, shard files, and what it saw.

    ``studies`` is shared across the gates of one :func:`run_gates`
    call, so gates at the same volumes build their study once.
    """

    seed: int
    smoke: bool
    transport: str
    chaos_seed: Optional[int]
    workdir: Path
    studies: Dict[Tuple[object, ...], Study] = field(default_factory=dict)
    checksums: Dict[str, Dict[str, str]] = field(default_factory=dict)
    cells: Set[Tuple[str, str]] = field(default_factory=set)
    details: Dict[str, object] = field(default_factory=dict)

    def study(self, sizes: Sizes) -> Study:
        key = (self.seed, sizes.training_traces, sizes.test_traces, sizes.mix)
        if key not in self.studies:
            configs = {}
            if sizes.mix is not None:
                from .sim.gait import gait_trace_config

                configs = {
                    "trace_config": gait_trace_config("paper-walk", n_hops=12),
                    "test_trace_config": gait_trace_config(sizes.mix, 12),
                }
            self.studies[key] = prepare_study(
                seed=self.seed,
                n_training_traces=sizes.training_traces,
                n_test_traces=sizes.test_traces,
                **configs,
            )
        return self.studies[key]

    def world(self, sizes: Sizes) -> Tuple[World, object]:
        """The gate's world and its floor plan."""
        study = self.study(sizes)
        traces = study.test_traces[: sizes.corpus_size]
        if sizes.hops is not None:
            traces = [
                dataclasses.replace(t, hops=list(t.hops[: sizes.hops]))
                for t in traces
            ]
        if sizes.rogue_ap is not None:
            from .sim.adversary import inject_rogue_ap

            traces = [inject_rogue_ap(t, sizes.rogue_ap, 2) for t in traces]
        workload = multi_session_workload(
            traces,
            sizes.sessions,
            corpus_size=min(sizes.corpus_size, sizes.sessions),
            stagger_ticks=sizes.stagger_ticks,
        )
        motion_db, _ = study.motion_db(N_APS)
        world = World(
            study.fingerprint_db(N_APS), motion_db, study.config, workload
        )
        return world, study.scenario.plan

    def shards(self, world, n_shards: int, label: str, **spec_kwargs):
        transport = ProcessShard if self.transport == "process" else LocalShard
        return make_shards(
            world, self.workdir, n_shards, transport, tag=label, **spec_kwargs
        )

    def topology(self, n_shards: int) -> str:
        if self.transport == "process":
            return "process"
        return f"local-{n_shards}"

    def record(
        self,
        label: str,
        streams: Mapping[str, Sequence[object]],
        topology: Optional[str] = None,
        features: Iterable[str] = (),
    ) -> None:
        """Checksum one path's raw streams; note the cells it exercised."""
        self.checksums[label] = {
            session_id: fix_stream_checksum(stream)
            for session_id, stream in sorted(streams.items())
        }
        self.cells.update((feature, topology) for feature in features)

    def bitwise(self, verdict: str, pairs: Iterable[Tuple[str, str]]):
        return bitwise(verdict, pairs, self.checksums)

    def serve_cluster(
        self,
        label: str,
        world,
        plan,
        n_shards: int,
        features: Iterable[str] = (),
        storm=None,
        on_tick=None,
        **spec_kwargs,
    ) -> Dict[str, int]:
        """Serve the workload through a fresh cluster; its counters."""
        coordinator = ClusterCoordinator(
            self.shards(world, n_shards, label, plan=plan, **spec_kwargs)
        )
        admit_sessions(coordinator, world, plan)
        harness = storm and ClusterChaosHarness(coordinator, storm)
        streams = run_cluster(coordinator, world.workload, harness, on_tick)
        counters = coordinator.metrics.snapshot()["counters"]
        coordinator.shutdown()
        self.record(label, streams, self.topology(n_shards), features)
        return counters

    def lockstep_vs_ingress(
        self,
        world,
        plan,
        shard_counts: Sequence[int],
        schedule,
        updates: Sequence[object] = (),
        make_service=None,
        features: Iterable[str] = (),
        **spec_kwargs,
    ) -> List[Tuple[str, str]]:
        """Serve one arrival schedule through both cluster drivers.

        At each shard count the lockstep coordinator and the per-shard
        :class:`~repro.ingress.IngressDriver` serve the schedule; with
        ``updates`` both flip to the next epoch halfway through it.
        Returns the ``(lockstep, ingress)`` label pairs; flip checksums
        land in ``details["flips"]``.
        """
        from .ingress import IngressDriver, lockstep_fix_streams

        parts = [schedule.arrivals]
        if updates:
            ordered = sorted(schedule.arrivals, key=lambda a: a.t_s)
            half = len(ordered) // 2
            parts = [ordered[:half], ordered[half:]]
        flips = self.details.setdefault("flips", {}) if updates else {}
        for n_shards in shard_counts:
            for kind, driver in (
                ("lockstep", ClusterCoordinator),
                ("ingress", IngressDriver),
            ):
                label = f"{kind}-{n_shards}"
                shards = self.shards(
                    world, n_shards, label, plan=plan, **spec_kwargs
                )
                target = driver(shards)
                admit_sessions(target, world, plan, make_service)
                streams: Dict[str, List[object]] = {}
                statuses: Counter = Counter()
                for index, part in enumerate(parts):
                    if index:
                        flip = target.advance_epoch(updates)
                        flips[label] = {"epoch-1": flip["checksum"]}
                    if driver is ClusterCoordinator:
                        served = lockstep_fix_streams(target, part)
                    else:
                        result = target.run(part)
                        served = result.fixes
                        statuses.update(d.status for d in result.dispositions)
                    for session_id, stream in served.items():
                        streams.setdefault(session_id, []).extend(stream)
                for shard in shards:
                    shard.shutdown()
                topology = (
                    self.topology(n_shards) if kind == "lockstep" else kind
                )
                self.record(label, streams, topology, features)
                self.details[f"{label}_masked_fixes"] = sum(
                    bool(fix.health.masked_ap_ids)
                    for stream in streams.values()
                    for fix in stream
                    if fix is not None
                )
                if statuses:
                    self.details[f"{label}_dispositions"] = dict(statuses)
        return [(f"lockstep-{n}", f"ingress-{n}") for n in shard_counts]


@dataclass(frozen=True)
class Gate:
    """One serving contract: its volumes and the body that proves it."""

    name: str
    contract: str
    smoke: Sizes
    full: Sizes
    body: Callable[[GateRun, Sizes], List[Check]]


def _sharded_single(run: GateRun, sizes: Sizes) -> List[Check]:
    """A sharded cluster serves the single engine's streams bitwise.

    With ``chaos_seed`` both sides run one storm of message faults and
    worker kills (kills land on the cluster only; supervised recovery
    must make them invisible).
    """
    from .chaos import ChaosHarness, FaultPlan
    from .chaos.plan import CLUSTER_KINDS, MESSAGE_KINDS

    world, plan = run.world(sizes)
    storm, features = None, ()
    if run.chaos_seed is not None:
        storm = FaultPlan.random(
            seed=run.chaos_seed,
            n_ticks=len(world.workload.ticks),
            session_ids=sorted(world.workload.sessions),
            rate=STORM_RATE,
            kinds=tuple(MESSAGE_KINDS) + tuple(CLUSTER_KINDS),
        )
        features = ("chaos_storm",)
        run.details["scheduled_faults"] = len(storm)
    engine = _engine(world, plan)
    harness = storm and ChaosHarness(engine, storm)
    streams = run_cluster(engine, world.workload, harness)
    run.record("single", streams, "batched", features)
    for n_shards in sizes.shards:
        label = f"cluster-{n_shards}"
        run.details[label] = run.serve_cluster(
            label, world, plan, n_shards, features, storm=storm
        )
    pairs = [("single", f"cluster-{n}") for n in sizes.shards]
    return [run.bitwise("equal", pairs)]


def _async_lockstep(run: GateRun, sizes: Sizes) -> List[Check]:
    """Event-driven per-shard ingress loops serve the lockstep streams.

    One seeded open-loop schedule (diurnal bursts, reconnect storms,
    jitter) through :class:`~repro.ingress.IngressDriver` against the
    lockstep coordinator, ``None`` gaps included.
    """
    world, plan = run.world(sizes)
    schedule = open_loop_schedule(
        world.workload,
        mean_rate_hz=8.0,
        seed=run.seed,
        diurnal_amplitude=0.5,
        diurnal_period_s=3.0,
        reconnect_storms=2,
        storm_fraction=0.25,
        jitter_s=0.02,
    )
    pairs = run.lockstep_vs_ingress(world, plan, sizes.shards, schedule)
    return [run.bitwise("equal", pairs)]


def _flip_updates(fingerprint_db) -> List[object]:
    """The churn schedule's repair updates plus one observation.

    The batch exercises every update kind the epoch compactor merges
    (dead AP, re-powered AP, site drift, crowdsourced observation).
    """
    from .analysis.staleness import churn_schedule
    from .chaos.harness import EnvironmentOverlay
    from .db.epochs import Observation

    overlay = EnvironmentOverlay()
    for spec in churn_schedule(N_APS):
        overlay.activate(spec)
    first = fingerprint_db.location_ids[0]
    rss = fingerprint_db.fingerprint_of(first).rss
    return overlay.repair_updates(N_APS) + [
        Observation(location_id=first, rss=[min(v + 1.5, 0.0) for v in rss])
    ]


def _epoch_flip(run: GateRun, sizes: Sizes) -> List[Check]:
    """A mid-run database-epoch flip is atomic across deployments.

    Every epochal deployment flips with the same update batch at the
    same tick boundary and must serve the single epochal engine's
    streams; a worker killed during the flip's prepare phase must be
    restaged by the commit; an epoch-0 cluster that never flips must
    cost zero bytes against the frozen engine; every flip must land on
    one database checksum.  Full runs add the staleness-recovery sweep.
    """
    from .db.epochs import EpochalDatabase, update_to_dict

    world, plan = run.world(sizes)
    updates = _flip_updates(world.fingerprint_db)
    serialized = [update_to_dict(update) for update in updates]
    flip_tick = len(world.workload.ticks) // 2
    flips: Dict[str, Dict[str, str]] = {}

    def flip(label: str, kill: bool = False):
        def hook(target) -> None:
            if target.tick_index != flip_tick:
                return
            if kill:
                # Stage the epoch everywhere, then kill one worker: its
                # staged snapshot dies with it, and the commit (which
                # carries the batch) must restage it on the respawn.
                for shard in target.shards.values():
                    shard.request(
                        {"op": "epoch_prepare", "target": 1,
                         "updates": serialized}
                    )
                target.shards[target.router.shard_ids[0]].kill()
            result = target.advance_epoch(updates)
            flips[label] = {
                "epoch-1": result["checksum"]
                if isinstance(result, dict)
                else result.checksum
            }

        return hook

    run.record("frozen", run_cluster(_engine(world, plan), world.workload))
    engine = _engine(world, plan, EpochalDatabase(world.fingerprint_db))
    streams = run_cluster(engine, world.workload, on_tick=flip("epochal"))
    run.record("epochal", streams, "batched", ("epoch_flip",))
    for n_shards in sizes.shards:
        label = f"flip-{n_shards}"
        run.serve_cluster(
            label, world, plan, n_shards, ("epoch_flip",),
            on_tick=flip(label), epochal=True,
        )
    counters = run.serve_cluster(
        "flip-2-kill", world, plan, 2, ("epoch_flip",),
        on_tick=flip("flip-2-kill", kill=True), epochal=True,
    )
    run.serve_cluster("epoch0-2", world, plan, 2, epochal=True)
    run.details.update(
        flip_tick=flip_tick,
        flips=flips,
        updates=serialized,
        kill_recoveries=counters.get("cluster.recoveries", 0),
    )
    flipped = [("epochal", f"flip-{n}") for n in sizes.shards]
    checks = [
        run.bitwise("flip_streams_equal", flipped),
        run.bitwise(
            "flip_survives_kill_during_prepare", [("epochal", "flip-2-kill")]
        ),
        run.bitwise("epoch0_bitwise_free", [("frozen", "epoch0-2")]),
        bitwise(
            "flip_checksums_agree",
            [("epochal", label) for label in flips if label != "epochal"],
            flips,
        ),
    ]
    if not run.smoke:
        from .analysis.staleness import run_staleness

        staleness = run_staleness(run.study(sizes))
        gate = staleness["gate"]
        run.details["staleness"] = staleness
        checks.append(
            bounded(
                "staleness_recovery",
                gate["observed_recovered_fraction"],
                f">= {gate['threshold_fraction']} recovered",
                gate["passed"],
            )
        )
    return checks


def _gait(run: GateRun, sizes: Sizes) -> List[Check]:
    """Gait-disabled serving is free; the speed-adaptive opt-in wins.

    Over a mixed-gait workload: with ``speed_adaptive`` off, batched
    and sharded serving equal the sequential paper engine bitwise; with
    it on, a ``shard_spec(..., gait=True)`` cluster equals the adaptive
    engine and the streams differ from the disabled ones; and the
    fixed-vs-adaptive motion bench gate holds.
    """
    from .analysis.motion import run_motion_bench, validate_motion_document

    world, plan = run.world(sizes)
    sequential = serve_sequential(world.workload, _services(world, plan))
    run.record("sequential", sequential.fixes)
    run.record("batched", run_cluster(_engine(world, plan), world.workload))
    for n_shards in sizes.shards:
        run.serve_cluster(f"disabled-{n_shards}", world, plan, n_shards)
    adaptive = world._replace(
        config=dataclasses.replace(world.config, speed_adaptive=True)
    )
    streams = run_cluster(_engine(adaptive, plan), adaptive.workload)
    run.record("adaptive-batched", streams, "batched", ("speed_adaptive",))
    run.serve_cluster(
        "adaptive-2", adaptive, plan, 2, ("speed_adaptive",), gait=True
    )
    bench = run_motion_bench(seed=run.seed, smoke=run.smoke)
    problems = validate_motion_document(bench)
    run.details.update(bench=bench, problems=problems)
    differing = run.bitwise(
        "adaptive_changes_serving", [("sequential", "adaptive-batched")]
    ).mismatches
    gate = bench["gate"]
    return [
        run.bitwise(
            "disabled_batched_equals_sequential", [("sequential", "batched")]
        ),
        run.bitwise(
            "disabled_shard_streams_equal",
            [("sequential", f"disabled-{n}") for n in sizes.shards],
        ),
        run.bitwise(
            "adaptive_cluster_consistent",
            [("adaptive-batched", "adaptive-2")],
        ),
        bounded(
            "adaptive_changes_serving",
            differing,
            ">= 1 differing session",
            differing >= 1,
        ),
        bounded(
            "bench_gate",
            gate["observed_error_ratio"],
            f"<= {gate['error_ratio_limit']} error ratio and lower twin "
            "confusion",
            gate["passed"],
        ),
        bounded(
            "bench_document_valid",
            len(problems),
            "== 0 problems",
            not problems,
        ),
    ]


def _ingress_cross(run: GateRun, sizes: Sizes) -> List[Check]:
    """Gait + epoch flip + defended sessions through the async ingress.

    The riskiest feature cross-product: speed-adaptive, trust-defended
    sessions (a rogue AP forging one slot) on epochal shards, flipped
    halfway through one open-loop schedule, served by the per-shard
    ingress driver and by the lockstep coordinator.
    """
    from .motion.pedestrian import BodyProfile
    from .robustness import ResilientMoLocService
    from .robustness.trust import ApTrustMonitor

    world, plan = run.world(sizes)
    world = world._replace(
        config=dataclasses.replace(world.config, speed_adaptive=True)
    )

    def make_service(trace):
        # One monitor per session: trust state is per-user.
        return ResilientMoLocService(
            world.fingerprint_db,
            world.motion_db,
            body=BodyProfile(height_m=1.72),
            config=world.config,
            plan=plan,
            trust=ApTrustMonitor(n_aps=N_APS),
        )

    schedule = open_loop_schedule(
        world.workload, mean_rate_hz=8.0, seed=run.seed,
        reconnect_storms=2, jitter_s=0.02,
    )
    pairs = run.lockstep_vs_ingress(
        world, plan, sizes.shards, schedule,
        updates=_flip_updates(world.fingerprint_db),
        make_service=make_service,
        features=("speed_adaptive", "epoch_flip", "defended"),
        defended=True, epochal=True, gait=True,
    )
    return [
        run.bitwise("streams_equal", pairs),
        bitwise("flip_checksums_agree", pairs, run.details["flips"]),
    ]


_GAIT_SIZES = Sizes(
    60, 4, sessions=6, corpus_size=4, shards=(1, 2, 4), mix="mixed-gait"
)

GATES: Dict[str, Gate] = {
    gate.name: gate
    for gate in (
        Gate(
            "sharded-single",
            "a sharded cluster serves the single engine's fix streams "
            "bitwise, optionally under one seeded storm",
            smoke=Sizes(40, 6, sessions=4, corpus_size=2, shards=(2,)),
            full=Sizes(40, 6, sessions=8, corpus_size=2, shards=(3,)),
            body=_sharded_single,
        ),
        Gate(
            "async-lockstep",
            "per-shard ingress loops serve the lockstep coordinator's "
            "fix streams bitwise",
            smoke=Sizes(
                40, 6, sessions=8, corpus_size=4, shards=(1, 2, 4),
                stagger_ticks=1, hops=5,
            ),
            full=Sizes(
                40, 6, sessions=16, corpus_size=6, shards=(1, 2, 4),
                stagger_ticks=1,
            ),
            body=_async_lockstep,
        ),
        Gate(
            "epoch-flip",
            "a mid-run database-epoch flip is atomic and bitwise across "
            "deployments, kills and the epoch-0 wrapper",
            smoke=Sizes(40, 6, sessions=6, corpus_size=3, shards=(1, 2)),
            full=Sizes(150, 34, sessions=8, corpus_size=4, shards=(1, 2, 4)),
            body=_epoch_flip,
        ),
        Gate(
            "gait",
            "gait-disabled serving is bitwise free, the speed-adaptive "
            "opt-in is shard-consistent and wins the motion bench",
            smoke=_GAIT_SIZES,
            full=_GAIT_SIZES,
            body=_gait,
        ),
        Gate(
            "ingress-cross",
            "speed-adaptive, trust-defended sessions across an epoch flip "
            "serve the same streams through ingress and lockstep",
            smoke=dataclasses.replace(
                _GAIT_SIZES, sessions=8, shards=(4,), rogue_ap=5
            ),
            full=dataclasses.replace(
                _GAIT_SIZES, sessions=16, shards=(1, 2, 4), rogue_ap=5
            ),
            body=_ingress_cross,
        ),
    )
}


def run_gate(
    name: str,
    *,
    seed: int = 7,
    smoke: bool = False,
    transport: str = "local",
    chaos_seed: Optional[int] = None,
    workdir: Path,
    studies: Optional[Dict[Tuple[object, ...], Study]] = None,
) -> Dict[str, object]:
    """Run one registered gate; its JSON-ready ledger.

    Raises:
        KeyError: for an unregistered gate name.
    """
    gate = GATES[name]
    sizes = gate.smoke if smoke else gate.full
    run = GateRun(
        seed, smoke, transport, chaos_seed, Path(workdir),
        {} if studies is None else studies,
    )
    run.workdir.mkdir(parents=True, exist_ok=True)
    checks = gate.body(run, sizes)
    bitwise_checks = [check for check in checks if check.bound is None]
    return {
        "gate": name,
        "contract": gate.contract,
        "sizes": dataclasses.asdict(sizes),
        "passed": all(check.passed for check in checks),
        "comparisons": sum(check.comparisons for check in checks),
        "mismatches": sum(check.mismatches for check in checks),
        "max_difference": max(
            (check.max_difference for check in bitwise_checks), default=0
        ),
        "checks": [dataclasses.asdict(check) for check in checks],
        "checksums": run.checksums,
        "cells": sorted(run.cells),
        "details": run.details,
    }


def run_gates(
    names: Sequence[str],
    *,
    seed: int = 7,
    smoke: bool = False,
    transport: str = "local",
    chaos_seed: Optional[int] = None,
) -> Dict[str, object]:
    """Run gates in order over shared studies; one document.

    The document carries each gate's ledger, an overall ``passed``,
    and the feature x topology table of which gates exercised each
    cell in this run, with the cells none did listed as ``uncovered``.
    """
    studies: Dict[Tuple[object, ...], Study] = {}
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as workdir:
        results = {
            name: run_gate(
                name,
                seed=seed,
                smoke=smoke,
                transport=transport,
                chaos_seed=chaos_seed,
                workdir=Path(workdir) / name,
                studies=studies,
            )
            for name in names
        }
    cells = {
        name: {tuple(cell) for cell in result["cells"]}
        for name, result in results.items()
    }
    seen = {topology for ran in cells.values() for _, topology in ran}
    topologies = list(TOPOLOGIES) + sorted(seen - set(TOPOLOGIES))
    coverage = {
        feature: {
            topology: sorted(
                name
                for name, ran in cells.items()
                if (feature, topology) in ran
            )
            for topology in topologies
        }
        for feature in FEATURES
    }
    return {
        "report": "gates",
        "seed": seed,
        "smoke": smoke,
        "transport": transport,
        "chaos_seed": chaos_seed,
        "passed": all(result["passed"] for result in results.values()),
        "gates": results,
        "coverage": coverage,
        "uncovered": [
            f"{feature} x {topology}"
            for feature, row in coverage.items()
            for topology, gates in row.items()
            if not gates
        ],
    }
