"""Benchmark harness: batched vs sequential serving on one workload.

Builds per-session services for a :class:`~repro.sim.evaluation.MultiSessionWorkload`,
drives them either through the :class:`~repro.serving.engine.BatchedServingEngine`
or one-by-one through ``service.on_interval``, times every tick, and
fingerprints the produced fix streams so equivalence (and determinism)
can be asserted with a string compare.

The timing numbers are wall-clock and machine-dependent; the fix-stream
checksums are not — two runs of the same seeded workload must produce
identical checksums, batched or sequential.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.config import MoLocConfig
from ..core.fingerprint import FingerprintDatabase
from ..core.motion_db import MotionDatabase
from ..env.floorplan import FloorPlan
from ..motion.pedestrian import BodyProfile
from ..motion.trace import WalkTrace
from ..robustness.service import ResilientMoLocService
from ..service import MoLocService
from ..sim.evaluation import MultiSessionWorkload, multi_session_workload
from .engine import BatchedServingEngine

__all__ = [
    "ServeResult",
    "build_session_services",
    "serve_batched",
    "serve_sequential",
    "fix_stream_checksum",
    "workload_checksum",
    "throughput_report",
    "deterministic_view",
    "machine_speed_probe",
]


@dataclass
class ServeResult:
    """The outcome of serving one workload.

    Attributes:
        fixes: Per session, its fix stream in interval order.
        tick_durations_s: Wall-clock seconds per tick.
        n_intervals: Total intervals served.
    """

    fixes: Dict[str, List[object]]
    tick_durations_s: List[float] = field(repr=False)
    n_intervals: int = 0

    @property
    def elapsed_s(self) -> float:
        """Total serving wall-clock time."""
        return float(sum(self.tick_durations_s))

    @property
    def intervals_per_s(self) -> float:
        """Serving throughput in session-intervals per second."""
        elapsed = self.elapsed_s
        return self.n_intervals / elapsed if elapsed > 0 else float("inf")

    def tick_percentile_ms(self, percentile: float) -> float:
        """A percentile of per-tick latency, in milliseconds."""
        if not self.tick_durations_s:
            raise ValueError("no ticks were timed")
        return float(
            np.percentile(np.asarray(self.tick_durations_s), percentile) * 1e3
        )


def build_session_services(
    workload: MultiSessionWorkload,
    fingerprint_db: FingerprintDatabase,
    motion_db: MotionDatabase,
    config: MoLocConfig = MoLocConfig(),
    resilient: bool = True,
    plan: Optional[FloorPlan] = None,
    calibration_hops: int = 2,
    make_service: Optional[Callable[[WalkTrace], MoLocService]] = None,
) -> Dict[str, MoLocService]:
    """One calibrated service per workload session.

    Each service is calibrated Zee-style from the first hops of the walk
    its session replays, and its step length is set to the walk's
    estimate — the same setup the sequential evaluations use.

    Args:
        workload: The workload whose sessions need services.
        fingerprint_db: The shared fingerprint database.
        motion_db: The shared motion database.
        config: The shared algorithm configuration.
        resilient: Serve through :class:`ResilientMoLocService` (True)
            or the plain :class:`MoLocService`.
        plan: Optional floor plan for the resilient watchdog.
        calibration_hops: Walk hops used for heading calibration.
        make_service: Full override: ``(trace) -> service`` builds each
            session's (already configured, uncalibrated) service.
    """
    services: Dict[str, MoLocService] = {}
    for session_id, trace in workload.sessions.items():
        if make_service is not None:
            service = make_service(trace)
        elif resilient:
            service = ResilientMoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=config,
                plan=plan,
            )
        else:
            service = MoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=config,
            )
        service._stride.step_length_m = trace.estimated_step_length_m
        service.calibrate_heading(
            [
                (hop.imu.compass_readings, hop.imu.true_course_deg)
                for hop in trace.hops[:calibration_hops]
            ]
        )
        services[session_id] = service
    return services


def serve_batched(
    engine: BatchedServingEngine,
    workload: MultiSessionWorkload,
    services: Dict[str, MoLocService],
) -> ServeResult:
    """Serve the workload through the batched engine, timing every tick."""
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    fixes: Dict[str, List[object]] = {sid: [] for sid in services}
    durations: List[float] = []
    n_intervals = 0
    for tick in workload.ticks:
        events = list(tick)
        started = time.perf_counter()
        tick_fixes = engine.tick(events)
        durations.append(time.perf_counter() - started)
        for event, fix in zip(events, tick_fixes):
            fixes[event.session_id].append(fix)
        n_intervals += len(events)
    return ServeResult(
        fixes=fixes, tick_durations_s=durations, n_intervals=n_intervals
    )


def serve_sequential(
    workload: MultiSessionWorkload,
    services: Dict[str, MoLocService],
) -> ServeResult:
    """Serve the same events one ``on_interval`` at a time (the baseline)."""
    fixes: Dict[str, List[object]] = {sid: [] for sid in services}
    durations: List[float] = []
    n_intervals = 0
    for tick in workload.ticks:
        started = time.perf_counter()
        tick_fixes = [
            services[interval.session_id].on_interval(
                interval.scan, interval.imu
            )
            for interval in tick
        ]
        durations.append(time.perf_counter() - started)
        for interval, fix in zip(tick, tick_fixes):
            fixes[interval.session_id].append(fix)
        n_intervals += len(tick)
    return ServeResult(
        fixes=fixes, tick_durations_s=durations, n_intervals=n_intervals
    )


def fix_stream_checksum(fixes: Sequence[object]) -> str:
    """A bit-level fingerprint of one session's fix stream.

    Covers location ids, exact (hex) probabilities, the full candidate
    sets, motion usage, and — for resilient fixes — the serving mode and
    fault list; two streams agree on the checksum iff the engine and the
    sequential path produced the same fixes bit for bit.  A None entry
    (a stale-dropped event's empty slot in
    :attr:`~repro.serving.engine.TickOutcome.fixes`) is digested as an
    explicit marker, so streams with drops stay position-comparable.
    """
    digest = hashlib.sha256()
    for fix in fixes:
        if fix is None:
            digest.update(b"<none>\n")
            continue
        estimate = getattr(fix, "estimate", fix)
        digest.update(
            f"{estimate.location_id}|{estimate.probability.hex()}|"
            f"{int(estimate.used_motion)}".encode()
        )
        for candidate in estimate.candidates:
            digest.update(
                f"{candidate.location_id}:{candidate.dissimilarity.hex()}:"
                f"{candidate.probability.hex()};".encode()
            )
        health = getattr(fix, "health", None)
        if health is not None:
            digest.update(
                f"|{health.mode.value}|"
                f"{','.join(fault.value for fault in health.faults)}|"
                f"{health.confidence.hex()}|{health.masked_ap_ids}|"
                f"{int(health.recalibrated)}".encode()
            )
        digest.update(b"\n")
    return digest.hexdigest()


def workload_checksum(result: ServeResult) -> str:
    """One checksum over every session's stream (session-id order)."""
    digest = hashlib.sha256()
    for session_id in sorted(result.fixes):
        digest.update(session_id.encode())
        digest.update(fix_stream_checksum(result.fixes[session_id]).encode())
    return digest.hexdigest()


def throughput_report(
    fingerprint_db: FingerprintDatabase,
    motion_db: MotionDatabase,
    config: MoLocConfig,
    traces: Sequence[WalkTrace],
    plan: Optional[FloorPlan] = None,
    session_counts: Sequence[int] = (1, 16, 64, 256),
    corpus_size: int = 8,
    stagger_ticks: int = 2,
    resilient: bool = True,
    repeats: int = 1,
) -> Dict[str, object]:
    """Batched-vs-sequential serving metrics at several concurrency levels.

    For each session count, builds a seeded corpus-replay workload,
    serves it through both paths from identical per-session services —
    one ``on_interval`` at a time, and through a fresh
    :class:`~repro.serving.engine.BatchedServingEngine` — and records
    throughput (session-intervals/s), per-tick latency percentiles, the
    speedup, and the bit-level fix-stream checksums of both paths.

    With ``repeats > 1`` each path is served that many times (a fresh
    engine and fresh services per repeat, so no state leaks between
    passes) and the fastest pass supplies the wall-clock fields — the
    floor of N samples is far more stable than any single sample, which
    is what a regression gate needs.  The deterministic fields are
    identical across repeats by construction.

    Wall-clock fields vary run to run; everything under each entry's
    ``"deterministic"`` key (and :func:`deterministic_view` of the whole
    report) must be identical across runs of the same seeded study.
    """
    from .engine import BatchedServingEngine  # local: avoid cycle at import

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report: Dict[str, object] = {
        "benchmark": "serving_throughput",
        "workload": {
            "corpus_size": corpus_size,
            "stagger_ticks": stagger_ticks,
            "resilient": resilient,
        },
        "results": [],
    }
    for n_sessions in session_counts:
        workload = multi_session_workload(
            traces,
            n_sessions,
            corpus_size=min(corpus_size, n_sessions),
            stagger_ticks=stagger_ticks,
        )
        sequential = None
        for _ in range(repeats):
            sequential_services = build_session_services(
                workload,
                fingerprint_db,
                motion_db,
                config,
                resilient=resilient,
                plan=plan,
            )
            # Collect the construction garbage now and keep the GC out
            # of the timed region: whether a collection lands inside a
            # serve would otherwise dominate run-to-run variance.
            gc.collect()
            gc.disable()
            try:
                result = serve_sequential(workload, sequential_services)
            finally:
                gc.enable()
            if sequential is None or result.elapsed_s < sequential.elapsed_s:
                sequential = result
        batched = None
        engine = None
        batched_samples: List[float] = []
        for _ in range(repeats):
            batched_services = build_session_services(
                workload,
                fingerprint_db,
                motion_db,
                config,
                resilient=resilient,
                plan=plan,
            )
            pass_engine = BatchedServingEngine(
                fingerprint_db, motion_db, config
            )
            gc.collect()
            gc.disable()
            try:
                result = serve_batched(pass_engine, workload, batched_services)
            finally:
                gc.enable()
            batched_samples.append(result.elapsed_s)
            if batched is None or result.elapsed_s < batched.elapsed_s:
                batched = result
                engine = pass_engine
        entry = {
            "sessions": n_sessions,
            "ticks": len(workload.ticks),
            "sequential": _timing(sequential),
            "batched": _timing(batched),
            "speedup": sequential.elapsed_s / batched.elapsed_s,
            "deterministic": {
                "sessions": n_sessions,
                "n_intervals": workload.n_intervals,
                "ticks": len(workload.ticks),
                "sequential_checksum": workload_checksum(sequential),
                "batched_checksum": workload_checksum(batched),
                "equal": workload_checksum(sequential)
                == workload_checksum(batched),
                "match_cache": [
                    engine.matcher.cache_hits,
                    engine.matcher.cache_misses,
                    engine.matcher.coalesced_hits,
                ],
                "estimate_cache": [
                    engine.estimate_cache_hits,
                    engine.estimate_cache_misses,
                ],
            },
            # Machine-speed yardstick measured next to this level's
            # serves, for drift-normalized baseline comparisons.
            "calibration_s": machine_speed_probe(),
            # Every repeat's batched elapsed time: the spread tells a
            # regression gate whether this measurement is precise
            # enough to adjudicate a small difference at all.
            "batched_samples_s": list(batched_samples),
            # The full observability snapshot (latency histograms and
            # all) — wall-clock dependent, so *not* under
            # "deterministic".
            "metrics": engine.metrics_snapshot(),
        }
        report["results"].append(entry)
    return report


def machine_speed_probe(repeats: int = 3) -> float:
    """Best-of-N seconds for a fixed interpreter-bound workload.

    A throughput number is only comparable to a baseline produced at the
    same machine speed, and shared or thermally-throttled hosts drift by
    tens of percent between runs.  This probe is the yardstick: it runs
    next to each measurement, and a regression gate can divide the drift
    out by scaling the baseline with the ratio of the two probes.  The
    workload is pure interpreter arithmetic, matching the serving hot
    path's dominant cost.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 1e-9
        best = min(best, time.perf_counter() - started)
    return best


def _timing(result: ServeResult) -> Dict[str, float]:
    return {
        "elapsed_s": result.elapsed_s,
        "intervals_per_s": result.intervals_per_s,
        "p50_tick_ms": result.tick_percentile_ms(50),
        "p95_tick_ms": result.tick_percentile_ms(95),
    }


def deterministic_view(report: Dict[str, object]) -> Dict[str, object]:
    """The run-invariant subset of a :func:`throughput_report`.

    Strips every wall-clock field; two runs of the same seeded study must
    agree on this view exactly (the determinism test asserts it).
    """
    return {
        "benchmark": report["benchmark"],
        "workload": report["workload"],
        "results": [entry["deterministic"] for entry in report["results"]],
    }
