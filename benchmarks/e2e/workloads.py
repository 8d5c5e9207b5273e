"""Workload inputs, the in-process tick workloads, and the reference engine.

Inputs come from ``prepare_study(seed, n_test_traces=N,
test_trace_config=TraceGenerationConfig(n_hops=H))``: N distinct walks,
each served by its own session, so no two sessions share a scan or an
IMU segment and no engine cache can hit across sessions.  Synthesis is
input preparation, not measured.  Each workload synthesizes only the
walks it serves: N and H are sized so a run fits its time budget.

The program is driven only through public entry points:
``BatchedServingEngine.tick_detailed`` here, the TCP wire protocol in
:mod:`tcp`.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    build_session_services,
    fix_stream_checksum,
)
from repro.sim.crowdsource import TraceGenerationConfig
from repro.sim.evaluation import MultiSessionWorkload
from repro.sim.experiments import Study, prepare_study

from spans import SpanRecorder, instrument
from stats import percentile, supported_percentile

clock = time.perf_counter

N_APS = 6
# Hops per walk of the tick workloads: 13 intervals per session.
TICK_HOPS = 12
# Set-up is repeated, spread over the run, and its median reported, so
# that one slow stretch of the host does not move the metric.
SETUP_REPEATS = 7
# At least this many passes, so the median pass is not one pass.
MIN_PASSES = 4


@dataclass(frozen=True)
class TickShape:
    """A closed-loop tick workload: ``width`` sessions per lockstep tick."""

    width: int
    pool: int


TICK_SHAPES = {
    # 256 sessions, each on its own walk, in ticks of width 256.
    "tick-256": TickShape(width=256, pool=256),
    # Ticks of width 8, passes cycling over disjoint 8-walk slices.
    "tick-8": TickShape(width=8, pool=64),
}
SMOKE_TICK_SHAPES = {
    "tick-256": TickShape(width=16, pool=16),
    "tick-8": TickShape(width=8, pool=16),
}


@dataclass
class Measurement:
    """What one workload measured, before it is reported.

    Attributes:
        metrics: End-to-end metrics by name (value only; units follow
            from names, :func:`run.unit_of`).
        attempted: Requests attempted.
        failed: Requests that failed, were refused, or went unanswered.
        mismatches: Correctness failures (checksums, accounting).
        traces: Exported span documents (traced runs only).
        caches: Cache hit rates read from the program's own counters.
        notes: Sample counts and the percentiles they support.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    traces: List[Dict[str, object]] = field(default_factory=list)
    caches: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def synthesize(seed: int, n_walks: int, n_hops: int) -> Study:
    """The seeded world, its crowdsourced training walks, and the test walks."""
    return prepare_study(
        seed,
        n_test_traces=n_walks,
        test_trace_config=TraceGenerationConfig(n_hops=n_hops),
    )


def hops_for(duration_s: float, rate_hz: float) -> int:
    """Hops a walk needs so a Poisson sender rarely runs out of intervals."""
    expected = rate_hz * duration_s
    return max(TICK_HOPS, math.ceil(expected + 4.0 * math.sqrt(expected)))


def deploy(study: Study):
    """The deployment's set-up work: build the motion database.

    The fingerprint database is the site survey, an input.  The motion
    database is crowdsourced from the training walks at start-up; a
    fresh :class:`Study` over the same walks keeps it from being served
    out of the study's own cache.
    """
    fresh = Study(
        scenario=study.scenario,
        training_traces=study.training_traces,
        test_traces=[],
        config=study.config,
    )
    motion_db, _ = fresh.motion_db(N_APS)
    return study.fingerprint_db(N_APS), motion_db


def session_id_of(walk_index: int) -> str:
    return f"walk-{walk_index:04d}"


def session_events(session_id: str, walk) -> List[IntervalEvent]:
    """A walk's intervals as one session's sequenced events."""
    events = [IntervalEvent(session_id, walk.initial_fingerprint.rss, None, 0)]
    events.extend(
        IntervalEvent(session_id, hop.arrival_fingerprint.rss, hop.imu, index + 1)
        for index, hop in enumerate(walk.hops)
    )
    return events


def true_location(walk, index: int) -> int:
    return walk.true_start if index == 0 else walk.hops[index - 1].true_to


def fix_error_m(plan, walk, index: int, fix) -> float:
    """Distance from a served fix to the walk's true location."""
    return plan.position_of(true_location(walk, index)).distance_to(
        plan.position_of(fix.location_id)
    )


def mean_error_m(plan, walks, streams: Dict[str, list]) -> float:
    """Mean distance from every served fix to its walk's true location."""
    errors = [
        fix_error_m(plan, walks[sid], index, fix)
        for sid, fixes in streams.items()
        for index, fix in enumerate(fixes)
        if fix is not None
    ]
    return sum(errors) / len(errors)


def calibrated_services(study: Study, fingerprint_db, motion_db, walks):
    """One calibrated resilient service per ``{session_id: walk}``."""
    return build_session_services(
        MultiSessionWorkload(sessions=dict(walks), ticks=[]),
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=study.scenario.plan,
    )


def lockstep(streams: Dict[str, Sequence]) -> List[list]:
    """Tick ``t`` holds every session's ``t``-th event, in session order."""
    length = max((len(events) for events in streams.values()), default=0)
    return [
        [events[t] for events in streams.values() if t < len(events)]
        for t in range(length)
    ]


def reference_streams(
    study: Study,
    fingerprint_db,
    motion_db,
    walks: Dict[str, object],
    prefixes: Dict[str, Sequence[IntervalEvent]],
) -> Dict[str, list]:
    """Per-session fix streams of one engine fed the same prefixes.

    Batched serving is bitwise equal to sequential serving whatever the
    grouping, so any path that serves a session the same events must
    reproduce these streams' checksums exactly.
    """
    engine = BatchedServingEngine(fingerprint_db, motion_db, study.config)
    services = calibrated_services(study, fingerprint_db, motion_db, walks)
    for session_id in prefixes:
        engine.add_session(session_id, services[session_id])
    fixes: Dict[str, list] = {session_id: [] for session_id in prefixes}
    for tick in lockstep(prefixes):
        for event, fix in zip(tick, engine.tick(tick)):
            fixes[event.session_id].append(fix)
    return fixes


def cache_hit_rates(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Hit rates of the engine's, matcher's and transitions' caches."""

    def rate(section: str, hits: str, misses: str) -> float:
        counters = snapshot.get(section, {}).get("counters", {})
        hit, miss = counters.get(hits, 0), counters.get(misses, 0)
        return hit / (hit + miss) if hit + miss else 0.0

    return {
        "engine.match_cache_hit_rate": rate(
            "matcher", "matcher.cache_hits", "matcher.cache_misses"
        ),
        "engine.estimate_cache_hit_rate": rate(
            "engine", "engine.estimate_cache.hits", "engine.estimate_cache.misses"
        ),
        "engine.motion_memo_hit_rate": rate(
            "engine", "engine.memo.motion_hits", "engine.memo.motion_misses"
        ),
        "engine.imu_memo_hit_rate": rate(
            "engine", "engine.memo.imu_hits", "engine.memo.imu_misses"
        ),
        "transitions.set_cache_hit_rate": rate(
            "transitions",
            "transitions.set_cache_hits",
            "transitions.set_cache_misses",
        ),
    }


def merge_rates(rates: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The largest rate per cache: a cache that ever hit shows it."""
    merged: Dict[str, float] = {}
    for entry in rates:
        for name, value in entry.items():
            merged[name] = max(merged.get(name, 0.0), value)
    return merged


# ----------------------------------------------------------------------
# Tick workloads
# ----------------------------------------------------------------------


@dataclass
class TickInputs:
    study: Study
    shape: TickShape
    walks: Dict[str, object]
    events: Dict[str, List[IntervalEvent]]


def prepare_ticks(name: str, seed: int, smoke: bool) -> TickInputs:
    shape = (SMOKE_TICK_SHAPES if smoke else TICK_SHAPES)[name]
    study = synthesize(seed, shape.pool, TICK_HOPS)
    walks = {
        session_id_of(index): walk for index, walk in enumerate(study.test_traces)
    }
    events = {
        session_id: session_events(session_id, walk)
        for session_id, walk in walks.items()
    }
    return TickInputs(study=study, shape=shape, walks=walks, events=events)


def _pass_sessions(inputs: TickInputs, index: int) -> List[str]:
    """Pass ``index``'s slice: disjoint ``width``-walk slices, cycled."""
    ids = list(inputs.walks)
    n_slices = len(ids) // inputs.shape.width
    start = (index % n_slices) * inputs.shape.width
    return ids[start : start + inputs.shape.width]


def measure_ticks(inputs: TickInputs, seconds: float, traced: bool) -> Measurement:
    """Closed-loop passes until ``seconds`` have elapsed (at least ``MIN_PASSES``).

    Each pass builds a fresh engine and fresh calibrated services, then
    serves its sessions in lockstep ticks; only ``tick_detailed`` is
    timed, with the collector running as it would for a user.
    Throughput is the median over passes of a pass's fixes divided by
    its summed tick wall time; fix latency is the median of the raw
    tick timings.  Set-up — the motion-database build, the first pass's
    services and the engine — is timed ``SETUP_REPEATS`` times, spread
    over the run.
    """
    study = inputs.study
    recorder = SpanRecorder()
    measurement = Measurement()
    with instrument(recorder) if traced else contextlib.nullcontext():
        setups = []
        pass_durations = []
        pass_rates = []
        rates = []
        pass_checksums = []
        started = clock()
        while (
            len(pass_durations) < MIN_PASSES
            or len(setups) < SETUP_REPEATS
            or clock() - started < seconds
        ):
            if clock() - started >= len(setups) * seconds / SETUP_REPEATS:
                setup_s, fingerprint_db, motion_db = _timed_setup(inputs)
                setups.append(setup_s)
            result = _tick_pass(
                inputs, fingerprint_db, motion_db, len(pass_durations)
            )
            pass_durations.append(result["durations"])
            pass_rates.append(result["served"] / sum(result["durations"]))
            measurement.attempted += result["attempted"]
            measurement.failed += result["attempted"] - result["served"]
            rates.append(result["caches"])
            pass_checksums.append(result["checksums"])
        elapsed_s = clock() - started

    streams = reference_streams(
        study, fingerprint_db, motion_db, inputs.walks, inputs.events
    )
    reference = {sid: fix_stream_checksum(fixes) for sid, fixes in streams.items()}
    for index, checksums in enumerate(pass_checksums):
        for session_id, checksum in checksums.items():
            if checksum != reference[session_id]:
                measurement.mismatches.append(
                    f"pass {index}: {session_id} fix stream differs from the "
                    "reference engine"
                )

    # Closed loop: every fix in a tick is answered when the tick ends,
    # so with equally wide ticks the median fix latency is the median
    # tick latency.
    durations = [d for timings in pass_durations for d in timings]
    tail = supported_percentile(len(durations))
    measurement.metrics.update(
        {
            "setup_s": percentile(setups, 50),
            "throughput_ivps": statistics.median(pass_rates),
            "fix_p50_ms": percentile(durations, 50) * 1e3,
            # Every pass serves the reference's fixes bit for bit.
            "mean_error_m": mean_error_m(study.scenario.plan, inputs.walks, streams),
        }
    )
    if tail is not None and tail > 50:
        measurement.metrics[f"tick_p{tail:g}_ms"] = percentile(durations, tail) * 1e3
    # Diagnostic only: the fastest timing of each tick position over
    # the passes, stitched into one pass.  It leaves out host stalls
    # and collector pauses, which users pay for.
    fastest = [min(timings) for timings in zip(*pass_durations)]
    measurement.caches = merge_rates(rates)
    measurement.notes.update(
        {
            "passes": len(pass_durations),
            "ticks": len(durations),
            "tick_width": inputs.shape.width,
            "measured_s": elapsed_s,
            "setups_s": setups,
            "pass_ivps": pass_rates,
            "fastest_positions_ivps": inputs.shape.width * len(fastest) / sum(fastest),
        }
    )
    if traced:
        measurement.traces.append(recorder.export())
    return measurement


def _timed_setup(inputs: TickInputs):
    """Deploy and build the first pass's engine; return its time and databases."""
    study = inputs.study
    started = clock()
    fingerprint_db, motion_db = deploy(study)
    first = {sid: inputs.walks[sid] for sid in _pass_sessions(inputs, 0)}
    services = calibrated_services(study, fingerprint_db, motion_db, first)
    engine = BatchedServingEngine(fingerprint_db, motion_db, study.config)
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    return clock() - started, fingerprint_db, motion_db


def _tick_pass(inputs: TickInputs, fingerprint_db, motion_db, index: int):
    study = inputs.study
    session_ids = _pass_sessions(inputs, index)
    walks = {sid: inputs.walks[sid] for sid in session_ids}
    services = calibrated_services(study, fingerprint_db, motion_db, walks)
    engine = BatchedServingEngine(fingerprint_db, motion_db, study.config)
    for session_id in session_ids:
        engine.add_session(session_id, services[session_id])
    streams = {sid: inputs.events[sid] for sid in session_ids}
    fixes: Dict[str, list] = {sid: [] for sid in session_ids}
    durations = []
    attempted = served = 0
    for tick in lockstep(streams):
        tick_started = clock()
        outcome = engine.tick_detailed(tick)
        durations.append(clock() - tick_started)
        attempted += len(tick)
        served += len(outcome.served)
        for event, fix in zip(tick, outcome.fixes):
            fixes[event.session_id].append(fix)
    return {
        "durations": durations,
        "attempted": attempted,
        "served": served,
        "checksums": {
            sid: fix_stream_checksum(stream) for sid, stream in fixes.items()
        },
        "caches": cache_hit_rates(engine.metrics_snapshot()),
    }
