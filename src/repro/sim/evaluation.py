"""Trace-driven evaluation: errors, accuracy, large-error analysis, convergence.

Reproduces the paper's measurement methodology (Sec. VI):

* **localization error** — distance between the estimated and ground-truth
  reference locations;
* **accuracy** — fraction of estimates that hit the exact reference
  location;
* **large-error locations** (Fig. 8) — locations where the WiFi baseline
  errs beyond a threshold (6 m in the paper), extracted so both systems
  can be compared on the ambiguous spots;
* **convergence** (Table I) — for traces whose *initial* estimate was
  wrong: how many erroneous localizations (EL) occur before the first
  accurate one, and the accuracy / mean / max error afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.fingerprint import Fingerprint
from ..env.floorplan import FloorPlan
from ..motion.kernel import SegmentMotion, segment_motions
from ..motion.rlm import measurement_from
from ..motion.trace import WalkTrace
from ..observability import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..sensors.imu import ImuSegment

__all__ = [
    "LocalizationRecord",
    "TraceEvaluation",
    "EvaluationResult",
    "ConvergenceStatistics",
    "SessionInterval",
    "MultiSessionWorkload",
    "Arrival",
    "ArrivalSchedule",
    "evaluate_localizer",
    "evaluate_service",
    "evaluate_smoother",
    "multi_session_workload",
    "open_loop_schedule",
    "ambiguous_location_ids",
    "convergence_statistics",
]


@dataclass(frozen=True)
class LocalizationRecord:
    """One localization attempt and its outcome.

    Attributes:
        true_id: Ground-truth reference location.
        estimated_id: The localizer's answer.
        error_m: Distance between the two on the floor plan.
        used_motion: Whether motion matching contributed.
        is_initial: Whether this was the first fix of its trace.
    """

    true_id: int
    estimated_id: int
    error_m: float
    used_motion: bool
    is_initial: bool

    @property
    def is_accurate(self) -> bool:
        """Whether the estimate hit the exact reference location."""
        return self.true_id == self.estimated_id


@dataclass(frozen=True)
class TraceEvaluation:
    """All localization records of one walk, in order."""

    user: str
    records: List[LocalizationRecord]

    @property
    def initial_accurate(self) -> bool:
        """Whether the very first fix of the walk was accurate."""
        return bool(self.records) and self.records[0].is_accurate


@dataclass
class EvaluationResult:
    """Aggregated outcome of evaluating a localizer on a trace set."""

    traces: List[TraceEvaluation]

    @property
    def records(self) -> List[LocalizationRecord]:
        """All records across traces, in trace order."""
        return [record for trace in self.traces for record in trace.records]

    @property
    def errors(self) -> np.ndarray:
        """All localization errors, in meters."""
        return np.array([record.error_m for record in self.records])

    @property
    def accuracy(self) -> float:
        """Fraction of records that hit the exact reference location."""
        records = self.records
        if not records:
            raise ValueError("no records to compute accuracy over")
        return sum(record.is_accurate for record in records) / len(records)

    @property
    def mean_error_m(self) -> float:
        """Mean localization error, meters."""
        return float(self.errors.mean())

    @property
    def max_error_m(self) -> float:
        """Maximum localization error, meters."""
        return float(self.errors.max())

    def errors_at(self, location_ids: Set[int]) -> np.ndarray:
        """Errors restricted to records whose ground truth is in the set."""
        return np.array(
            [r.error_m for r in self.records if r.true_id in location_ids]
        )


def evaluate_localizer(
    localizer,
    traces: Sequence[WalkTrace],
    plan: FloorPlan,
    counting: Literal["csc", "dsc"] = "csc",
) -> EvaluationResult:
    """Run a localizer over test traces and score every fix.

    The localizer must expose ``reset()``, ``locate(fingerprint, motion)``
    returning an object with ``location_id`` and ``used_motion``, and a
    ``fingerprint_db`` attribute (queries are truncated to its AP count so
    6-AP traces evaluate against 4- and 5-AP databases).

    Args:
        localizer: The system under test (MoLoc or a baseline).
        traces: Held-out test walks.
        plan: Floor plan for error distances.
        counting: Step counter used for motion extraction.
    """
    n_aps = localizer.fingerprint_db.n_aps

    def truncate(fingerprint: Fingerprint) -> Fingerprint:
        if fingerprint.n_aps > n_aps:
            return fingerprint.truncated(n_aps)
        return fingerprint

    motions = iter(_hop_motions(traces))
    evaluated = []
    for trace in traces:
        localizer.reset()
        records: List[LocalizationRecord] = []

        estimate = localizer.locate(truncate(trace.initial_fingerprint), None)
        records.append(
            _record(plan, trace.true_start, estimate, is_initial=True)
        )
        for hop in trace.hops:
            measurement = measurement_from(
                next(motions),
                step_length_m=trace.estimated_step_length_m,
                placement_offset_deg=trace.placement_offset_estimate_deg,
                counting=counting,
            )
            estimate = localizer.locate(
                truncate(hop.arrival_fingerprint), measurement
            )
            records.append(
                _record(plan, hop.true_to, estimate, is_initial=False)
            )
        evaluated.append(TraceEvaluation(user=trace.user, records=records))
    return EvaluationResult(traces=evaluated)


def _hop_motions(traces: Sequence[WalkTrace]) -> List[SegmentMotion]:
    """Every hop's kernel row, trace by trace, from one kernel call."""
    return segment_motions([hop.imu for trace in traces for hop in trace.hops])


def _record(
    plan: FloorPlan, true_id: int, estimate, is_initial: bool
) -> LocalizationRecord:
    """Score one estimate against ground truth."""
    error = plan.position_of(true_id).distance_to(
        plan.position_of(estimate.location_id)
    )
    return LocalizationRecord(
        true_id=true_id,
        estimated_id=estimate.location_id,
        error_m=error,
        used_motion=estimate.used_motion,
        is_initial=is_initial,
    )


def evaluate_service(
    make_session,
    traces: Sequence[WalkTrace],
    plan: FloorPlan,
) -> EvaluationResult:
    """Drive a service facade over test traces and score every fix.

    Unlike :func:`evaluate_localizer` (which feeds pre-extracted motion
    measurements into a bare localizer), this drives the *service* path:
    raw scans and raw IMU segments go through whatever sanitization,
    calibration, and fallback logic the facade implements.

    Args:
        make_session: Callable ``(trace) -> service`` returning a fresh,
            already-calibrated session object exposing
            ``on_interval(scan, imu=None)`` whose result has
            ``location_id`` and ``used_motion`` attributes (both
            :class:`~repro.core.localizer.LocationEstimate` and the
            robustness layer's ``ResilientFix`` qualify).  Keeping
            construction with the caller avoids an upward import of the
            service layer and lets each trace set its own step length.
        traces: Held-out test walks.
        plan: Floor plan for error distances.
    """
    evaluated = []
    for trace in traces:
        service = make_session(trace)
        records: List[LocalizationRecord] = []
        estimate = service.on_interval(trace.initial_fingerprint.rss)
        records.append(
            _record(plan, trace.true_start, estimate, is_initial=True)
        )
        for hop in trace.hops:
            estimate = service.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            records.append(
                _record(plan, hop.true_to, estimate, is_initial=False)
            )
        evaluated.append(TraceEvaluation(user=trace.user, records=records))
    return EvaluationResult(traces=evaluated)


def evaluate_smoother(
    smoother,
    traces: Sequence[WalkTrace],
    plan: FloorPlan,
    counting: Literal["csc", "dsc"] = "csc",
) -> EvaluationResult:
    """Run an offline smoother over test traces and score every interval.

    The smoother must expose ``smooth(fingerprints, motions)`` returning
    one location id per interval, plus a ``fingerprint_db`` attribute for
    AP-count truncation (e.g. :class:`repro.core.smoothing.ViterbiSmoother`).
    """
    n_aps = smoother.fingerprint_db.n_aps

    def truncate(fingerprint: Fingerprint) -> Fingerprint:
        if fingerprint.n_aps > n_aps:
            return fingerprint.truncated(n_aps)
        return fingerprint

    hop_motions = iter(_hop_motions(traces))
    evaluated = []
    for trace in traces:
        fingerprints = [truncate(trace.initial_fingerprint)] + [
            truncate(hop.arrival_fingerprint) for hop in trace.hops
        ]
        motions = [
            measurement_from(
                next(hop_motions),
                step_length_m=trace.estimated_step_length_m,
                placement_offset_deg=trace.placement_offset_estimate_deg,
                counting=counting,
            )
            for _ in trace.hops
        ]
        path = smoother.smooth(fingerprints, motions)
        records = []
        for index, (truth, estimated) in enumerate(
            zip(trace.true_locations, path)
        ):
            error = plan.position_of(truth).distance_to(
                plan.position_of(estimated)
            )
            records.append(
                LocalizationRecord(
                    true_id=truth,
                    estimated_id=estimated,
                    error_m=error,
                    used_motion=index > 0,
                    is_initial=index == 0,
                )
            )
        evaluated.append(TraceEvaluation(user=trace.user, records=records))
    return EvaluationResult(traces=evaluated)


@dataclass(frozen=True)
class SessionInterval:
    """One session's inputs for one serving tick of a workload.

    Attributes:
        session_id: The session these inputs belong to.
        scan: The WiFi scan (per-AP dBm), or None for a lost scan.
        imu: The IMU segment since the session's previous interval, or
            None on the session's first interval.
        sequence: Per-session monotonic delivery number (0 for the
            session's first interval), or None for workloads that do
            not model message ordering.
    """

    session_id: str
    scan: Optional[Tuple[float, ...]]
    imu: Optional[ImuSegment]
    sequence: Optional[int] = None


@dataclass
class MultiSessionWorkload:
    """A multi-user serving load: who sends what, on which tick.

    Produced by :func:`multi_session_workload`; consumed by the batched
    serving engine (one :attr:`ticks` entry per engine tick) and by the
    sequential baseline (same events, served one by one).

    Attributes:
        sessions: Each session id mapped to the walk it replays (the
            benchmark harness needs the trace for per-session
            calibration and step length).
        ticks: Per tick, the intervals arriving on it, in session order.
    """

    sessions: Dict[str, WalkTrace]
    ticks: List[List[SessionInterval]]

    @property
    def n_intervals(self) -> int:
        """Total intervals across all ticks."""
        return sum(len(tick) for tick in self.ticks)

    @property
    def peak_concurrency(self) -> int:
        """The widest tick (sessions served simultaneously)."""
        return max((len(tick) for tick in self.ticks), default=0)


def multi_session_workload(
    traces: Sequence[WalkTrace],
    n_sessions: int,
    corpus_size: Optional[int] = 8,
    stagger_ticks: int = 0,
    n_aps: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MultiSessionWorkload:
    """A corpus-replay load: ``n_sessions`` users replaying recorded walks.

    The standard serving load test — and a realistic one: popular indoor
    routes produce near-identical scan/IMU sequences across users, which
    is exactly the redundancy a batched engine's content-addressed
    caches exploit.  Sessions are assigned traces round-robin from a
    small corpus; sessions beyond one corpus-width start
    ``stagger_ticks`` later per lap, so concurrent sessions run at
    different phases of the same walks.

    Fault-injected loads come for free: pass traces already transformed
    by :mod:`repro.sim.failures` injectors.

    Args:
        traces: The recorded walks to draw from.
        n_sessions: How many concurrent user sessions.
        corpus_size: How many distinct walks to replay (None or 0 for
            all of ``traces``).
        stagger_ticks: Start-tick offset between successive corpus laps.
        n_aps: Optionally truncate every scan to this AP count (AP-count
            sweep deployments).
        registry: Optional metrics registry; when given, the generator
            counts ``workload.sessions`` / ``workload.ticks`` /
            ``workload.intervals`` and observes the per-tick width
            histogram ``workload.tick_width``.

    Returns:
        The workload; deterministic in its inputs (no RNG involved).
    """
    if n_sessions < 1:
        raise ValueError(f"n_sessions must be >= 1, got {n_sessions}")
    if stagger_ticks < 0:
        raise ValueError(f"stagger_ticks must be >= 0, got {stagger_ticks}")
    if not traces:
        raise ValueError("need at least one trace to build a workload")
    corpus = list(traces)
    if corpus_size:
        corpus = corpus[:corpus_size]

    def scan_of(fingerprint: Fingerprint) -> Tuple[float, ...]:
        if n_aps is not None and fingerprint.n_aps > n_aps:
            return fingerprint.truncated(n_aps).rss
        return fingerprint.rss

    sessions: Dict[str, WalkTrace] = {}
    scripts: List[Tuple[str, int, List[SessionInterval]]] = []
    for index in range(n_sessions):
        trace = corpus[index % len(corpus)]
        session_id = f"user-{index:04d}"
        sessions[session_id] = trace
        intervals = [
            SessionInterval(
                session_id, scan_of(trace.initial_fingerprint), None, 0
            )
        ]
        intervals.extend(
            SessionInterval(
                session_id,
                scan_of(hop.arrival_fingerprint),
                hop.imu,
                hop_index + 1,
            )
            for hop_index, hop in enumerate(trace.hops)
        )
        start_tick = stagger_ticks * (index // len(corpus))
        scripts.append((session_id, start_tick, intervals))

    n_ticks = max(start + len(ivs) for _, start, ivs in scripts)
    ticks: List[List[SessionInterval]] = [[] for _ in range(n_ticks)]
    for _, start, intervals in scripts:
        for offset, interval in enumerate(intervals):
            ticks[start + offset].append(interval)
    if registry is not None:
        registry.counter("workload.sessions").inc(n_sessions)
        registry.counter("workload.ticks").inc(n_ticks)
        registry.counter("workload.intervals").inc(
            sum(len(tick) for tick in ticks)
        )
        width = registry.histogram("workload.tick_width", DEFAULT_SIZE_BUCKETS)
        for tick in ticks:
            width.observe(len(tick))
    return MultiSessionWorkload(sessions=sessions, ticks=ticks)


@dataclass(frozen=True)
class Arrival:
    """One interval's arrival at the ingress front door.

    Attributes:
        t_s: Arrival time on the schedule's clock (seconds from start).
        interval: The session interval that arrives.
        redelivery: Whether this is a reconnect-storm re-send of an
            interval already delivered earlier (same session, same
            sequence number) — the duplicate the serving engine's
            sequence gate must answer idempotently.
    """

    t_s: float
    interval: SessionInterval
    redelivery: bool = False


@dataclass
class ArrivalSchedule:
    """An open-loop serving load: timestamped arrivals, no think time.

    Unlike :class:`MultiSessionWorkload` — a closed-loop script where
    the harness feeds the engine one tick batch at a time and the load
    implicitly waits for the server — an open-loop schedule fixes *when*
    every event arrives up front.  Arrivals do not slow down when the
    server does, which is the regime where queueing delay, admission
    backpressure, and deadline shedding actually show themselves.

    Attributes:
        sessions: Each session id mapped to the walk it replays.
        arrivals: Every arrival, sorted by time (stable in generation
            order on ties, so the schedule is deterministic).
    """

    sessions: Dict[str, WalkTrace]
    arrivals: List[Arrival]

    @property
    def n_arrivals(self) -> int:
        """Total arrivals, redeliveries included."""
        return len(self.arrivals)

    @property
    def n_redeliveries(self) -> int:
        """How many arrivals are reconnect-storm duplicates."""
        return sum(1 for arrival in self.arrivals if arrival.redelivery)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival (0.0 for an empty schedule)."""
        return self.arrivals[-1].t_s if self.arrivals else 0.0


def open_loop_schedule(
    workload: MultiSessionWorkload,
    mean_rate_hz: float = 4.0,
    seed: int = 0,
    diurnal_amplitude: float = 0.0,
    diurnal_period_s: float = 60.0,
    reconnect_storms: int = 0,
    storm_fraction: float = 0.25,
    jitter_s: float = 0.0,
) -> ArrivalSchedule:
    """Timestamp a workload's intervals as seeded open-loop traffic.

    Each session's intervals keep their recorded order but arrive on
    their own Poisson process: successive gaps are exponential with the
    instantaneous rate ``mean_rate_hz * (1 + amplitude * sin(2*pi*t /
    period))`` — a diurnal curve, so burst troughs and crests sweep
    through the run instead of the load being flat.  Three knobs model
    the messy parts of a real front door:

    * **diurnal bursts** (``diurnal_amplitude``) — arrival-rate swings
      that overrun a fixed-capacity admission queue at the crest;
    * **reconnect storms** (``reconnect_storms``) — at seeded storm
      times, a fraction of sessions re-send their most recently
      delivered interval (same sequence number), the duplicate flood a
      mass reconnect produces;
    * **delivery jitter** (``jitter_s``) — independent per-arrival
      delay, which can reorder a session's own events in flight and so
      exercises the engine's stale-sequence drop path.

    Everything is drawn from one seeded generator: the same arguments
    always produce the identical schedule, which is what lets the
    async-vs-lockstep equality gate replay it bit-for-bit.

    Args:
        workload: The closed-loop script to timestamp (its per-session
            interval order is preserved; its tick grouping is ignored).
        mean_rate_hz: Each session's mean arrival rate.
        seed: RNG seed for gaps, storm times, storm membership, jitter.
        diurnal_amplitude: Rate modulation depth in [0, 1).
        diurnal_period_s: Period of the diurnal curve.
        reconnect_storms: How many storm instants to inject.
        storm_fraction: Fraction of sessions re-sending per storm.
        jitter_s: Upper bound of the uniform per-arrival delivery delay.

    Returns:
        The schedule, arrivals sorted by time.
    """
    if mean_rate_hz <= 0:
        raise ValueError(f"mean_rate_hz must be > 0, got {mean_rate_hz}")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}"
        )
    if diurnal_period_s <= 0:
        raise ValueError(
            f"diurnal_period_s must be > 0, got {diurnal_period_s}"
        )
    if reconnect_storms < 0:
        raise ValueError(
            f"reconnect_storms must be >= 0, got {reconnect_storms}"
        )
    if not 0.0 <= storm_fraction <= 1.0:
        raise ValueError(
            f"storm_fraction must be in [0, 1], got {storm_fraction}"
        )
    if jitter_s < 0:
        raise ValueError(f"jitter_s must be >= 0, got {jitter_s}")
    rng = np.random.default_rng(seed)

    def rate_at(t_s: float) -> float:
        return mean_rate_hz * (
            1.0
            + diurnal_amplitude
            * float(np.sin(2.0 * np.pi * t_s / diurnal_period_s))
        )

    # Per-session interval scripts, in the workload's session order.
    scripts: Dict[str, List[SessionInterval]] = {
        session_id: [] for session_id in workload.sessions
    }
    for tick in workload.ticks:
        for interval in tick:
            scripts[interval.session_id].append(interval)

    arrivals: List[Arrival] = []
    delivered: Dict[str, List[Tuple[float, SessionInterval]]] = {}
    for session_id, intervals in scripts.items():
        t_s = 0.0
        timeline: List[Tuple[float, SessionInterval]] = []
        for interval in intervals:
            t_s += float(rng.exponential(1.0 / rate_at(t_s)))
            send_s = t_s + (
                float(rng.uniform(0.0, jitter_s)) if jitter_s else 0.0
            )
            timeline.append((t_s, interval))
            arrivals.append(Arrival(send_s, interval))
        delivered[session_id] = timeline
    horizon_s = max((t for a in arrivals for t in (a.t_s,)), default=0.0)

    session_ids = list(scripts)
    per_storm = int(round(storm_fraction * len(session_ids)))
    for _ in range(reconnect_storms):
        storm_s = float(rng.uniform(0.0, horizon_s)) if horizon_s else 0.0
        members = rng.choice(
            len(session_ids), size=min(per_storm, len(session_ids)),
            replace=False,
        )
        for member in sorted(int(m) for m in members):
            timeline = delivered[session_ids[member]]
            # The interval this session most recently sent before the
            # storm — the one a reconnecting client re-sends because it
            # never saw the ack.  A session that hadn't started yet has
            # nothing to re-send.
            latest = None
            for sent_s, interval in timeline:
                if sent_s <= storm_s:
                    latest = interval
                else:
                    break
            if latest is None:
                continue
            resend_s = storm_s + float(rng.uniform(0.0, 0.050))
            arrivals.append(Arrival(resend_s, latest, redelivery=True))

    arrivals.sort(key=lambda arrival: arrival.t_s)
    return ArrivalSchedule(sessions=dict(workload.sessions), arrivals=arrivals)


def ambiguous_location_ids(
    baseline_result: EvaluationResult, threshold_m: float = 6.0
) -> Set[int]:
    """Locations where the baseline erred beyond ``threshold_m`` (Fig. 8).

    The paper extracts "locations where the WiFi fingerprinting
    localization has errors over 6 m" — the fingerprint-twin spots — and
    re-examines both systems there.
    """
    if threshold_m <= 0:
        raise ValueError(f"threshold must be positive, got {threshold_m}")
    return {
        record.true_id
        for record in baseline_result.records
        if record.error_m > threshold_m
    }


@dataclass(frozen=True)
class ConvergenceStatistics:
    """Table I's row contents for one system and AP count.

    Attributes:
        mean_erroneous_localizations: Average number of erroneous fixes
            before the first accurate one (EL), over traces whose initial
            estimate was wrong.
        accuracy: Accuracy of fixes after the first accurate one.
        mean_error_m: Mean error of those subsequent fixes.
        max_error_m: Max error of those subsequent fixes.
        n_traces: How many erroneous-initial traces contributed.
    """

    mean_erroneous_localizations: float
    accuracy: float
    mean_error_m: float
    max_error_m: float
    n_traces: int


def convergence_statistics(result: EvaluationResult) -> ConvergenceStatistics:
    """Compute Table I's statistics from an evaluation result.

    Only traces with an erroneous *initial* estimate participate
    (Sec. VI-B4).  EL counts the erroneous fixes before the first accurate
    one; traces that never converge contribute their full length to EL and
    nothing to the post-convergence statistics.

    Raises:
        ValueError: if no trace had an erroneous initial estimate.
    """
    el_counts: List[int] = []
    subsequent: List[LocalizationRecord] = []
    n_traces = 0
    for trace in result.traces:
        if not trace.records or trace.initial_accurate:
            continue
        n_traces += 1
        first_accurate = next(
            (k for k, r in enumerate(trace.records) if r.is_accurate), None
        )
        if first_accurate is None:
            el_counts.append(len(trace.records))
            continue
        el_counts.append(first_accurate)
        subsequent.extend(trace.records[first_accurate:])

    if n_traces == 0:
        raise ValueError("no traces with erroneous initial estimates")
    if not subsequent:
        raise ValueError("no trace ever converged; statistics undefined")

    errors = np.array([r.error_m for r in subsequent])
    return ConvergenceStatistics(
        mean_erroneous_localizations=float(np.mean(el_counts)),
        accuracy=sum(r.is_accurate for r in subsequent) / len(subsequent),
        mean_error_m=float(errors.mean()),
        max_error_m=float(errors.max()),
        n_traces=n_traces,
    )
