"""Crowdsourced trace generation (paper Sec. IV-B and VI-A).

Users walk random paths along the aisles; their phones scan WiFi at each
reference-location passage and record IMU streams in between.  This
module generates those walks against the simulated substrates and turns
them into the RLM observations the motion-database builder consumes.

Heading calibration: the paper relies on Zee's placement-independent
orientation estimation.  We reproduce its *outcome*: the first
``calibration_hops`` segments of each walk serve as the calibration
stretch — their reference courses are the map courses Zee would recover
from floor-plan constraints, perturbed by a small estimation error — and
the resulting placement-offset estimate is applied to the whole walk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from ..core.fingerprint import Fingerprint, FingerprintDatabase
from ..motion.heading import estimate_placement_offset
from ..motion.pedestrian import Pedestrian, random_walk_path
from ..motion.kernel import segment_motions
from ..motion.rlm import RlmObservation, measurement_from
from ..motion.trace import TraceHop, WalkTrace
from .gait import (
    GAIT_PROFILES,
    GaitScheduleSpec,
    draw_regimes,
    record_gait_hop,
    validate_gait_name,
)
from .scenario import Scenario

__all__ = ["TraceGenerationConfig", "generate_trace", "generate_traces", "observations_from_traces"]

_CALIBRATION_COURSE_ERROR_STD_DEG = 4.0
"""Residual error of Zee-style map-derived reference courses, degrees."""


@dataclass(frozen=True)
class TraceGenerationConfig:
    """Knobs for trace generation.

    Attributes:
        n_hops: Reference-location passages per walk (excluding the start).
        calibration_hops: Leading hops used for heading calibration.
        scan_time_jitter_s: Random delay between arriving at a location
            and the WiFi scan completing.
        gait: Fix every hop to one named gait regime (see
            :data:`repro.sim.gait.GAIT_PROFILES`).  None (the default)
            keeps the bitwise-unchanged paper walking model.
        gait_schedule: Draw per-hop regimes from a Markov
            regime-switching schedule instead of a fixed gait.
        user_gaits: Per-user gait names, assigned cyclically by user
            index in :func:`generate_traces` — the "diverse walking
            speed" wiring of :func:`repro.sim.scenario.build_scenario`.
    """

    n_hops: int = 15
    calibration_hops: int = 2
    scan_time_jitter_s: float = 0.5
    gait: Optional[str] = None
    gait_schedule: Optional[GaitScheduleSpec] = None
    user_gaits: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.n_hops < 1:
            raise ValueError(f"n_hops must be >= 1, got {self.n_hops}")
        if not 1 <= self.calibration_hops <= self.n_hops:
            raise ValueError(
                f"calibration_hops must be in [1, {self.n_hops}], "
                f"got {self.calibration_hops}"
            )
        if self.scan_time_jitter_s < 0:
            raise ValueError("scan_time_jitter_s must be non-negative")
        selectors = sum(
            1
            for selector in (self.gait, self.gait_schedule, self.user_gaits)
            if selector is not None
        )
        if selectors > 1:
            raise ValueError(
                "gait, gait_schedule, and user_gaits are mutually exclusive"
            )
        if self.gait is not None:
            validate_gait_name(self.gait)
        if self.user_gaits is not None:
            if not self.user_gaits:
                raise ValueError("user_gaits must name at least one gait")
            for name in self.user_gaits:
                validate_gait_name(name)

    @property
    def gait_active(self) -> bool:
        """Whether this config routes generation through the gait layer."""
        return self.gait is not None or self.gait_schedule is not None


def generate_trace(
    scenario: Scenario,
    user: Pedestrian,
    rng: np.random.Generator,
    config: TraceGenerationConfig = TraceGenerationConfig(),
    start_time_s: float = 0.0,
    start_id: Optional[int] = None,
) -> WalkTrace:
    """Simulate one walk by ``user`` through the scenario.

    The user picks a fresh grip (placement offset) for the walk; the
    heading calibration then estimates that offset from the leading hops.

    Args:
        scenario: The wired experimental setup.
        user: The walking pedestrian (its compass grip is re-drawn).
        rng: Generator for the path, sensors, and scan noise.
        config: Trace-generation knobs.
        start_time_s: Absolute time the walk begins (drives RSS drift).
        start_id: Optional fixed starting location.

    Returns:
        The recorded :class:`WalkTrace` with ground truth attached.
    """
    if config.gait_active:
        return _generate_gait_trace(
            scenario, user, rng, config, start_time_s, start_id
        )
    graph = scenario.graph
    plan = scenario.plan
    path = random_walk_path(graph, rng, config.n_hops, start_id=start_id)
    user.change_grip(rng)

    time_s = start_time_s
    initial_scan = scenario.environment.scan(
        plan.position_of(path[0]), time_s, rng
    )
    hops: List[TraceHop] = []
    calibration = []
    for hop_index, (i, j) in enumerate(zip(path, path[1:])):
        start_pos = plan.position_of(i)
        end_pos = plan.position_of(j)
        distance = graph.hop_distance(i, j)
        duration = user.hop_duration_s(distance)
        imu = user.imu.record_walk(
            start_pos, end_pos, duration, user.step_period_s, rng
        )
        time_s += duration + float(rng.uniform(0.0, config.scan_time_jitter_s))
        scan = scenario.environment.scan(end_pos, time_s, rng)
        hops.append(
            TraceHop(
                true_from=i,
                true_to=j,
                imu=imu,
                arrival_fingerprint=Fingerprint.from_values(scan),
            )
        )
        if hop_index < config.calibration_hops:
            reference_course = imu.true_course_deg + float(
                rng.normal(0.0, _CALIBRATION_COURSE_ERROR_STD_DEG)
            )
            calibration.append((imu.compass_readings, reference_course))

    offset_estimate = estimate_placement_offset(calibration)
    return WalkTrace(
        user=user.name,
        true_start=path[0],
        initial_fingerprint=Fingerprint.from_values(initial_scan),
        hops=hops,
        placement_offset_estimate_deg=offset_estimate,
        estimated_step_length_m=user.estimated_step_length_m,
    )


def _generate_gait_trace(
    scenario: Scenario,
    user: Pedestrian,
    rng: np.random.Generator,
    config: TraceGenerationConfig,
    start_time_s: float,
    start_id: Optional[int],
) -> WalkTrace:
    """Gait-aware walk generation: regime-labeled hops with true speed.

    Standing-dwell regimes hold position as self-hops (the walkable
    graph is not consumed); moving regimes advance the no-backtrack
    random walk.  The leading ``calibration_hops`` are forced to a
    stepped gait — heading calibration needs movement — using ``walk``
    when the scheduled regime does not step.
    """
    graph = scenario.graph
    plan = scenario.plan
    if config.gait is not None:
        regimes = [config.gait] * config.n_hops
    else:
        regimes = draw_regimes(config.gait_schedule, rng, config.n_hops)
    for index in range(config.calibration_hops):
        if not GAIT_PROFILES[regimes[index]].stepped:
            regimes[index] = "walk"
    user.change_grip(rng)

    nodes = graph.node_ids
    if start_id is None:
        current = int(nodes[rng.integers(len(nodes))])
    elif start_id not in nodes:
        raise ValueError(f"unknown start location {start_id}")
    else:
        current = start_id
    true_start = current

    time_s = start_time_s
    initial_scan = scenario.environment.scan(
        plan.position_of(current), time_s, rng
    )
    hops: List[TraceHop] = []
    calibration = []
    previous_node: Optional[int] = None
    last_course = 0.0
    for hop_index, regime in enumerate(regimes):
        profile = GAIT_PROFILES[regime]
        if profile.moving:
            neighbors = graph.neighbors(current)
            if not neighbors:
                raise ValueError(
                    f"location {current} has no walkable neighbors"
                )
            choices = [n for n in neighbors if n != previous_node] or neighbors
            previous_node = current
            next_node = int(choices[rng.integers(len(choices))])
        else:
            next_node = current
        imu, duration, true_speed = record_gait_hop(
            user,
            profile,
            plan.position_of(current),
            plan.position_of(next_node),
            rng,
            previous_course_deg=last_course,
        )
        if profile.moving:
            last_course = imu.true_course_deg
        time_s += duration + float(rng.uniform(0.0, config.scan_time_jitter_s))
        scan = scenario.environment.scan(plan.position_of(next_node), time_s, rng)
        hops.append(
            TraceHop(
                true_from=current,
                true_to=next_node,
                imu=imu,
                arrival_fingerprint=Fingerprint.from_values(scan),
                regime=regime,
                true_speed_mps=true_speed,
            )
        )
        if hop_index < config.calibration_hops:
            reference_course = imu.true_course_deg + float(
                rng.normal(0.0, _CALIBRATION_COURSE_ERROR_STD_DEG)
            )
            calibration.append((imu.compass_readings, reference_course))
        current = next_node

    offset_estimate = estimate_placement_offset(calibration)
    return WalkTrace(
        user=user.name,
        true_start=true_start,
        initial_fingerprint=Fingerprint.from_values(initial_scan),
        hops=hops,
        placement_offset_estimate_deg=offset_estimate,
        estimated_step_length_m=user.estimated_step_length_m,
    )


def generate_traces(
    scenario: Scenario,
    n_traces: int,
    rng: np.random.Generator,
    config: TraceGenerationConfig = TraceGenerationConfig(),
    start_time_s: float = 0.0,
    trace_spacing_s: float = 120.0,
) -> List[WalkTrace]:
    """Generate ``n_traces`` walks, cycling through the scenario's users.

    Walks start at staggered absolute times so temporal RSS drift varies
    across the data set, as it did over the paper's half-hour sessions.

    With ``config.user_gaits`` set, each user is assigned a fixed gait
    cyclically by user index, so the population's walking speeds really
    are diverse (the :func:`repro.sim.scenario.build_scenario` claim).
    """
    if n_traces < 1:
        raise ValueError(f"n_traces must be >= 1, got {n_traces}")
    traces = []
    for index in range(n_traces):
        user_index = index % len(scenario.users)
        user = scenario.users[user_index]
        trace_config = config
        if config.user_gaits is not None:
            trace_config = dataclasses.replace(
                config,
                gait=config.user_gaits[user_index % len(config.user_gaits)],
                user_gaits=None,
            )
        traces.append(
            generate_trace(
                scenario,
                user,
                rng,
                config=trace_config,
                start_time_s=start_time_s + index * trace_spacing_s,
            )
        )
    return traces


def observations_from_traces(
    traces: Sequence[WalkTrace],
    fingerprint_db: FingerprintDatabase,
    counting: Literal["csc", "dsc"] = "csc",
) -> List[RlmObservation]:
    """Derive RLM observations from traces, as the DB-construction phase does.

    Both endpoints of every hop are *estimated* by plain fingerprinting
    (Eq. 2) against ``fingerprint_db`` — crowdsourcing users carry no
    ground truth — and the motion measurement is extracted from the IMU
    recording with the trace's calibrated placement offset and the user's
    estimated step length.

    Query fingerprints are truncated to the database's AP count, so the
    same traces can train motion databases for 4-, 5-, and 6-AP setups.
    """
    n_aps = fingerprint_db.n_aps

    def query(fingerprint: Fingerprint) -> Fingerprint:
        if fingerprint.n_aps > n_aps:
            return fingerprint.truncated(n_aps)
        return fingerprint

    # Every endpoint estimate in one nearest_many call, every motion in
    # one kernel call: per trace, its initial fingerprint then one
    # arrival fingerprint per hop.
    estimates = iter(
        fingerprint_db.nearest_many(
            [
                query(fingerprint)
                for trace in traces
                for fingerprint in [trace.initial_fingerprint]
                + [hop.arrival_fingerprint for hop in trace.hops]
            ]
        )
    )
    motions = iter(
        segment_motions([hop.imu for trace in traces for hop in trace.hops])
    )
    observations = []
    for trace in traces:
        previous_estimate = next(estimates)
        for _ in trace.hops:
            arrival_estimate = next(estimates)
            measurement = measurement_from(
                next(motions),
                step_length_m=trace.estimated_step_length_m,
                placement_offset_deg=trace.placement_offset_estimate_deg,
                counting=counting,
            )
            observations.append(
                RlmObservation(
                    start_id=previous_estimate,
                    end_id=arrival_estimate,
                    measurement=measurement,
                )
            )
            previous_estimate = arrival_estimate
    return observations
