"""MoLocService: the phone-side integration surface.

Everything below this module is a la carte (databases, matchers, step
counters); this facade is the piece an application actually embeds.  It
owns the per-user state a deployment needs — the body-derived step
length, the heading calibration, the retained candidate set — and turns
raw sensor streams into location fixes:

    service = MoLocService(fingerprint_db, motion_db, body=BodyProfile(1.75))
    service.calibrate_heading(calibration_segments)
    fix = service.on_interval(scan)                 # first fix: WiFi only
    fix = service.on_interval(scan, imu_segment)    # motion-assisted

Internally each interval runs the full paper pipeline: CSC step counting
and heading estimation (gyro-fused when the segment carries a gyro
stream) produce the motion measurement, which candidate evaluation
(Eq. 7) combines with the fingerprint candidates.

This facade assumes *clean* inputs and raises on contract violations.
For deployments that must survive dead APs, corrupt scans, flat-lined
IMUs, and stale calibrations, use
:class:`repro.robustness.ResilientMoLocService` — a drop-in subclass
that wraps the same pipeline in sanitization, watchdogs, and a
graceful-fallback chain, and annotates every fix with a
:class:`repro.robustness.HealthStatus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .core.config import MoLocConfig
from .core.fingerprint import Fingerprint, FingerprintDatabase
from .core.localizer import LocationEstimate, MoLocLocalizer
from .core.matching import Candidate
from .core.motion_db import MotionDatabase
from .motion.heading import estimate_placement_offset
from .motion.kalman_heading import fused_course_from_segment
from .motion.kernel import SegmentMotion, segment_motions
from .motion.pedestrian import BodyProfile
from .motion.rlm import MotionMeasurement
from .motion.stride import StepLengthEstimator
from .observability import MetricsRegistry
from .sensors.imu import ImuSegment

__all__ = [
    "MoLocService",
    "PreparedInterval",
    "PrecomputedInputs",
]


@dataclass
class PreparedInterval:
    """The per-session first half of one localization interval.

    Produced by :meth:`MoLocService.prepare_interval`; consumed by
    :meth:`MoLocService.complete_interval`.  Between the two phases the
    batched serving engine (:mod:`repro.serving`) runs fingerprint
    matching and Eq. 6 transition evaluation for *all* sessions at once.

    Attributes:
        fingerprint: The query to match this interval, or None when no
            matching should run (the robustness layer's coasting path).
        motion: The motion measurement candidate evaluation should use
            (already gated by serving mode), or None.
        active_aps: Per-AP mask for matching, or None.
        k: Candidate-set size override, or None for the configured k.
        beta_scale: Speed-adaptive offset-interval widening for this
            interval's transition scoring; None (always, unless the
            session runs speed-adaptive) means the fixed model.
        dwell: The speed estimator's explicit dwell verdict, or None.
    """

    fingerprint: Optional[Fingerprint]
    motion: Optional[MotionMeasurement]
    active_aps: Optional[Sequence[bool]] = None
    k: Optional[int] = None
    beta_scale: Optional[float] = None
    dwell: Optional[bool] = None


@dataclass
class PrecomputedInputs:
    """Optional shared-work results a batch engine hands to ``prepare``.

    Every field is the exact value the service would have computed
    itself; supplying one skips the per-session computation without
    changing behavior (the serving engine's memo caches are keyed on all
    inputs the computation reads).

    Attributes:
        imu_check: The ``ImuCheck`` named tuple ``(usable, faults,
            tripped)`` from the robustness layer's ``check_imu`` — pure
            in the segment.
        motion: ``(measurement, steps)`` from
            :meth:`MoLocService.extract_motion` — pure in the segment
            plus calibration/stride/fusion settings.  The inner
            measurement may itself be None only in the sense that a
            whole-tuple None means "extraction did not run"; an idle
            user yields a zero-offset measurement, not None.
    """

    imu_check: Optional[Tuple[bool, tuple, Optional[str]]] = None
    motion: Optional[Tuple[Optional[MotionMeasurement], Optional[float]]] = None


class MoLocService:
    """A running MoLoc session for one user.

    Args:
        fingerprint_db: The deployment's fingerprint database.
        motion_db: The deployment's motion database.
        body: The user's body profile; sets the step length used to
            convert step counts to offsets (paper ref. [25]).
        config: Algorithm configuration.
        use_gyro_fusion: Whether to fuse gyro streams into heading
            estimates when segments carry them.
        personalize_stride: Whether to refine the user's step length
            online from confident consecutive fixes whose hop distance
            the motion database knows.
        metrics: Registry receiving the session's metrics (a fresh one
            when omitted).  The serving engine aggregates these
            per-session registries in its ``metrics_snapshot``.
    """

    def __init__(
        self,
        fingerprint_db: FingerprintDatabase,
        motion_db: MotionDatabase,
        body: BodyProfile,
        config: MoLocConfig = MoLocConfig(),
        use_gyro_fusion: bool = True,
        personalize_stride: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._localizer = MoLocLocalizer(fingerprint_db, motion_db, config)
        self._motion_db = motion_db
        self._config = config
        self._stride = StepLengthEstimator(body.estimated_step_length_m)
        self._personalize_stride = personalize_stride
        self._speed = None
        if config.speed_adaptive:
            # Local import: repro.serving imports this module at load.
            from .serving.speed import SpeedEstimator

            self._speed = SpeedEstimator(config)
        self._placement_offset_deg: Optional[float] = None
        self._use_gyro_fusion = use_gyro_fusion
        self._fix_count = 0
        self._previous_fix: Optional[int] = None
        self._last_steps: Optional[float] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_fixes = self.metrics.counter("service.fixes")
        self._c_motion_fixes = self.metrics.counter("service.motion_fixes")
        self._c_stride_accepts = self.metrics.counter(
            "service.stride_accepts"
        )

    @property
    def fingerprint_db(self) -> FingerprintDatabase:
        """The fingerprint database in use."""
        return self._localizer.fingerprint_db

    @property
    def localizer(self) -> MoLocLocalizer:
        """The session's localizer (retained set, configuration).

        The batched serving engine reads the retained candidate set and
        the configured ``k`` from here between the prepare and complete
        phases of an interval.
        """
        return self._localizer

    @property
    def placement_offset_deg(self) -> Optional[float]:
        """The calibrated phone placement offset, or None before calibration."""
        return self._placement_offset_deg

    @property
    def motion_state_key(self) -> Tuple[Optional[float], float, bool]:
        """Everything :meth:`extract_motion` reads besides the segment.

        ``(placement offset, step length, gyro-fusion flag)`` — combined
        with the segment's identity this keys the serving engine's
        motion-extraction memo; two calls under the same key return the
        same measurement.
        """
        return (
            self._placement_offset_deg,
            self._stride.step_length_m,
            self._use_gyro_fusion,
        )

    @property
    def speed_estimator(self):
        """The session's :class:`~repro.serving.speed.SpeedEstimator`.

        None unless the configuration enables ``speed_adaptive``.
        """
        return self._speed

    @property
    def is_calibrated(self) -> bool:
        """Whether heading calibration has run."""
        return self._placement_offset_deg is not None

    @property
    def fix_count(self) -> int:
        """How many fixes this session has produced."""
        return self._fix_count

    @property
    def step_length_m(self) -> float:
        """The step length currently used for offset conversion."""
        return self._stride.step_length_m

    @property
    def stride_samples_accepted(self) -> int:
        """Accepted stride-personalization samples this session."""
        return self._stride.samples_accepted

    def calibrate_heading(
        self, calibration: Iterable[Tuple[Sequence[float], float]]
    ) -> float:
        """Estimate the phone placement offset (Zee-style).

        Args:
            calibration: Pairs of (raw compass readings over a straight
                stretch, reference course of that stretch) — in practice
                derived from map constraints on the first hops.

        Returns:
            The estimated offset in degrees.
        """
        self._placement_offset_deg = estimate_placement_offset(calibration)
        return self._placement_offset_deg

    def on_interval(
        self,
        scan: Sequence[float],
        imu: Optional[ImuSegment] = None,
    ) -> LocationEstimate:
        """Process one localization interval.

        Args:
            scan: The WiFi scan (per-AP dBm values, database AP order).
            imu: The IMU recording since the previous interval, or None
                for the session's first fix (or a sensor outage).

        Returns:
            The location estimate.

        Raises:
            RuntimeError: if motion is supplied before heading
                calibration has run.
        """
        return self.complete_interval(self.prepare_interval(scan, imu))

    def prepare_interval(
        self,
        scan: Sequence[float],
        imu: Optional[ImuSegment] = None,
        precomputed: Optional[PrecomputedInputs] = None,
    ) -> PreparedInterval:
        """Phase one of an interval: parse inputs and extract motion.

        Everything up to (but excluding) fingerprint matching — the part
        the batched serving engine runs per session before stacking all
        pending queries into one matrix.  Composed with
        :meth:`complete_interval` this is exactly :meth:`on_interval`.

        Args:
            scan: The WiFi scan (per-AP dBm values, database AP order).
            imu: The IMU recording since the previous interval, or None.
            precomputed: Optional shared-work results (see
                :class:`PrecomputedInputs`); only ``motion`` is consulted
                here.

        Raises:
            RuntimeError: if motion is supplied before heading
                calibration has run.
        """
        fingerprint = Fingerprint.from_values(scan)
        if imu is not None:
            if precomputed is not None and precomputed.motion is not None:
                motion, steps = precomputed.motion
                self._last_steps = steps
            else:
                motion = self._motion_from(imu)
        else:
            # Sensor outage (or first fix): without step counts for this
            # interval, the previous interval's _last_steps must not pair
            # with the upcoming hop in stride personalization.
            motion = None
            self._last_steps = None
        beta_scale, dwell = self._observe_speed(imu, motion)
        return PreparedInterval(
            fingerprint=fingerprint,
            motion=motion,
            beta_scale=beta_scale,
            dwell=dwell,
        )

    def _observe_speed(
        self, imu: Optional[ImuSegment], motion: Optional[MotionMeasurement]
    ) -> Tuple[Optional[float], Optional[bool]]:
        """Feed the speed estimator one interval; return its verdict.

        ``(None, None)`` — the fixed model — unless the session runs
        speed-adaptive and this interval carried motion.  The estimator
        consumes the step count ``prepare`` just recorded, so the
        batched (precomputed) and sequential paths feed it identical
        inputs.
        """
        if self._speed is None or imu is None or motion is None:
            return None, None
        self._speed.observe(
            self._last_steps, imu.duration_s, self._stride.step_length_m
        )
        return self._speed.beta_scale, self._speed.dwell

    def complete_interval(
        self,
        prepared: PreparedInterval,
        candidates: Optional[Sequence[Candidate]] = None,
        transition_probabilities: Optional[Sequence[float]] = None,
        estimate: Optional[LocationEstimate] = None,
    ) -> LocationEstimate:
        """Phase two of an interval: evaluate and update session state.

        Args:
            prepared: The matching :meth:`prepare_interval` result.
            candidates: Optional externally matched Eq. 4 candidate set
                (the batch matcher's output); when omitted, matching runs
                here via the localizer's :meth:`~repro.core.localizer.MoLocLocalizer.locate`.
            transition_probabilities: Optional precomputed Eq. 6 values,
                one per candidate; requires ``candidates``.
            estimate: Optional fully evaluated result for this interval
                (the engine's posterior cache); must be exactly what
                evaluation would have produced for this session's state.
                Takes precedence over ``candidates``.
        """
        if estimate is not None:
            self._localizer.adopt(estimate)
        elif candidates is None:
            estimate = self._localizer.locate(
                prepared.fingerprint,
                prepared.motion,
                active_aps=prepared.active_aps,
                k=prepared.k,
                beta_scale=prepared.beta_scale,
                dwell=prepared.dwell,
            )
        else:
            estimate = self._localizer.evaluate(
                candidates,
                prepared.motion,
                transition_probabilities,
                beta_scale=prepared.beta_scale,
                dwell=prepared.dwell,
            )
        self._fix_count += 1
        self._c_fixes.inc()
        if estimate.used_motion:
            self._c_motion_fixes.inc()
        if (
            self._personalize_stride
            and estimate.used_motion
            and self._last_steps is not None
            and self._previous_fix is not None
            and self._motion_db.has_pair(
                self._previous_fix, estimate.location_id
            )
        ):
            hop_distance = self._motion_db.entry(
                self._previous_fix, estimate.location_id
            ).offset_mean_m
            accepted_before = self._stride.samples_accepted
            self._stride.observe_hop(
                hop_distance, self._last_steps, estimate.probability
            )
            self._c_stride_accepts.inc(
                self._stride.samples_accepted - accepted_before
            )
        self._previous_fix = estimate.location_id
        return estimate

    def end_session(self) -> None:
        """Forget session state (candidates, calibration, fix count).

        The personalized step length is *kept* — it belongs to the user,
        not the session.
        """
        self._localizer.reset()
        self._placement_offset_deg = None
        self._fix_count = 0
        self._previous_fix = None
        self._last_steps = None
        if self._speed is not None:
            from .serving.speed import SpeedEstimator

            self._speed = SpeedEstimator(self._config)

    def state_dict(self) -> dict:
        """Everything a checkpoint needs to resume this session exactly.

        Covers the mutable session state that influences future fixes:
        the retained candidate set, heading calibration, stride
        personalization, and the stride-pairing bookkeeping.  Metrics
        registries are deliberately excluded — observability restarts
        fresh after a crash, the estimate stream does not.
        """
        state = {
            "kind": "moloc_session",
            "placement_offset_deg": self._placement_offset_deg,
            "fix_count": self._fix_count,
            "previous_fix": self._previous_fix,
            "last_steps": self._last_steps,
            "stride": self._stride.state_dict(),
            "localizer": self._localizer.state_dict(),
        }
        # Only speed-adaptive sessions carry a speed key, so checkpoints
        # of the paper configuration stay byte-stable.
        if self._speed is not None:
            state["speed"] = self._speed.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore session state captured by :meth:`state_dict`.

        The service must have been constructed against the same
        databases and configuration the checkpointed session used; the
        checkpoint carries state, not the deployment.
        """
        offset = state["placement_offset_deg"]
        self._placement_offset_deg = None if offset is None else float(offset)
        self._fix_count = int(state["fix_count"])
        previous = state["previous_fix"]
        self._previous_fix = None if previous is None else int(previous)
        steps = state["last_steps"]
        self._last_steps = None if steps is None else float(steps)
        self._stride.load_state_dict(state["stride"])
        self._localizer.load_state_dict(state["localizer"])
        if self._speed is not None:
            speed_state = state.get("speed")
            if speed_state is not None:
                self._speed.load_state_dict(speed_state)
            else:
                # A pre-gait checkpoint restored into a speed-adaptive
                # session: start the estimator fresh.
                from .serving.speed import SpeedEstimator

                self._speed = SpeedEstimator(self._config)

    def extract_motion(
        self, imu: ImuSegment, motion: Optional[SegmentMotion] = None
    ) -> Tuple[Optional[MotionMeasurement], Optional[float]]:
        """Pure motion extraction: ``(measurement, steps)`` for a segment.

        No session state is written, so the result is a function of the
        segment plus the current calibration, step length, and fusion
        flag — exactly the key the serving engine memoizes on when many
        sessions replay the same recorded segment.

        Args:
            imu: The segment.
            motion: The segment's row of
                :func:`~repro.motion.kernel.segment_motions`, when the
                caller computed it for a whole batch; computed here (a
                one-row call) otherwise.  Only the session-dependent
                part runs here: placement offset, stride, speed-adaptive
                rescaling and gyro fusion.

        Raises:
            RuntimeError: if heading calibration has not run.
        """
        if self._placement_offset_deg is None:
            raise RuntimeError(
                "heading calibration has not run; call calibrate_heading first"
            )
        if motion is None:
            motion = segment_motions([imu])[0]
        if not motion.steps.walking:
            # Standing still: an explicit zero-offset measurement lets the
            # localizer prefer the self-transition.
            return MotionMeasurement(direction_deg=0.0, offset_m=0.0), None
        steps = motion.steps.csc_steps
        if self._use_gyro_fusion and imu.gyro_rates_dps is not None:
            direction = fused_course_from_segment(imu, self._placement_offset_deg)
        else:
            direction = motion.course_deg(self._placement_offset_deg)
        step_length = self._stride.step_length_m
        if self._speed is not None and steps > 0 and imu.duration_s > 0:
            # Speed-adaptive sessions rescale the stride by the observed
            # cadence (linear stride-cadence model): a runner's steps are
            # longer than the calibrated walk stride, and the raw product
            # would understate every fast hop.  Pure in (segment, stride,
            # config), so the engine's extraction memo stays valid.
            from .serving.speed import adaptive_step_length_m

            step_length = adaptive_step_length_m(
                steps / imu.duration_s, step_length, self._config
            )
        measurement = MotionMeasurement(
            direction_deg=direction, offset_m=steps * step_length
        )
        return measurement, steps

    def _motion_from(
        self, imu: ImuSegment, motion: Optional[SegmentMotion] = None
    ) -> Optional[MotionMeasurement]:
        measurement, steps = self.extract_motion(imu, motion)
        self._last_steps = steps
        return measurement
