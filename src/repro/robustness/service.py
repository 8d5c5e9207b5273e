"""ResilientMoLocService: the degradation-aware serving facade.

A drop-in replacement for :class:`~repro.service.MoLocService` that runs
the same paper pipeline behind a fault barrier:

* every scan passes the :class:`~repro.robustness.sanitizer.ScanSanitizer`
  (non-finite/out-of-range repair, dead-AP masking, scan-loss detection);
* every IMU segment passes :func:`~repro.robustness.sanitizer.check_imu`
  (flat-lined streams are a dropout, not "standing still");
* every fix is judged by the
  :class:`~repro.robustness.watchdog.DivergenceWatchdog`, which widens
  the candidate set or resets the session on sustained implausibility;
* heading residuals feed the
  :class:`~repro.robustness.calibration.CalibrationMonitor`, which
  re-runs Zee-style calibration when the placement offset goes stale;
* whatever evidence survives picks a rung of the fallback chain
  (motion-assisted → WiFi-only → dead-reckoning coasting), so *every*
  interval yields a fix.

Where the plain service raises (motion before calibration) or silently
degrades (a dead AP poisoning every dissimilarity), this one serves — and
says how, through the :class:`~repro.robustness.health.HealthStatus` on
each returned :class:`~repro.robustness.health.ResilientFix`.

    service = ResilientMoLocService(fdb, mdb, body=BodyProfile(1.75), plan=plan)
    service.calibrate_heading(calibration_segments)
    fix = service.on_interval(scan, imu_segment)
    fix.location_id            # the estimate, always present
    fix.health.mode            # which rung served it
    fix.health.faults          # what was detected and handled
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.config import MoLocConfig
from ..core.fingerprint import FingerprintDatabase
from ..core.matching import Candidate
from ..core.motion_db import MotionDatabase
from ..env.floorplan import FloorPlan
from ..motion.kernel import SegmentMotion, segment_motions
from ..motion.pedestrian import BodyProfile
from ..motion.rlm import MotionMeasurement
from ..observability import MetricsRegistry
from ..sensors.imu import ImuSegment
from ..service import MoLocService, PrecomputedInputs, PreparedInterval
from .calibration import CalibrationMonitor
from .fallback import choose_mode, coast
from .health import FaultType, HealthStatus, ResilientFix, ServingMode
from .sanitizer import SanitizedScan, ScanSanitizer, check_imu
from .trust import ApTrustMonitor
from .watchdog import DivergenceWatchdog, WatchdogAction

__all__ = ["ResilientMoLocService", "ResilientPreparedInterval"]

# Counter names per serving mode and fault, formatted once: binding a
# session to a registry is then one dict probe per counter.
_MODE_COUNTER_NAMES = tuple(
    (mode, f"service.fixes_by_mode.{mode.value}") for mode in ServingMode
)
_FAULT_COUNTER_NAMES = tuple(
    (fault, f"service.faults.{fault.value}") for fault in FaultType
)


@dataclass
class ResilientPreparedInterval(PreparedInterval):
    """Phase-one result of a resilient interval.

    Extends :class:`~repro.service.PreparedInterval` with the fault
    triage that phase two (and the health status) needs.  The inherited
    ``fingerprint``/``motion``/``active_aps``/``k`` fields are already
    gated by the chosen serving mode: ``fingerprint`` is None when the
    interval must coast, ``motion`` is None unless the mode is
    motion-assisted.

    Attributes:
        mode: The fallback-chain rung chosen for this interval.
        faults: Faults detected during triage, in detection order.
        sanitized: The scan-sanitizer result.
        measurement: The raw motion measurement (ungated by mode) — the
            coasting path consumes it even when ``motion`` is None.
        previous_fix: The previous fix at prepare time (stride pairing).
        imu: The segment as received (calibration monitor input).
        trust_masked: APs the trust monitor quarantined out of this
            interval's matching (empty when the defense is off or
            nothing is benched).
    """

    mode: ServingMode = ServingMode.WIFI_ONLY
    faults: List[FaultType] = field(default_factory=list)
    sanitized: Optional[SanitizedScan] = None
    measurement: Optional[MotionMeasurement] = None
    previous_fix: Optional[int] = None
    imu: Optional[ImuSegment] = None
    trust_masked: Tuple[int, ...] = ()


class ResilientMoLocService(MoLocService):
    """A MoLoc session that survives degraded inputs.

    Args:
        fingerprint_db: The deployment's fingerprint database.
        motion_db: The deployment's motion database.
        body: The user's body profile (step-length prior).
        config: Algorithm configuration.
        plan: Optional floor plan; sharpens the divergence watchdog's
            fix-pair distances from reachability to exact coordinates.
        use_gyro_fusion: As in :class:`~repro.service.MoLocService`.
        personalize_stride: As in :class:`~repro.service.MoLocService`.
        sanitizer: Scan sanitizer override (defaults to one sized for
            the fingerprint database).
        watchdog: Divergence watchdog override.
        calibration_monitor: Calibration monitor override.
        trust: Optional :class:`~repro.robustness.trust.ApTrustMonitor`
            enabling the adversarial defense: quarantined APs are
            masked out of matching through the same ``active_aps``
            plumbing as dead-AP masking, a majority-untrusted scan is
            treated as WiFi loss, and every anchored fix feeds
            observed-vs-expected residuals back to the monitor.  Off
            (None) by default: with no monitor the serving path is
            bit-for-bit the pre-trust one.

    This subclass also counts fixes by mode, faults by type, sanitizer
    masks, watchdog trips, recalibrations and trust events.
    """

    def __init__(
        self,
        fingerprint_db: FingerprintDatabase,
        motion_db: MotionDatabase,
        body: BodyProfile,
        config: MoLocConfig = MoLocConfig(),
        plan: Optional[FloorPlan] = None,
        use_gyro_fusion: bool = True,
        personalize_stride: bool = False,
        sanitizer: Optional[ScanSanitizer] = None,
        watchdog: Optional[DivergenceWatchdog] = None,
        calibration_monitor: Optional[CalibrationMonitor] = None,
        trust: Optional[ApTrustMonitor] = None,
    ) -> None:
        super().__init__(
            fingerprint_db,
            motion_db,
            body,
            config=config,
            use_gyro_fusion=use_gyro_fusion,
            personalize_stride=personalize_stride,
        )
        self._config = config
        self._sanitizer = sanitizer or ScanSanitizer(fingerprint_db.n_aps)
        self._watchdog = watchdog or DivergenceWatchdog(motion_db, plan)
        self._calibration_monitor = calibration_monitor or CalibrationMonitor(
            motion_db
        )
        self._trust = trust
        self._widen_next = False
        self._last_health: Optional[HealthStatus] = None
        self._previous_wifi_best: Optional[int] = None
        self._coasting_streak = 0

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        counter = registry.counter
        self._c_masks = counter("service.sanitizer_masks")
        self._c_trust_masked = counter("service.trust.masked_intervals")
        self._c_trust_demotions = counter("service.trust.scan_demotions")
        self._c_trust_repairs = counter("service.trust.repairs")
        self._c_trust_quarantines = counter("service.trust.quarantines")
        self._c_trust_paroles = counter("service.trust.paroles")
        self._c_widen = counter("service.watchdog.widen_trips")
        self._c_reset = counter("service.watchdog.reset_trips")
        self._c_recalibrations = counter("service.recalibrations")
        # Pre-resolved so the per-fix path is a dict lookup, not a
        # name-format + registry probe.
        self._mode_counters = {
            mode: counter(name) for mode, name in _MODE_COUNTER_NAMES
        }
        self._fault_counters = {
            fault: counter(name) for fault, name in _FAULT_COUNTER_NAMES
        }

    @property
    def last_health(self) -> Optional[HealthStatus]:
        """The health status of the most recent fix, if any."""
        return self._last_health

    @property
    def trust(self) -> Optional[ApTrustMonitor]:
        """The AP trust monitor, when the adversarial defense is on."""
        return self._trust

    @property
    def coasting_streak(self) -> int:
        """Consecutive dead-reckoning fixes up to the latest one."""
        return self._coasting_streak

    def calibrate_heading(self, calibration) -> float:
        offset = super().calibrate_heading(calibration)
        # A fresh offset must be judged on fresh hops.
        self._calibration_monitor.reset()
        return offset

    def end_session(self) -> None:
        super().end_session()
        self._sanitizer.reset()
        self._watchdog.reset()
        self._calibration_monitor.reset()
        if self._trust is not None:
            self._trust.reset()
        self._widen_next = False
        self._last_health = None
        self._previous_wifi_best = None
        self._coasting_streak = 0

    def state_dict(self) -> dict:
        """Session state including the robustness layer's rolling state.

        Extends :meth:`repro.service.MoLocService.state_dict` with the
        sanitizer's per-AP counters, the watchdog's confidence, the
        calibration monitor's residual window, and the fallback-chain
        bookkeeping.  ``last_health`` is *not* checkpointed: it
        describes the previous fix, never influences the next one, and
        a restored session reports health again from its first served
        interval.
        """
        state = super().state_dict()
        state["kind"] = "resilient_moloc_session"
        state["sanitizer"] = self._sanitizer.state_dict()
        state["watchdog"] = self._watchdog.state_dict()
        state["calibration_monitor"] = self._calibration_monitor.state_dict()
        state["widen_next"] = self._widen_next
        state["previous_wifi_best"] = self._previous_wifi_best
        state["coasting_streak"] = self._coasting_streak
        # The trust key appears only when the defense is on, so
        # checkpoints of trust-less sessions are unchanged documents.
        if self._trust is not None:
            state["trust"] = self._trust.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore session state captured by :meth:`state_dict`."""
        super().load_state_dict(state)
        self._sanitizer.load_state_dict(state["sanitizer"])
        self._watchdog.load_state_dict(state["watchdog"])
        self._calibration_monitor.load_state_dict(
            state["calibration_monitor"]
        )
        self._widen_next = bool(state["widen_next"])
        best = state["previous_wifi_best"]
        self._previous_wifi_best = None if best is None else int(best)
        self._coasting_streak = int(state["coasting_streak"])
        if self._trust is not None:
            trust_state = state.get("trust")
            if trust_state is not None:
                self._trust.load_state_dict(trust_state)
            else:
                # A pre-trust checkpoint restored into a defended
                # session: start the monitor from scratch.
                self._trust.reset()
        self._last_health = None

    def on_interval(
        self,
        scan: Optional[Sequence[float]],
        imu: Optional[ImuSegment] = None,
    ) -> ResilientFix:
        """Process one localization interval, whatever arrived.

        Unlike the base service this never raises on degraded input: a
        missing or corrupt scan coasts, a missing/flat IMU serves
        WiFi-only, motion before calibration serves WiFi-only with an
        ``UNCALIBRATED`` fault instead of a RuntimeError.

        Args:
            scan: The WiFi scan (per-AP dBm values), or None if none
                arrived this interval.
            imu: The IMU recording since the previous interval, or None.

        Returns:
            A fix with its health status — one per interval, always.
        """
        return self.complete_interval(self.prepare_interval(scan, imu))

    def prepare_interval(
        self,
        scan: Optional[Sequence[float]],
        imu: Optional[ImuSegment] = None,
        precomputed: Optional[PrecomputedInputs] = None,
    ) -> ResilientPreparedInterval:
        """Phase one: triage inputs and choose the serving mode.

        Runs sanitization, IMU checking, mode selection, and motion
        extraction — everything up to (but excluding) fingerprint
        matching.  Composed with :meth:`complete_interval` this is
        exactly :meth:`on_interval`; the batched serving engine calls it
        per session, then matches all prepared fingerprints at once.

        Args:
            scan: The WiFi scan, or None if none arrived.
            imu: The IMU recording since the previous interval, or None.
            precomputed: Optional shared-work results (see
                :class:`~repro.service.PrecomputedInputs`).
        """
        faults: List[FaultType] = []

        # Sanitization is never precomputed: the sanitizer's rolling
        # per-AP counters are session state, so its result is not a pure
        # function of the scan.
        sanitized = self._sanitizer.sanitize(scan)
        faults.extend(sanitized.faults)

        # The trust layer's verdict on the surviving scan: quarantined
        # APs leave the match through the same active_aps plumbing as
        # dead ones, and a majority-untrusted scan is demoted to WiFi
        # loss — a poisoned posterior is worse than a coasted one.
        scan_usable = sanitized.usable
        active_aps = sanitized.active_aps
        trust_masked: Tuple[int, ...] = ()
        if self._trust is not None and sanitized.usable:
            benched = tuple(
                i
                for i in self._trust.quarantined_ap_ids
                if active_aps[i]
            )
            if benched:
                trust_masked = benched
                faults.append(FaultType.ROGUE_AP_MASKED)
                self._c_trust_masked.inc()
                combined = tuple(
                    alive and i not in benched
                    for i, alive in enumerate(active_aps)
                )
                if (
                    2 * len(benched) > self._trust.n_aps
                    or sum(combined) < self._trust.min_trusted_aps
                ):
                    scan_usable = False
                    faults.append(FaultType.SCAN_LOSS)
                    self._c_trust_demotions.inc()
                else:
                    active_aps = combined

        motion: Optional[SegmentMotion] = None
        if imu is None:
            imu_usable = False
            if self._fix_count > 0:
                # Mid-session the IMU should be streaming; its absence is
                # an outage.  Before the first fix it is simply not
                # expected yet.
                faults.append(FaultType.IMU_DROPOUT)
        else:
            if precomputed is not None and precomputed.imu_check is not None:
                imu_check = precomputed.imu_check
            else:
                # One kernel row serves both the check and the extraction.
                motion = segment_motions([imu])[0]
                imu_check = check_imu(imu, motion)
            imu_usable = imu_check[0]
            faults.extend(imu_check[1])

        calibrated = self.is_calibrated
        if imu_usable and not calibrated:
            faults.append(FaultType.UNCALIBRATED)

        mode = choose_mode(scan_usable, imu_usable, calibrated)

        measurement: Optional[MotionMeasurement] = None
        if imu_usable and calibrated:
            if precomputed is not None and precomputed.motion is not None:
                measurement, steps = precomputed.motion
                self._last_steps = steps
            else:
                measurement = self._motion_from(imu, motion)
        else:
            # Satellite-fix semantics: without step counts this interval,
            # stride personalization must not pair the upcoming hop with a
            # previous interval's count.
            self._last_steps = None

        # The speed estimator observes whenever motion was extracted —
        # even on a coasting interval — so its estimate stays warm; its
        # verdict only steers scoring on motion-assisted intervals (the
        # coast path stays on the legacy model in both serving paths).
        beta_scale, dwell = self._observe_speed(
            imu if measurement is not None else None, measurement
        )
        if mode is not ServingMode.MOTION_ASSISTED:
            beta_scale, dwell = None, None

        coasting = mode is ServingMode.DEAD_RECKONING
        return ResilientPreparedInterval(
            fingerprint=None if coasting else sanitized.fingerprint,
            motion=(
                measurement if mode is ServingMode.MOTION_ASSISTED else None
            ),
            beta_scale=beta_scale,
            dwell=dwell,
            active_aps=(
                active_aps
                if not coasting
                and (sanitized.masked_ap_ids or trust_masked)
                else None
            ),
            k=(
                self._config.k * self._watchdog.widen_factor
                if not coasting and self._widen_next
                else None
            ),
            mode=mode,
            faults=faults,
            sanitized=sanitized,
            measurement=measurement,
            previous_fix=self._previous_fix,
            imu=imu,
            trust_masked=trust_masked,
        )

    def complete_interval(
        self,
        prepared: PreparedInterval,
        candidates: Optional[Sequence[Candidate]] = None,
        transition_probabilities: Optional[Sequence[float]] = None,
        estimate=None,
    ) -> ResilientFix:
        """Phase two: produce the fix and run the post-fix machinery.

        Args:
            prepared: The matching :meth:`prepare_interval` result.
            candidates: Optional externally matched Eq. 4 candidate set;
                ignored on a coasting interval (there is no matching to
                replace), otherwise as in
                :meth:`~repro.service.MoLocService.complete_interval`.
            transition_probabilities: Optional precomputed Eq. 6 values,
                one per candidate.
            estimate: Optional fully evaluated result (the engine's
                posterior cache); invalid on a coasting interval.
        """
        if not isinstance(prepared, ResilientPreparedInterval):
            raise TypeError(
                "complete_interval needs the ResilientPreparedInterval "
                "produced by this service's prepare_interval"
            )
        mode = prepared.mode
        faults = list(prepared.faults)
        sanitized = prepared.sanitized
        measurement = prepared.measurement
        previous_fix = prepared.previous_fix

        # Snapshot the prior so a trust repair can replay this interval's
        # match from the exact same retained set (trust-off sessions skip
        # even the copy).
        repair_armed = (
            self._trust is not None
            and mode is not ServingMode.DEAD_RECKONING
            and sanitized.usable
        )
        prior = self._localizer.retained_candidates if repair_armed else None

        if mode is ServingMode.DEAD_RECKONING:
            if estimate is not None:
                raise ValueError(
                    "a coasting interval cannot adopt a cached estimate"
                )
            estimate = self._coast(measurement)
        elif estimate is not None:
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

        # Same-interval repair: one AP lying egregiously about *this*
        # fix does not get to keep it.  The interval is re-matched from
        # the snapshotted prior with the liar masked; the hysteresis
        # quarantine below handles subtler, persistent attacks.
        repaired_ap: Optional[int] = None
        if repair_armed:
            match_mask = prepared.active_aps
            suspect = self._trust.attributable_suspect(
                sanitized.fingerprint.rss,
                self.fingerprint_db.fingerprint_of(estimate.location_id).rss,
                match_mask,
            )
            if suspect is not None:
                combined = tuple(
                    (match_mask is None or match_mask[i]) and i != suspect
                    for i in range(self._trust.n_aps)
                )
                if sum(combined) >= self._trust.min_trusted_aps:
                    if prior is None:
                        self._localizer.reset()
                    else:
                        self._localizer.seed_candidates(prior)
                    estimate = self._localizer.locate(
                        prepared.fingerprint,
                        prepared.motion,
                        active_aps=combined,
                        k=prepared.k,
                        beta_scale=prepared.beta_scale,
                        dwell=prepared.dwell,
                    )
                    repaired_ap = suspect
                    faults.append(FaultType.ROGUE_AP_MASKED)
                    self._c_trust_repairs.inc()

        self._fix_count += 1
        self._c_fixes.inc()
        if estimate.used_motion:
            self._c_motion_fixes.inc()
        self._mode_counters[mode].inc()
        self._c_masks.inc(len(sanitized.masked_ap_ids))
        if mode is ServingMode.DEAD_RECKONING:
            self._coasting_streak += 1
        else:
            self._coasting_streak = 0

        # Stride personalization, as in the base service, but only when a
        # real scan anchored the fix.
        if (
            self._personalize_stride
            and sanitized.usable
            and estimate.used_motion
            and self._last_steps is not None
            and previous_fix is not None
            and self._motion_db.has_pair(previous_fix, estimate.location_id)
        ):
            hop_distance = self._motion_db.entry(
                previous_fix, estimate.location_id
            ).offset_mean_m
            accepted_before = self._stride.samples_accepted
            self._stride.observe_hop(
                hop_distance, self._last_steps, estimate.probability
            )
            self._c_stride_accepts.inc(
                self._stride.samples_accepted - accepted_before
            )

        verdict = self._watchdog.observe(
            estimate.location_id,
            measurement.offset_m if measurement is not None else None,
        )
        if not verdict.plausible:
            faults.append(FaultType.DIVERGENCE)
        self._widen_next = verdict.action is WatchdogAction.WIDEN
        if verdict.action is WatchdogAction.WIDEN:
            self._c_widen.inc()
        elif verdict.action is WatchdogAction.RESET:
            self._c_reset.inc()
        if verdict.action is WatchdogAction.RESET:
            self._localizer.reset()
            self._previous_fix = None
        else:
            self._previous_fix = estimate.location_id

        # The calibration monitor anchors on the fingerprint-best
        # candidate, not the posterior fix: a stale heading drags the
        # posterior to wrong-but-motion-consistent neighbors, hiding the
        # very drift being hunted.
        recalibrated = False
        wifi_best: Optional[int] = None
        if sanitized.usable:
            wifi_best = max(
                estimate.candidates, key=lambda c: c.fingerprint_probability
            ).location_id
            if (
                mode is ServingMode.MOTION_ASSISTED
                and measurement is not None
                and measurement.offset_m > 0.0
            ):
                self._calibration_monitor.observe(
                    self._previous_wifi_best,
                    wifi_best,
                    measurement.direction_deg,
                    prepared.imu.compass_readings,
                )
                if self._calibration_monitor.drift_detected:
                    faults.append(FaultType.CALIBRATION_DRIFT)
                    self._placement_offset_deg = (
                        self._calibration_monitor.recalibrate()
                    )
                    recalibrated = True
        self._previous_wifi_best = wifi_best

        if recalibrated:
            self._c_recalibrations.inc()

        # Residual feedback: the scan as received vs. the database's
        # expectation at the fix.  Quarantined APs stay observed — their
        # readings no longer move the estimate, so a persistently clean
        # residual is exactly the parole evidence the hysteresis needs.
        if self._trust is not None and sanitized.usable:
            transition = self._trust.observe(
                sanitized.fingerprint.rss,
                self.fingerprint_db.fingerprint_of(estimate.location_id).rss,
                sanitized.active_aps,
            )
            self._c_trust_quarantines.inc(len(transition.newly_quarantined))
            self._c_trust_paroles.inc(len(transition.newly_paroled))

        health = HealthStatus(
            mode=mode,
            faults=tuple(dict.fromkeys(faults)),
            confidence=verdict.confidence,
            masked_ap_ids=(
                sanitized.masked_ap_ids
                + prepared.trust_masked
                + (() if repaired_ap is None else (repaired_ap,))
            ),
            recalibrated=recalibrated,
        )
        for fault in health.faults:
            self._fault_counters[fault].inc()
        self._last_health = health
        return ResilientFix(estimate=estimate, health=health)

    def _coast(self, measurement: Optional[MotionMeasurement]):
        """A scan-less fix from retained candidates (or a cold uniform)."""
        retained = self._localizer.retained_candidates
        if not retained and self._previous_fix is not None:
            retained = [(self._previous_fix, 1.0)]
        if not retained:
            # Nothing known at all (first interval and no scan): a
            # uniform prior over the deployment is the honest answer.
            ids = self._localizer.fingerprint_db.location_ids
            retained = [(lid, 1.0 / len(ids)) for lid in ids]
        estimate = coast(self._motion_db, retained, measurement, self._config)
        # The coasted distribution becomes the prior for the next
        # scan-based interval.
        self._localizer.seed_candidates(
            [(c.location_id, c.probability) for c in estimate.candidates]
        )
        return estimate
