"""The health contract every degradation-aware fix carries.

A production localization fix is only as useful as the caller's ability
to judge it: an application routing a wheelchair needs to know that the
last three fixes were dead-reckoned through a WiFi blackout, and a fleet
dashboard needs per-fault counters.  :class:`HealthStatus` makes the
serving path's self-diagnosis explicit — which mode produced the fix,
which faults were detected this interval, how confident the divergence
watchdog currently is — and :class:`ResilientFix` pairs it with the
estimate while staying duck-type compatible with
:class:`~repro.core.localizer.LocationEstimate` (``location_id``,
``probability``, ``used_motion``, ``candidates``), so existing evaluation
code scores resilient fixes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from ..core.localizer import EvaluatedCandidate, LocationEstimate

__all__ = ["ServingMode", "FaultType", "HealthStatus", "ResilientFix"]


class ServingMode(Enum):
    """Which rung of the fallback chain produced a fix."""

    MOTION_ASSISTED = "motion-assisted"
    """The full paper pipeline: fingerprint candidates fused with motion."""

    WIFI_ONLY = "wifi-only"
    """Fingerprint evidence only — the IMU was absent, dead, or
    uncalibrated this interval."""

    DEAD_RECKONING = "dead-reckoning"
    """No usable scan: the fix coasts from the retained candidates
    through the motion database (or holds position outright)."""


class FaultType(Enum):
    """One detected fault class; a fix may carry several."""

    MALFORMED_SCAN = "malformed-scan"
    """Scan vector empty or of the wrong length for the database."""

    NON_FINITE_SCAN = "non-finite-scan"
    """NaN/inf readings, normalized to the sensitivity floor."""

    OUT_OF_RANGE_SCAN = "out-of-range-scan"
    """Readings outside physical dBm bounds, clipped."""

    DEAD_AP = "dead-ap"
    """One or more APs persistently at the floor; masked out of matching."""

    SCAN_LOSS = "scan-loss"
    """The whole scan unusable (radio heard nothing); fix coasts."""

    IMU_DROPOUT = "imu-dropout"
    """IMU stream missing or physically impossible (flat-lined sensor)."""

    UNCALIBRATED = "uncalibrated"
    """Motion supplied before heading calibration; served WiFi-only
    instead of raising."""

    CALIBRATION_DRIFT = "calibration-drift"
    """Sustained heading residuals against motion-database edge
    directions: the placement offset is stale (e.g. a grip shift)."""

    DIVERGENCE = "divergence"
    """Consecutive fixes farther apart than the measured motion plus
    reachability allows."""

    DEADLINE_SHED = "deadline-shed"
    """Admission control shed this interval to the WiFi-only fast path:
    the tick's time budget was exhausted before its motion evidence could
    be evaluated."""

    ROGUE_AP_MASKED = "rogue-ap-masked"
    """One or more APs quarantined by the trust monitor (sustained
    observed-vs-expected RSS residuals) and excluded from matching this
    interval; when a majority of the scan is untrusted, the whole scan
    is treated as lost instead."""

    IMU_SPOOF = "imu-spoof"
    """Compass stream physically implausible (heading whipping faster
    than a pedestrian can turn): the segment is vetoed as spoofed, not
    merely dropped out."""


@dataclass(frozen=True)
class HealthStatus:
    """The serving path's self-diagnosis for one fix.

    Attributes:
        mode: The fallback rung that produced the fix.
        faults: Faults detected this interval (deduplicated, stable order).
        confidence: The divergence watchdog's EWMA plausibility score in
            ``[0, 1]``; 1.0 means every recent hop was physically
            consistent.
        masked_ap_ids: APs excluded from fingerprint matching this
            interval.
        recalibrated: Whether the calibration monitor re-ran Zee-style
            placement-offset estimation during this interval.
    """

    mode: ServingMode
    faults: Tuple[FaultType, ...] = ()
    confidence: float = 1.0
    masked_ap_ids: Tuple[int, ...] = ()
    recalibrated: bool = False

    def has_fault(self, fault: FaultType) -> bool:
        """Whether a specific fault class was detected this interval."""
        return fault in self.faults


@dataclass(frozen=True)
class ResilientFix:
    """A location fix plus the health status that qualifies it.

    Duck-type compatible with
    :class:`~repro.core.localizer.LocationEstimate` so evaluation
    utilities accept either.
    """

    estimate: LocationEstimate
    health: HealthStatus

    @property
    def location_id(self) -> int:
        """The estimated reference location."""
        return self.estimate.location_id

    @property
    def probability(self) -> float:
        """The estimate's probability."""
        return self.estimate.probability

    @property
    def used_motion(self) -> bool:
        """Whether motion matching contributed to the estimate."""
        return self.estimate.used_motion

    @property
    def candidates(self) -> Tuple[EvaluatedCandidate, ...]:
        """The evaluated candidate set behind the fix."""
        return self.estimate.candidates
