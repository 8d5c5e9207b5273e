"""IMU assembly: time-aligned accelerometer + compass streams for a walk.

One :class:`ImuSegment` is what the phone records during one localization
interval: the accelerometer-magnitude samples and the compass readings,
both at the common IMU rate (paper: 10 Hz), plus ground truth kept aside
for scoring.  An :class:`IntervalEvent` is that segment together with
the interval's WiFi scan, as one session delivers it to the server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..env.geometry import Point, bearing_between
from .accelerometer import AccelerometerModel, AccelSignal
from .compass import CompassModel
from .gyroscope import GyroscopeModel

__all__ = ["ImuSegment", "IntervalEvent", "ImuModel"]


@dataclass(frozen=True)
class ImuSegment:
    """Sensor recordings for one straight walk segment.

    Attributes:
        accel: Accelerometer magnitude signal.
        compass_readings: Raw compass readings (degrees), one per sample.
        true_course_deg: Ground-truth walking direction (for scoring only).
        true_distance_m: Ground-truth walked distance (for scoring only).
        gyro_rates_dps: Optional gyroscope angular-rate readings
            (degrees/second, one per sample); present when the recording
            IMU carries a gyroscope.
    """

    accel: AccelSignal
    compass_readings: np.ndarray
    true_course_deg: float
    true_distance_m: float
    gyro_rates_dps: Optional[np.ndarray] = None

    @property
    def rate_hz(self) -> float:
        """The common sampling rate of both streams."""
        return self.accel.rate_hz

    @property
    def duration_s(self) -> float:
        """Recording duration in seconds."""
        return self.accel.duration_s


@dataclass(frozen=True)
class IntervalEvent:
    """One session's input for one serving tick.

    Workloads carry these (one per session per tick), and the serving
    engine, the shards and the ingress consume them as they are.

    Attributes:
        session_id: Which session the inputs belong to.
        scan: The WiFi scan (per-AP dBm), or None if none arrived
            (resilient sessions coast; plain sessions raise, as
            sequentially).
        imu: The IMU segment since the session's previous interval, or
            None on the session's first interval.
        sequence: Optional per-session monotonic sequence number (0 for
            a workload session's first interval).  When supplied, the
            engine detects duplicate deliveries (same number as the last
            served event — answered idempotently from the cached fix)
            and stale reordered ones (smaller number — dropped), and
            counts delivery gaps.  None opts the event out of ordering
            checks entirely.
    """

    session_id: str
    scan: Optional[Sequence[float]]
    imu: Optional[ImuSegment] = None
    sequence: Optional[int] = None


@dataclass(frozen=True)
class ImuModel:
    """One phone's IMU: accelerometer, compass, and optionally a gyroscope."""

    accelerometer: AccelerometerModel
    compass: CompassModel
    gyroscope: Optional[GyroscopeModel] = None

    def record_walk(
        self,
        start: Point,
        end: Point,
        duration_s: float,
        step_period_s: float,
        rng: np.random.Generator,
    ) -> ImuSegment:
        """Record the IMU while walking straight from ``start`` to ``end``.

        Compass readings are taken at the interpolated positions along the
        segment so that position-dependent magnetic disturbances vary
        within the recording, as they do in reality.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        course = bearing_between(start, end)
        accel = self.accelerometer.walking(duration_s, step_period_s, rng)
        n_samples = len(accel.samples)
        fractions = (
            np.arange(n_samples) / max(n_samples - 1, 1) if n_samples > 1 else [0.0]
        )
        readings = np.array(
            [
                self.compass.read(
                    course,
                    Point(
                        start.x + f * (end.x - start.x),
                        start.y + f * (end.y - start.y),
                    ),
                    rng,
                )
                for f in fractions
            ]
        )
        gyro = (
            self.gyroscope.record_straight_walk(n_samples, rng)
            if self.gyroscope is not None
            else None
        )
        return ImuSegment(
            accel=accel,
            compass_readings=readings,
            true_course_deg=course,
            true_distance_m=start.distance_to(end),
            gyro_rates_dps=gyro,
        )
