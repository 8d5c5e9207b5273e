"""Relative location measurements (RLMs) and their extraction (Sec. IV-B).

An RLM ``r_{i,j} = <d, o>`` is the walking direction ``d`` and offset
``o`` measured while moving between two adjacent reference locations.
During motion-database construction the endpoints are *estimated*
locations (from fingerprinting); during localization only the raw
:class:`MotionMeasurement` is used, without endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..env.geometry import normalize_bearing, reverse_bearing
from ..sensors.imu import ImuSegment
from .kernel import SegmentMotion, segment_motions

__all__ = [
    "MotionMeasurement",
    "RlmObservation",
    "extract_measurement",
    "measurement_from",
]


@dataclass(frozen=True)
class MotionMeasurement:
    """One interval's motion: walking direction and offset.

    Attributes:
        direction_deg: Compass bearing of the movement, in ``[0, 360)``.
        offset_m: Distance walked, in meters (non-negative).
    """

    direction_deg: float
    offset_m: float

    def __post_init__(self) -> None:
        if self.offset_m < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset_m}")
        object.__setattr__(
            self, "direction_deg", normalize_bearing(self.direction_deg)
        )

    def reversed(self) -> "MotionMeasurement":
        """The mirror measurement: opposite direction, same offset.

        This is the transformation data reassembling applies under the
        mutual-reachability assumption (Sec. IV-B2).
        """
        return MotionMeasurement(reverse_bearing(self.direction_deg), self.offset_m)


@dataclass(frozen=True)
class RlmObservation:
    """An RLM tagged with its (estimated) start and end locations.

    Attributes:
        start_id: Estimated location the user moved from.
        end_id: Estimated location the user arrived at.
        measurement: The measured direction and offset.
    """

    start_id: int
    end_id: int
    measurement: MotionMeasurement

    def reassembled(self) -> "RlmObservation":
        """The observation with the smaller location id as start.

        Implements the paper's *data reassembling*: if ``start_id >
        end_id``, swap the endpoints and mirror the measurement, so every
        pair is keyed consistently and each crowdsourced walk trains both
        walking directions at once.
        """
        if self.start_id <= self.end_id:
            return self
        return RlmObservation(
            start_id=self.end_id,
            end_id=self.start_id,
            measurement=self.measurement.reversed(),
        )


def extract_measurement(
    segment: ImuSegment,
    step_length_m: float,
    placement_offset_deg: float,
    counting: Literal["csc", "dsc"] = "csc",
) -> MotionMeasurement:
    """Turn one interval's IMU recording into a motion measurement.

    A one-row call of :func:`~repro.motion.kernel.segment_motions`,
    finished by :func:`measurement_from`.

    Args:
        segment: The IMU recording of the interval.
        step_length_m: The user's step length as estimated from their
            height and weight (ref. [25] of the paper).
        placement_offset_deg: The phone placement offset estimated by
            :func:`repro.motion.heading.estimate_placement_offset`.
        counting: ``"csc"`` for the paper's continuous counter (default)
            or ``"dsc"`` for the discrete baseline — the ablation axis of
            Sec. IV-B1.

    Raises:
        ValueError: for a non-positive step length, an unknown counter,
            or an undefined compass heading.
    """
    return measurement_from(
        segment_motions([segment])[0], step_length_m, placement_offset_deg, counting
    )


def measurement_from(
    motion: SegmentMotion,
    step_length_m: float,
    placement_offset_deg: float,
    counting: Literal["csc", "dsc"] = "csc",
) -> MotionMeasurement:
    """The motion measurement of one segment's kernel row.

    The walker-dependent part of :func:`extract_measurement`: callers
    holding many segments compute their rows in one
    :func:`~repro.motion.kernel.segment_motions` call and finish each
    row here.  Arguments and errors are :func:`extract_measurement`'s.
    """
    if step_length_m <= 0:
        raise ValueError(f"step length must be positive, got {step_length_m}")
    if counting == "csc":
        steps = motion.steps.csc_steps
    elif counting == "dsc":
        steps = motion.steps.dsc_steps
    else:
        raise ValueError(f"unknown step counting mode {counting!r}")
    return MotionMeasurement(
        direction_deg=motion.course_deg(placement_offset_deg),
        offset_m=steps * step_length_m,
    )
