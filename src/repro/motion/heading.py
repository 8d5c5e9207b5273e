"""Walking-direction estimation from raw compass readings (Sec. IV-B1).

Compass readings reflect the *phone's* orientation, not the walking
direction; the constant between the two is the placement offset (how the
user holds the phone).  The paper "takes credits from Zee" for
placement-independent orientation estimation; this module reproduces that
capability: given a short calibration stretch whose true course is known
(Zee derives it from map constraints), estimate the placement offset, then
subtract it from subsequent readings.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..env.geometry import circular_mean, circular_means, normalize_bearing

__all__ = [
    "mean_compass_heading",
    "estimate_placement_offset",
    "course_from_readings",
]


def mean_compass_heading(readings: Sequence[float]) -> float:
    """The circular mean of raw compass readings over an interval, degrees."""
    return circular_mean(readings)


def estimate_placement_offset(
    calibration: Iterable[Tuple[Sequence[float], float]]
) -> float:
    """Estimate the phone-to-walking-direction placement offset.

    Args:
        calibration: Pairs of (raw compass readings over one straight
            segment, reference course of that segment in degrees).  Zee
            obtains such references from floor-plan constraints; the
            crowdsourcing simulation supplies them from its calibration
            hops.

    Returns:
        The estimated placement offset in degrees (reading minus course),
        normalized to ``[0, 360)``.

    Raises:
        ValueError: if ``calibration`` is empty, or a segment's mean
            heading is undefined.

    Every segment's heading comes from one
    :func:`~repro.env.geometry.circular_means` call.
    """
    pairs = list(calibration)
    if not pairs:
        raise ValueError("placement-offset estimation needs at least one segment")
    per_segment_offsets = []
    for heading, (_, course) in zip(
        circular_means([readings for readings, _ in pairs]), pairs
    ):
        if isinstance(heading, str):
            raise ValueError(heading)
        per_segment_offsets.append(normalize_bearing(heading - course))
    return circular_mean(per_segment_offsets)


def course_from_readings(
    readings: Sequence[float], placement_offset_deg: float
) -> float:
    """The walking direction for one interval, degrees in ``[0, 360)``.

    Averages the raw readings circularly and removes the estimated
    placement offset.
    """
    return normalize_bearing(mean_compass_heading(readings) - placement_offset_deg)
