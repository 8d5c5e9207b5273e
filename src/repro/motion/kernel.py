"""The batched motion kernel: every IMU segment in hand, in one call.

One call of :func:`segment_motions` turns a list of IMU segments into
their session-independent motion features: the step detection of
:func:`repro.motion.step_counting.detect_steps` (walking test, peak
instants, CSC and DSC counts) over the accelerometer streams, and the
raw circular-mean compass heading of
:func:`repro.env.geometry.circular_mean_rows` plus the statistics
:func:`repro.robustness.sanitizer.check_imu` reads over the compass
streams.  Streams are stacked by length and computed across rows, and
every row equals the one-segment computation bit for bit.

What stays per session — the placement offset, the stride, the
speed-adaptive rescaling, gyro fusion — is applied on top of a row
(:meth:`SegmentMotion.course_deg`, :func:`repro.motion.rlm.extract_measurements`,
:meth:`repro.service.MoLocService.extract_motion`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..env.geometry import circular_mean_rows, normalize_bearing
from ..sensors.imu import ImuSegment
from .step_counting import StepDetection, detect_steps

__all__ = ["SegmentMotion", "segment_motions"]


class SegmentMotion(NamedTuple):
    """The session-independent motion features of one IMU segment.

    Attributes:
        steps: Step detection over the accelerometer stream.
        heading: Circular mean of the raw compass readings in degrees,
            or, where that mean is undefined (no readings, opposed
            readings, an infinite reading), the reason as a string.
        compass_finite: Whether every compass reading is finite.
        heading_step_deg: Mean absolute change between consecutive
            compass readings, degrees; None for fewer than two readings.
    """

    steps: StepDetection
    heading: Union[float, str]
    compass_finite: bool
    heading_step_deg: Optional[float]

    def course_deg(self, placement_offset_deg: float) -> float:
        """The walking direction: the heading minus the placement offset.

        Raises:
            ValueError: if the heading is undefined.
        """
        if isinstance(self.heading, str):
            raise ValueError(self.heading)
        return normalize_bearing(self.heading - placement_offset_deg)


def segment_motions(segments: Sequence[ImuSegment]) -> List[SegmentMotion]:
    """The motion features of every segment, in segment order."""
    steps = detect_steps([segment.accel for segment in segments])
    stacks: Dict[int, List[int]] = {}
    for index, segment in enumerate(segments):
        stacks.setdefault(len(segment.compass_readings), []).append(index)
    motions: List[SegmentMotion] = [None] * len(segments)  # type: ignore[list-item]
    for length, indices in stacks.items():
        readings = np.array(
            [segments[i].compass_readings for i in indices], dtype=np.float64
        ).reshape(len(indices), length)
        headings = circular_mean_rows(readings)
        finite = np.isfinite(readings).all(axis=1).tolist()
        if length >= 2:
            with np.errstate(invalid="ignore"):
                changes = np.abs((np.diff(readings, axis=1) + 180.0) % 360.0 - 180.0)
            heading_steps = changes.mean(axis=1).tolist()
        else:
            heading_steps = [None] * len(indices)
        for index, heading, whole, heading_step in zip(
            indices, headings, finite, heading_steps
        ):
            motions[index] = SegmentMotion(steps[index], heading, whole, heading_step)
    return motions
