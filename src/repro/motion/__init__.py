"""Motion substrate: pedestrians, step counting, heading, RLM extraction."""

from .heading import (
    course_from_readings,
    estimate_placement_offset,
    mean_compass_heading,
)
from .kalman_heading import KalmanHeadingFilter, fused_course_from_segment
from .kernel import SegmentMotion, segment_motions
from .pedestrian import (
    BodyProfile,
    Pedestrian,
    random_walk_path,
    step_length_from_body,
)
from .rlm import (
    MotionMeasurement,
    RlmObservation,
    extract_measurement,
    measurement_from,
)
from .segmentation import StreamSegment, segment_at_turns
from .stride import StepLengthEstimator
from .step_counting import (
    StepDetection,
    count_steps_csc,
    count_steps_dsc,
    detect_step_times,
    detect_steps,
    is_walking,
)
from .trace import TraceHop, WalkTrace

__all__ = [
    "course_from_readings",
    "estimate_placement_offset",
    "mean_compass_heading",
    "KalmanHeadingFilter",
    "fused_course_from_segment",
    "SegmentMotion",
    "segment_motions",
    "BodyProfile",
    "Pedestrian",
    "random_walk_path",
    "step_length_from_body",
    "MotionMeasurement",
    "RlmObservation",
    "extract_measurement",
    "measurement_from",
    "count_steps_csc",
    "StepLengthEstimator",
    "StreamSegment",
    "segment_at_turns",
    "count_steps_dsc",
    "StepDetection",
    "detect_steps",
    "detect_step_times",
    "is_walking",
    "TraceHop",
    "WalkTrace",
]
