"""Environment substrate: geometry, floor plans, and walkable aisle graphs."""

from .floorplan import FloorPlan, ReferenceLocation
from .geometry import (
    Point,
    Segment,
    bearing_between,
    bearing_difference,
    circular_mean,
    circular_std,
    normalize_bearing,
    polyline_length,
    reverse_bearing,
    segments_intersect,
)
from .graph import WalkableGraph
from .office_hall import GRID_COLS, GRID_ROWS, OfficeHall, office_hall
from .procedural import (
    PLACEMENT_POLICIES,
    TOPOLOGIES,
    EnvironmentSpec,
    GeneratedEnvironment,
    environment_checksum,
    generate_environment,
)
from .render import render_floorplan

__all__ = [
    "Point",
    "Segment",
    "bearing_between",
    "bearing_difference",
    "circular_mean",
    "circular_std",
    "normalize_bearing",
    "polyline_length",
    "reverse_bearing",
    "segments_intersect",
    "FloorPlan",
    "ReferenceLocation",
    "WalkableGraph",
    "OfficeHall",
    "office_hall",
    "GRID_ROWS",
    "GRID_COLS",
    "render_floorplan",
    "TOPOLOGIES",
    "PLACEMENT_POLICIES",
    "EnvironmentSpec",
    "GeneratedEnvironment",
    "generate_environment",
    "environment_checksum",
]
