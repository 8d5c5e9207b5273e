"""Procedural environment generator: seeded worlds beyond the paper's hall.

Every published number reproduces one 40.8 m x 16 m office hall with 28
reference locations and 6 APs — but fingerprint twins are a property of
the RSS *field*, jointly determined by topology, AP density, and noise.
This module generates whole families of environments deterministically
from ``(seed, spec)``:

* **Topologies** — multi-floor ``tower`` (stairs and elevators become
  inter-floor graph edges across slab walls), ``mall`` (two anchor
  corridors, shop stubs, kiosk medians), ``warehouse`` (racking aisles
  with cross-aisles only at the ends), ``stadium`` (concentric concourse
  rings joined at gates), and ``corridor`` (a serpentine single-width
  path).
* **AP placement policies** — ``grid``, ``perimeter``, ``clustered``,
  and ``sparse-adversarial`` (every AP on the symmetry axis, the paper's
  twin-manufacturing geometry).

Generated worlds come out as the existing :class:`~repro.env.floorplan.FloorPlan`
and :class:`~repro.env.graph.WalkableGraph` types wrapped in an
:class:`~repro.env.office_hall.OfficeHall`, so the radio substrate, the
scenario assembly, serving, cluster, and chaos layers consume them
unchanged.  Regenerating from the same ``(seed, spec)`` is bitwise
identical, and :class:`EnvironmentSpec` round-trips through plain JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .floorplan import FloorPlan, ReferenceLocation
from .geometry import Point, Segment
from .graph import WalkableGraph
from .office_hall import OfficeHall

__all__ = [
    "TOPOLOGIES",
    "PLACEMENT_POLICIES",
    "EnvironmentSpec",
    "GeneratedEnvironment",
    "generate_environment",
    "environment_checksum",
]

SPEC_FORMAT_VERSION = 1

TOPOLOGIES: Tuple[str, ...] = (
    "tower",
    "mall",
    "warehouse",
    "stadium",
    "corridor",
)
"""The supported topology families."""

_MAX_APS = 500
_MAX_FLOORS = 16
_WALL_CLEARANCE_M = 0.35
"""Minimum distance kept between any wall and any reference location."""

_STAIR_GAP_HALF_WIDTH_M = 1.2
"""Half-width of the slab opening around a stair/elevator column."""


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentSpec:
    """A complete, JSON-round-trippable description of a generated world.

    Together with a seed this determines the environment bit for bit.

    Attributes:
        topology: One of :data:`TOPOLOGIES`.
        floors: Stacked floors (towers only; all others require 1).
        rows: Per-floor reference rows (rings for ``stadium``, serpentine
            runs for ``corridor``; ``mall`` requires exactly 4 bands).
        cols: Per-floor reference columns (locations per ring for
            ``stadium``; ``stadium`` needs at least 8).
        floor_width_m: Per-floor extent along x, meters.
        floor_height_m: Per-floor extent along y, meters.
        n_aps: AP mounts to place (1..500).
        placement: A registered placement policy name.
        ap_clusters: Cluster count for the ``clustered`` policy.
        name: Plan name; defaults to a descriptive one when empty.
    """

    topology: str = "tower"
    floors: int = 1
    rows: int = 4
    cols: int = 7
    floor_width_m: float = 40.8
    floor_height_m: float = 16.0
    n_aps: int = 6
    placement: str = "grid"
    ap_clusters: int = 2
    name: str = ""

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; expected one of "
                f"{tuple(PLACEMENT_POLICIES)}"
            )
        for label, value in (("floors", self.floors), ("rows", self.rows),
                             ("cols", self.cols), ("n_aps", self.n_aps),
                             ("ap_clusters", self.ap_clusters)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{label} must be an integer, got {value!r}")
        if not 1 <= self.floors <= _MAX_FLOORS:
            raise ValueError(f"floors must be in [1, {_MAX_FLOORS}], got {self.floors}")
        if self.floors > 1 and self.topology != "tower":
            raise ValueError(
                f"only towers stack floors; {self.topology!r} requires floors=1"
            )
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"grid must be at least 1x1, got {self.rows}x{self.cols}"
            )
        if self.topology == "tower" and (self.rows < 2 or self.cols < 2):
            raise ValueError("towers need at least a 2x2 floor grid for stairs")
        if self.topology == "mall" and self.rows != 4:
            raise ValueError(
                "malls are shops/corridor/corridor/shops: rows must be 4, "
                f"got {self.rows}"
            )
        if self.topology == "warehouse" and (self.rows < 3 or self.cols < 2):
            raise ValueError("warehouses need rows >= 3 and cols >= 2")
        if self.topology == "stadium":
            if self.cols < 8:
                raise ValueError(
                    f"stadium rings need at least 8 locations, got {self.cols}"
                )
            if self.rows < 2:
                raise ValueError("stadiums need at least 2 concourse rings")
        if self.topology == "corridor" and self.cols < 2:
            raise ValueError("corridor runs need at least 2 locations")
        if not (math.isfinite(self.floor_width_m) and self.floor_width_m > 0):
            raise ValueError(
                f"floor_width_m must be positive, got {self.floor_width_m}"
            )
        if not (math.isfinite(self.floor_height_m) and self.floor_height_m > 0):
            raise ValueError(
                f"floor_height_m must be positive, got {self.floor_height_m}"
            )
        if not 1 <= self.n_aps <= _MAX_APS:
            raise ValueError(f"n_aps must be in [1, {_MAX_APS}], got {self.n_aps}")
        if self.ap_clusters < 1:
            raise ValueError(f"ap_clusters must be >= 1, got {self.ap_clusters}")
        # Enough room on each axis that walls keep clear of locations.
        per_cell = 2.0 * _WALL_CLEARANCE_M
        if self.topology == "stadium":
            # Rings live on circles: both axes must hold every ring.
            need_w = need_h = per_cell * (self.rows + 1) * 2.0
        else:
            need_w = per_cell * (self.cols + 1)
            need_h = per_cell * (self.rows + 1)
        if self.floor_width_m < need_w or self.floor_height_m < need_h:
            raise ValueError(
                f"{self.floor_width_m:g}m x {self.floor_height_m:g}m floors are "
                f"too small for a {self.rows}x{self.cols} {self.topology}"
            )

    @property
    def n_locations(self) -> int:
        """Reference locations the generated plan will contain."""
        return self.floors * self.rows * self.cols

    @property
    def display_name(self) -> str:
        """The plan name: explicit, or derived from the parameters."""
        if self.name:
            return self.name
        stack = f"{self.floors}x" if self.floors > 1 else ""
        return (
            f"{self.topology} {stack}{self.rows}x{self.cols} "
            f"({self.n_aps} APs, {self.placement})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a self-describing JSON-compatible dict."""
        return {
            "format_version": SPEC_FORMAT_VERSION,
            "kind": "environment_spec",
            "topology": self.topology,
            "floors": self.floors,
            "rows": self.rows,
            "cols": self.cols,
            "floor_width_m": self.floor_width_m,
            "floor_height_m": self.floor_height_m,
            "n_aps": self.n_aps,
            "placement": self.placement,
            "ap_clusters": self.ap_clusters,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EnvironmentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if payload.get("kind") != "environment_spec":
            raise ValueError(
                f"expected an 'environment_spec' document, got {payload.get('kind')!r}"
            )
        version = payload.get("format_version")
        if version != SPEC_FORMAT_VERSION:
            raise ValueError(
                f"unsupported spec format version {version} "
                f"(supported: {SPEC_FORMAT_VERSION})"
            )
        return cls(
            topology=str(payload["topology"]),
            floors=int(payload["floors"]),
            rows=int(payload["rows"]),
            cols=int(payload["cols"]),
            floor_width_m=float(payload["floor_width_m"]),
            floor_height_m=float(payload["floor_height_m"]),
            n_aps=int(payload["n_aps"]),
            placement=str(payload["placement"]),
            ap_clusters=int(payload["ap_clusters"]),
            name=str(payload["name"]),
        )


# ----------------------------------------------------------------------
# Topology builders
# ----------------------------------------------------------------------
#
# Each builder returns (locations, edges, walls, floor_bands): the
# reference locations with globally unique ids, the walkable hops, the
# interior walls, and per-floor (y_min, y_max) bands.  Geometry is pure
# arithmetic on the spec — the rng is reserved for placement policies —
# so regeneration is trivially bitwise.


_Built = Tuple[
    List[ReferenceLocation],
    List[Tuple[int, int]],
    List[Segment],
    List[Tuple[float, float]],
]


def _grid_points(
    rows: int, cols: int, width: float, height: float, y_base: float
) -> Dict[Tuple[int, int], Point]:
    """Row-major grid positions with half-step margins; row 0 at the top."""
    x_margin = width / (2.0 * cols)
    y_margin = height / (2.0 * rows)
    x_step = (width - 2.0 * x_margin) / max(cols - 1, 1)
    y_step = (height - 2.0 * y_margin) / max(rows - 1, 1)
    return {
        (row, col): Point(
            x_margin + col * x_step,
            y_base + (height - y_margin) - row * y_step,
        )
        for row in range(rows)
        for col in range(cols)
    }


def _slab_wall(
    y: float, width: float, openings: Sequence[float]
) -> List[Segment]:
    """A full-width horizontal wall broken by gaps around ``openings``."""
    segments: List[Segment] = []
    cursor = 0.0
    for x in sorted(openings):
        left = x - _STAIR_GAP_HALF_WIDTH_M
        right = x + _STAIR_GAP_HALF_WIDTH_M
        if left > cursor:
            segments.append(Segment(Point(cursor, y), Point(left, y)))
        cursor = max(cursor, right)
    if cursor < width:
        segments.append(Segment(Point(cursor, y), Point(width, y)))
    return segments


def _build_tower(spec: EnvironmentSpec) -> _Built:
    """Stacked open floors; stairs (col 0) and elevators (last col) link them.

    Floor ``f`` occupies the y band ``[f*H, (f+1)*H)``; slab walls at the
    band boundaries attenuate radio between floors, with openings at the
    stair and elevator columns so the inter-floor hops keep line of
    sight.  Location ids are floor-major then row-major, floor 0 at the
    bottom of the plan, row 0 at the top of each floor band.
    """
    rows, cols = spec.rows, spec.cols
    width, height = spec.floor_width_m, spec.floor_height_m
    locations: List[ReferenceLocation] = []
    edges: List[Tuple[int, int]] = []
    walls: List[Segment] = []
    bands: List[Tuple[float, float]] = []

    def location_id(floor: int, row: int, col: int) -> int:
        return floor * rows * cols + row * cols + col + 1

    stair_col, elevator_col = 0, cols - 1
    stair_xs: List[float] = []
    for floor in range(spec.floors):
        y_base = floor * height
        bands.append((y_base, y_base + height))
        points = _grid_points(rows, cols, width, height, y_base)
        if floor == 0:
            stair_xs = [points[(0, stair_col)].x, points[(0, elevator_col)].x]
        for (row, col), position in sorted(points.items()):
            locations.append(ReferenceLocation(location_id(floor, row, col), position))
        for row in range(rows):
            for col in range(cols):
                if col + 1 < cols:
                    edges.append(
                        (location_id(floor, row, col), location_id(floor, row, col + 1))
                    )
                if row + 1 < rows:
                    edges.append(
                        (location_id(floor, row, col), location_id(floor, row + 1, col))
                    )
        if floor + 1 < spec.floors:
            # Stairs and elevator join the top row of this floor band to
            # the bottom row of the band above, straight across the slab.
            edges.append(
                (
                    location_id(floor, 0, stair_col),
                    location_id(floor + 1, rows - 1, stair_col),
                )
            )
            edges.append(
                (
                    location_id(floor, 0, elevator_col),
                    location_id(floor + 1, rows - 1, elevator_col),
                )
            )
            walls.extend(_slab_wall((floor + 1) * height, width, stair_xs))
    return locations, edges, walls, bands


def _build_mall(spec: EnvironmentSpec) -> _Built:
    """Two anchor corridors with shop stubs and kiosk medians.

    Row bands top to bottom: north shops, north corridor, south corridor,
    south shops.  Corridors run the full length; the two corridors join
    only at cross-aisle columns (every third column plus both ends),
    kiosk median walls blocking the rest.  Shops hang off their corridor
    and are walled off from their neighbors.
    """
    cols = spec.cols
    width, height = spec.floor_width_m, spec.floor_height_m
    points = _grid_points(4, cols, width, height, 0.0)

    def location_id(row: int, col: int) -> int:
        return row * cols + col + 1

    locations = [
        ReferenceLocation(location_id(row, col), points[(row, col)])
        for row in range(4)
        for col in range(cols)
    ]
    cross_cols = {0, cols - 1} | {c for c in range(cols) if c % 3 == 0}
    edges: List[Tuple[int, int]] = []
    for col in range(cols):
        edges.append((location_id(0, col), location_id(1, col)))  # shop stub
        edges.append((location_id(2, col), location_id(3, col)))  # shop stub
        if col in cross_cols:
            edges.append((location_id(1, col), location_id(2, col)))
        if col + 1 < cols:
            edges.append((location_id(1, col), location_id(1, col + 1)))
            edges.append((location_id(2, col), location_id(2, col + 1)))

    x_step = (width - width / cols) / max(cols - 1, 1)
    walls: List[Segment] = []
    # Kiosk medians between the corridors on non-crossing columns.
    y_median = height / 2.0
    for col in range(cols):
        if col in cross_cols:
            continue
        x = points[(1, col)].x
        half = min(x_step, width / cols) / 2.0 - _WALL_CLEARANCE_M
        if half > 0:
            walls.append(
                Segment(Point(x - half, y_median), Point(x + half, y_median))
            )
    # Shop dividers between horizontally adjacent shops, clear of stubs.
    for row, (y_lo, y_hi) in (
        (0, (points[(0, 0)].y + _WALL_CLEARANCE_M, height)),
        (3, (0.0, points[(3, 0)].y - _WALL_CLEARANCE_M)),
    ):
        for col in range(cols - 1):
            x = (points[(row, col)].x + points[(row, col + 1)].x) / 2.0
            walls.append(Segment(Point(x, y_lo), Point(x, y_hi)))
    return locations, edges, walls, [(0.0, height)]


def _build_warehouse(spec: EnvironmentSpec) -> _Built:
    """Racking aisles: tall vertical corridors, cross-aisles at the ends.

    Every column is walkable top to bottom; horizontal hops exist only on
    the first and last rows.  Racking walls run between adjacent columns
    across the interior rows, so mid-rack neighbors are radio-occluded
    and geographically close yet many hops apart — prime twin geometry.
    """
    rows, cols = spec.rows, spec.cols
    width, height = spec.floor_width_m, spec.floor_height_m
    points = _grid_points(rows, cols, width, height, 0.0)

    def location_id(row: int, col: int) -> int:
        return row * cols + col + 1

    locations = [
        ReferenceLocation(location_id(row, col), points[(row, col)])
        for row in range(rows)
        for col in range(cols)
    ]
    edges: List[Tuple[int, int]] = []
    for row in range(rows):
        for col in range(cols):
            if row + 1 < rows:
                edges.append((location_id(row, col), location_id(row + 1, col)))
            if col + 1 < cols and row in (0, rows - 1):
                edges.append((location_id(row, col), location_id(row, col + 1)))
    walls: List[Segment] = []
    y_top = points[(0, 0)].y - _WALL_CLEARANCE_M
    y_bottom = points[(rows - 1, 0)].y + _WALL_CLEARANCE_M
    for col in range(cols - 1):
        x = (points[(0, col)].x + points[(0, col + 1)].x) / 2.0
        walls.append(Segment(Point(x, y_bottom), Point(x, y_top)))
    return locations, edges, walls, [(0.0, height)]


def _build_stadium(spec: EnvironmentSpec) -> _Built:
    """Concentric concourse rings joined by radial hops at four gates.

    Ring ``r`` (0 = outermost) carries ``cols`` locations on a circle;
    along-ring hops close the loop, and radial hops at the four gate
    bearings connect consecutive rings.  Short stand walls sit between
    rings midway between gates, clear of every hop chord.
    """
    rings, per_ring = spec.rows, spec.cols
    width, height = spec.floor_width_m, spec.floor_height_m
    center = Point(width / 2.0, height / 2.0)
    outer_radius = min(width, height) / 2.0 - 2.0 * _WALL_CLEARANCE_M
    inner_radius = outer_radius / (rings + 1.0)
    radius_step = (outer_radius - inner_radius) / max(rings - 1, 1)

    def location_id(ring: int, slot: int) -> int:
        return ring * per_ring + slot + 1

    def position(ring: int, slot: int) -> Point:
        radius = outer_radius - ring * radius_step
        angle = 2.0 * math.pi * slot / per_ring
        return Point(
            center.x + radius * math.cos(angle),
            center.y + radius * math.sin(angle),
        )

    locations = [
        ReferenceLocation(location_id(ring, slot), position(ring, slot))
        for ring in range(rings)
        for slot in range(per_ring)
    ]
    gate_slots = [0, per_ring // 4, per_ring // 2, (3 * per_ring) // 4]
    edges: List[Tuple[int, int]] = []
    for ring in range(rings):
        for slot in range(per_ring):
            edges.append(
                (location_id(ring, slot), location_id(ring, (slot + 1) % per_ring))
            )
        if ring + 1 < rings:
            for slot in gate_slots:
                edges.append((location_id(ring, slot), location_id(ring + 1, slot)))

    # Stand walls between rings, centered between gates.  A chord of the
    # ring at radius R stays outside radius R*cos(pi/n), so wall geometry
    # confined to radii in (R_inner_ring, R_outer * cos(pi/n)) crosses no
    # along-ring hop.  Each wall is an arc approximated by sub-chords
    # short enough that their sagitta never dips below that band, and its
    # angular span covers only the middle of the gate-to-gate gap so the
    # radial gate hops stay clear.
    walls: List[Segment] = []
    chord_floor = math.cos(math.pi / per_ring)
    gate_angles = [2.0 * math.pi * slot / per_ring for slot in gate_slots]
    for ring in range(rings - 1):
        r_outer = outer_radius - ring * radius_step
        r_inner = r_outer - radius_step
        upper = r_outer * chord_floor - _WALL_CLEARANCE_M
        lower = r_inner + _WALL_CLEARANCE_M
        if upper <= lower:
            continue  # rings too tight for a wall here
        wall_radius = (lower + upper) / 2.0
        max_half_chord = math.acos(min(1.0, lower / wall_radius))
        for gate_index in range(4):
            a_start = gate_angles[gate_index]
            a_end = gate_angles[(gate_index + 1) % 4]
            if gate_index == 3:
                a_end += 2.0 * math.pi
            gap = a_end - a_start
            half_span = min(math.pi / 8.0, 0.3 * gap)
            if half_span <= 0.0 or max_half_chord <= 0.0:
                continue
            pieces = max(1, math.ceil(half_span / max_half_chord))
            mid = a_start + gap / 2.0
            cuts = [
                mid - half_span + 2.0 * half_span * k / pieces
                for k in range(pieces + 1)
            ]
            for a0, a1 in zip(cuts, cuts[1:]):
                walls.append(
                    Segment(
                        Point(
                            center.x + wall_radius * math.cos(a0),
                            center.y + wall_radius * math.sin(a0),
                        ),
                        Point(
                            center.x + wall_radius * math.cos(a1),
                            center.y + wall_radius * math.sin(a1),
                        ),
                    )
                )
    return locations, edges, walls, [(0.0, height)]


def _build_corridor(spec: EnvironmentSpec) -> _Built:
    """A serpentine corridor: horizontal runs joined at alternating ends.

    Run ``r`` is a row of ``cols`` locations; runs connect at the right
    end for even rows and the left end for odd rows, and dividing walls
    fill the rest of each inter-run boundary.  The geodesic between
    mid-run locations on adjacent runs is long even though they are
    meters apart — corridor twins.
    """
    rows, cols = spec.rows, spec.cols
    width, height = spec.floor_width_m, spec.floor_height_m
    points = _grid_points(rows, cols, width, height, 0.0)

    def location_id(row: int, col: int) -> int:
        return row * cols + col + 1

    locations = [
        ReferenceLocation(location_id(row, col), points[(row, col)])
        for row in range(rows)
        for col in range(cols)
    ]
    edges: List[Tuple[int, int]] = []
    for row in range(rows):
        for col in range(cols - 1):
            edges.append((location_id(row, col), location_id(row, col + 1)))
        if row + 1 < rows:
            turn_col = cols - 1 if row % 2 == 0 else 0
            edges.append((location_id(row, turn_col), location_id(row + 1, turn_col)))
    walls: List[Segment] = []
    for row in range(rows - 1):
        y = (points[(row, 0)].y + points[(row + 1, 0)].y) / 2.0
        turn_col = cols - 1 if row % 2 == 0 else 0
        turn_x = points[(row, turn_col)].x
        if turn_col == cols - 1:
            walls.append(Segment(Point(0.0, y), Point(turn_x - _STAIR_GAP_HALF_WIDTH_M, y)))
        else:
            walls.append(Segment(Point(turn_x + _STAIR_GAP_HALF_WIDTH_M, y), Point(width, y)))
    return locations, edges, walls, [(0.0, height)]


_TOPOLOGY_BUILDERS: Dict[str, Callable[[EnvironmentSpec], _Built]] = {
    "tower": _build_tower,
    "mall": _build_mall,
    "warehouse": _build_warehouse,
    "stadium": _build_stadium,
    "corridor": _build_corridor,
}


# ----------------------------------------------------------------------
# AP placement policies
# ----------------------------------------------------------------------


PlacementPolicy = Callable[
    [EnvironmentSpec, float, float, List[Tuple[float, float]], np.random.Generator],
    List[Point],
]
"""``(spec, width, height, floor_bands, rng) -> n_aps mount positions``."""


def _inset_bounds(width: float, height: float, inset: float = 1.0):
    inset = min(inset, width / 4.0, height / 4.0)
    return inset, width - inset, inset, height - inset


def _place_grid(
    spec: EnvironmentSpec,
    width: float,
    height: float,
    bands: List[Tuple[float, float]],
    rng: np.random.Generator,
) -> List[Point]:
    """A near-square coverage lattice across the whole plan."""
    n = spec.n_aps
    nx = max(1, int(math.ceil(math.sqrt(n * width / height))))
    ny = max(1, int(math.ceil(n / nx)))
    positions = []
    for index in range(n):
        gx, gy = index % nx, index // nx
        positions.append(
            Point((gx + 0.5) * width / nx, (gy % ny + 0.5) * height / ny)
        )
    return positions


def _place_perimeter(
    spec: EnvironmentSpec,
    width: float,
    height: float,
    bands: List[Tuple[float, float]],
    rng: np.random.Generator,
) -> List[Point]:
    """Evenly spaced mounts along the (inset) outer walls of each floor."""
    positions: List[Point] = []
    per_band = _split_counts(spec.n_aps, len(bands))
    for (y_lo, y_hi), count in zip(bands, per_band):
        if count == 0:
            continue
        x0, x1, _, _ = _inset_bounds(width, y_hi - y_lo)
        y0, y1 = y_lo + (x0), y_hi - (x0)  # same inset on y
        corners = [
            Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)
        ]
        perimeter = 2.0 * ((x1 - x0) + (y1 - y0))
        for k in range(count):
            distance = perimeter * k / count
            positions.append(_walk_rectangle(corners, distance))
    return positions


def _walk_rectangle(corners: List[Point], distance: float) -> Point:
    """The point ``distance`` meters along the rectangle's boundary."""
    for start, end in zip(corners, corners[1:] + corners[:1]):
        side = start.distance_to(end)
        if distance <= side or side == 0.0:
            t = 0.0 if side == 0.0 else distance / side
            return Point(
                start.x + t * (end.x - start.x), start.y + t * (end.y - start.y)
            )
        distance -= side
    return corners[0]


def _place_clustered(
    spec: EnvironmentSpec,
    width: float,
    height: float,
    bands: List[Tuple[float, float]],
    rng: np.random.Generator,
) -> List[Point]:
    """APs huddled around seeded cluster centers (dense-office pathology)."""
    x0, x1, y0, y1 = _inset_bounds(width, height)
    centers = [
        Point(float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
        for _ in range(spec.ap_clusters)
    ]
    positions = []
    for index in range(spec.n_aps):
        center = centers[index % len(centers)]
        x = min(max(center.x + float(rng.normal(0.0, 2.0)), x0), x1)
        y = min(max(center.y + float(rng.normal(0.0, 2.0)), y0), y1)
        positions.append(Point(x, y))
    return positions


def _place_sparse_adversarial(
    spec: EnvironmentSpec,
    width: float,
    height: float,
    bands: List[Tuple[float, float]],
    rng: np.random.Generator,
) -> List[Point]:
    """Every AP on each floor's horizontal symmetry axis.

    The paper's twin-manufacturing geometry (Fig. 1 scaled up): locations
    mirrored about the axis are nearly equidistant from every AP and
    receive near-identical fingerprints.
    """
    positions: List[Point] = []
    per_band = _split_counts(spec.n_aps, len(bands))
    for (y_lo, y_hi), count in zip(bands, per_band):
        axis = (y_lo + y_hi) / 2.0
        for k in range(count):
            positions.append(Point(width * (k + 0.5) / count, axis))
    return positions


def _split_counts(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` near-equal counts, earlier-first."""
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


PLACEMENT_POLICIES: Dict[str, PlacementPolicy] = {
    "grid": _place_grid,
    "perimeter": _place_perimeter,
    "clustered": _place_clustered,
    "sparse-adversarial": _place_sparse_adversarial,
}
"""The AP placement policies by name.  Each is called as
``policy(spec, width, height, floor_bands, rng)`` and must return
exactly ``spec.n_aps`` in-bounds positions; :func:`generate_environment`
checks both."""


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedEnvironment:
    """One generated world plus its provenance.

    Attributes:
        spec: The spec it was generated from.
        seed: The seed it was generated from.
        hall: The assembled plan + walkable graph, drop-in wherever the
            paper's :func:`~repro.env.office_hall.office_hall` is used.
        floor_bands: Per-floor ``(y_min, y_max)`` bands of the plan.
    """

    spec: EnvironmentSpec
    seed: int
    hall: OfficeHall
    floor_bands: Tuple[Tuple[float, float], ...]

    @property
    def plan(self) -> FloorPlan:
        """The generated floor plan."""
        return self.hall.plan

    @property
    def graph(self) -> WalkableGraph:
        """The generated walkable graph."""
        return self.hall.graph


def generate_environment(
    spec: EnvironmentSpec, seed: int = 0
) -> GeneratedEnvironment:
    """Generate one environment, bitwise-reproducible from ``(seed, spec)``.

    Topology geometry is pure arithmetic on the spec; the seeded rng
    drives only the placement policy (cluster centers, jitter), so two
    calls with equal arguments produce plans that serialize identically.

    Raises:
        ValueError: if the placement policy returns the wrong number of
            mounts or places one outside the plan bounds.
    """
    builder = _TOPOLOGY_BUILDERS[spec.topology]
    locations, edges, walls, bands = builder(spec)
    width = spec.floor_width_m
    height = bands[-1][1]

    rng = np.random.default_rng([seed, _placement_stream(spec)])
    ap_positions = PLACEMENT_POLICIES[spec.placement](
        spec, width, height, list(bands), rng
    )
    if len(ap_positions) != spec.n_aps:
        raise ValueError(
            f"placement policy {spec.placement!r} returned "
            f"{len(ap_positions)} mounts for n_aps={spec.n_aps}"
        )
    for position in ap_positions:
        if not (0.0 <= position.x <= width and 0.0 <= position.y <= height):
            raise ValueError(
                f"placement policy {spec.placement!r} put an AP at "
                f"{position}, outside the {width:g}m x {height:g}m bounds"
            )

    plan = FloorPlan(
        width=width,
        height=height,
        reference_locations=locations,
        walls=walls,
        ap_positions=ap_positions,
        name=spec.display_name,
    )
    graph = WalkableGraph(plan, edges, validate_line_of_sight=True)
    return GeneratedEnvironment(
        spec=spec, seed=seed, hall=OfficeHall(plan=plan, graph=graph),
        floor_bands=tuple(bands),
    )


def _placement_stream(spec: EnvironmentSpec) -> int:
    """A stable sub-stream id derived from the spec, so different specs
    at the same seed draw uncorrelated placement randomness."""
    digest = hashlib.blake2b(
        json.dumps(spec.to_dict(), sort_keys=True).encode(), digest_size=4
    )
    return int.from_bytes(digest.digest(), "big")


def environment_checksum(environment: GeneratedEnvironment) -> str:
    """A bit-level fingerprint of a generated world.

    Covers the serialized plan (float repr round-trips bit-exactly
    through JSON) and the sorted edge list; two environments agree on
    the checksum iff they serialize identically.
    """
    from ..io.serialize import floorplan_to_dict, graph_to_dict

    payload = {
        "floorplan": floorplan_to_dict(environment.plan),
        "graph": graph_to_dict(environment.graph),
        "spec": environment.spec.to_dict(),
        "seed": environment.seed,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
