"""Planar geometry primitives used throughout the simulator.

The whole reproduction works on a 2-D floor plan, so this module provides
the small set of geometric operations everything else is built on: points,
segments, distances, segment intersection (used to count walls between a
transmitter and a receiver), and compass bearings.

Angle conventions
-----------------
All user-facing angles in this code base are *compass bearings* in degrees:
0 degrees points north (+y), 90 degrees points east (+x), and angles grow
clockwise, matching what a phone's digital compass reports and what the
paper's motion database stores.  Bearings are normalized to ``[0, 360)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Point",
    "Segment",
    "bearing_between",
    "normalize_bearing",
    "bearing_difference",
    "reverse_bearing",
    "circular_mean",
    "circular_mean_rows",
    "circular_means",
    "circular_std",
    "segments_intersect",
    "polyline_length",
]


@dataclass(frozen=True)
class Point:
    """A point (or free vector) in the floor-plan coordinate system, in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """A new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """The midpoint of the segment between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_tuple(self) -> Tuple[float, float]:
        """The point as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Segment:
    """A straight line segment between two points, e.g. a wall on a floor plan."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """The segment length in meters."""
        return self.start.distance_to(self.end)

    def intersects(self, other: "Segment") -> bool:
        """Whether this segment properly or improperly intersects ``other``."""
        return segments_intersect(self, other)


def normalize_bearing(bearing: float) -> float:
    """Normalize an angle in degrees into the compass range ``[0, 360)``."""
    result = bearing % 360.0
    # Floating-point modulo of a tiny negative angle can round to 360.0.
    return 0.0 if result >= 360.0 else result


def bearing_between(origin: Point, target: Point) -> float:
    """The compass bearing from ``origin`` to ``target``.

    Returns 0 for due north (+y), 90 for due east (+x), in ``[0, 360)``.

    Raises:
        ValueError: if the two points coincide (the bearing is undefined).
    """
    dx = target.x - origin.x
    dy = target.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("bearing between coincident points is undefined")
    return normalize_bearing(math.degrees(math.atan2(dx, dy)))


def bearing_difference(a: float, b: float) -> float:
    """The unsigned angular difference between two bearings, in ``[0, 180]``."""
    diff = abs(normalize_bearing(a) - normalize_bearing(b))
    return min(diff, 360.0 - diff)


def reverse_bearing(bearing: float) -> float:
    """The bearing of the opposite walking direction: ``(d + 180) mod 360``.

    This is the mirror operation the paper's *data reassembling* step applies
    to relative location measurements (Sec. IV-B2).
    """
    return normalize_bearing(bearing + 180.0)


def circular_mean(bearings: Sequence[float]) -> float:
    """The circular mean of compass bearings, in ``[0, 360)``.

    The arithmetic mean is wrong for angles near the 0/360 wrap-around
    (e.g. the mean of 350 and 10 degrees should be 0, not 180), so the
    motion-database builder uses this instead.  A one-row call of
    :func:`circular_mean_rows`.

    Raises:
        ValueError: if ``bearings`` is empty or the mean is undefined
            (perfectly opposed directions cancelling out).
    """
    mean = circular_mean_rows(np.asarray(bearings, dtype=np.float64).reshape(1, -1))[0]
    if isinstance(mean, str):
        raise ValueError(mean)
    return mean


def circular_mean_rows(bearings: np.ndarray) -> List[Union[float, str]]:
    """The circular mean of every row of an ``(n, L)`` bearing matrix.

    Each row gets the value the sequential definition gives bit for bit:
    ``atan2`` of the left-to-right sums of the row's sines and cosines,
    in degrees and normalized.  The sines and cosines are computed for
    the whole matrix at once, the sums run sequentially along each row
    (``cumsum``, never numpy's pairwise ``sum``), and ``math.atan2`` and
    ``math.hypot`` run per row, since their numpy twins round
    differently.  A row whose mean is undefined gets the reason instead
    of a value: the message :func:`circular_mean` raises.
    """
    n, length = bearings.shape
    if length == 0:
        return ["circular mean of no bearings is undefined"] * n
    radians = np.radians(bearings)
    with np.errstate(invalid="ignore"):
        # An infinite bearing has no sine: such rows are reported below.
        sin_sums = np.cumsum(np.sin(radians), axis=1)[:, -1]
        cos_sums = np.cumsum(np.cos(radians), axis=1)[:, -1]
    infinite = np.isinf(bearings).any(axis=1).tolist()
    means: List[Union[float, str]] = []
    for sin_sum, cos_sum, bad in zip(sin_sums.tolist(), cos_sums.tolist(), infinite):
        if bad:
            means.append("math domain error")
        elif math.hypot(sin_sum, cos_sum) < 1e-12:
            means.append("circular mean is undefined for uniformly opposed bearings")
        else:
            # Compass convention: atan2(sin-part, cos-part) with x/y
            # swapped relative to the mathematical convention, matching
            # bearing_between.
            means.append(normalize_bearing(math.degrees(math.atan2(sin_sum, cos_sum))))
    return means


def circular_means(rows: Sequence[Sequence[float]]) -> List[Union[float, str]]:
    """:func:`circular_mean_rows` over rows of any lengths, in row order.

    Rows are stacked by length, one matrix per length.
    """
    by_length: Dict[int, List[int]] = {}
    for index, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(index)
    means: List[Union[float, str]] = [0.0] * len(rows)
    for length, indices in by_length.items():
        matrix = np.array([rows[i] for i in indices], dtype=np.float64)
        stack_means = circular_mean_rows(matrix.reshape(len(indices), length))
        for index, mean in zip(indices, stack_means):
            means[index] = mean
    return means


def circular_std(bearings: Sequence[float]) -> float:
    """The circular standard deviation of compass bearings, in degrees.

    Uses the standard definition ``sqrt(-2 ln R)`` where ``R`` is the mean
    resultant length; for tightly clustered bearings this converges to the
    ordinary standard deviation, which is what the motion database models.
    """
    if len(bearings) == 0:
        raise ValueError("circular std of no bearings is undefined")
    sin_mean = sum(math.sin(math.radians(b)) for b in bearings) / len(bearings)
    cos_mean = sum(math.cos(math.radians(b)) for b in bearings) / len(bearings)
    resultant = math.hypot(sin_mean, cos_mean)
    if resultant <= 1e-12:
        return 180.0
    # Guard against tiny floating-point excursions above 1.0.
    resultant = min(resultant, 1.0)
    return math.degrees(math.sqrt(-2.0 * math.log(resultant)))


def _orientation(p: Point, q: Point, r: Point) -> int:
    """Orientation of the ordered triplet: 1 clockwise, -1 counter-clockwise, 0 collinear."""
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if abs(cross) < 1e-12:
        return 0
    return -1 if cross > 0 else 1


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Whether collinear point ``q`` lies on segment ``pr``."""
    return (
        min(p.x, r.x) - 1e-12 <= q.x <= max(p.x, r.x) + 1e-12
        and min(p.y, r.y) - 1e-12 <= q.y <= max(p.y, r.y) + 1e-12
    )


def segments_intersect(a: Segment, b: Segment) -> bool:
    """Whether segments ``a`` and ``b`` intersect (including touching endpoints)."""
    o1 = _orientation(a.start, a.end, b.start)
    o2 = _orientation(a.start, a.end, b.end)
    o3 = _orientation(b.start, b.end, a.start)
    o4 = _orientation(b.start, b.end, a.end)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a.start, b.start, a.end):
        return True
    if o2 == 0 and _on_segment(a.start, b.end, a.end):
        return True
    if o3 == 0 and _on_segment(b.start, a.start, b.end):
        return True
    if o4 == 0 and _on_segment(b.start, a.end, b.end):
        return True
    return False


def polyline_length(points: Iterable[Point]) -> float:
    """The total length of the polyline through ``points``, in meters."""
    total = 0.0
    previous = None
    for point in points:
        if previous is not None:
            total += previous.distance_to(point)
        previous = point
    return total
