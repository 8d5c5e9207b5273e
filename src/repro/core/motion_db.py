"""The motion database (paper Sec. IV-C).

Conceptually an ``n x n`` matrix ``M`` over reference locations where
entry ``M[i,j]`` stores the quadruple ``(mu_d, sigma_d, mu_o, sigma_o)``:
Gaussian parameters of the walking direction and offset between adjacent
locations ``i`` and ``j``.  Physically only the ``i < j`` half is stored;
the reverse entry is derived on lookup through mutual reachability
(Sec. IV-B2):

    mu_d[j,i] = mu_d[i,j] + 180 mod 360,   sigma_d[j,i] = sigma_d[i,j],
    mu_o[j,i] = mu_o[i,j],                 sigma_o[j,i] = sigma_o[i,j].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..env.geometry import normalize_bearing, reverse_bearing

__all__ = ["PairStatistics", "DenseMotionView", "MotionDatabase"]


@dataclass(frozen=True)
class DenseMotionView:
    """A dense array view of the motion database over fixed locations.

    The batched serving engine's Eq. 5/6 evaluator indexes these arrays
    directly instead of paying a dict lookup plus a
    :class:`PairStatistics` construction per (pair, interval); values are
    exactly the ones :meth:`MotionDatabase.entry` returns (including the
    derived reverse entries), gathered once.

    Attributes:
        location_ids: Locations covered, in array row/column order.
        direction_mean_deg: ``mu_d`` per ordered pair (NaN where invalid).
        direction_std_deg: ``sigma_d`` per ordered pair.
        offset_mean_m: ``mu_o`` per ordered pair.
        offset_std_m: ``sigma_o`` per ordered pair.
        valid: Whether the database covers the ordered pair.
    """

    location_ids: Tuple[int, ...]
    direction_mean_deg: np.ndarray
    direction_std_deg: np.ndarray
    offset_mean_m: np.ndarray
    offset_std_m: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class PairStatistics:
    """The stored quadruple for one ordered location pair, plus support.

    Attributes:
        direction_mean_deg: ``mu_d`` in ``[0, 360)``.
        direction_std_deg: ``sigma_d`` (positive).
        offset_mean_m: ``mu_o`` (positive).
        offset_std_m: ``sigma_o`` (positive).
        n_observations: How many sanitized measurements produced the entry.
    """

    direction_mean_deg: float
    direction_std_deg: float
    offset_mean_m: float
    offset_std_m: float
    n_observations: int

    def __post_init__(self) -> None:
        if self.direction_std_deg <= 0 or self.offset_std_m <= 0:
            raise ValueError("standard deviations must be positive")
        if self.offset_mean_m <= 0:
            raise ValueError("offset mean must be positive")
        if self.n_observations < 1:
            raise ValueError("an entry needs at least one observation")
        object.__setattr__(
            self, "direction_mean_deg", normalize_bearing(self.direction_mean_deg)
        )

    def reversed(self) -> "PairStatistics":
        """The mirror entry for the opposite walking direction."""
        return PairStatistics(
            direction_mean_deg=reverse_bearing(self.direction_mean_deg),
            direction_std_deg=self.direction_std_deg,
            offset_mean_m=self.offset_mean_m,
            offset_std_m=self.offset_std_m,
            n_observations=self.n_observations,
        )


class MotionDatabase:
    """Relative-location-measurement statistics between adjacent locations.

    Args:
        entries: Statistics keyed by ordered pair ``(i, j)`` with
            ``i < j``; the reverse direction is derived on lookup.
    """

    def __init__(self, entries: Mapping[Tuple[int, int], PairStatistics]) -> None:
        self._entries: Dict[Tuple[int, int], PairStatistics] = {}
        for (i, j), stats in entries.items():
            if i >= j:
                raise ValueError(
                    f"motion database keys must satisfy i < j, got ({i}, {j})"
                )
            self._entries[(i, j)] = stats
        self._dense_views: Dict[Tuple[int, ...], DenseMotionView] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def has_pair(self, start_id: int, end_id: int) -> bool:
        """Whether the database knows the hop between two locations."""
        if start_id == end_id:
            return False
        key = (min(start_id, end_id), max(start_id, end_id))
        return key in self._entries

    def entry(self, start_id: int, end_id: int) -> PairStatistics:
        """The statistics for walking from ``start_id`` to ``end_id``.

        Derives the reverse entry through mutual reachability when the
        stored key runs the other way.

        Raises:
            KeyError: if the pair is not in the database.
        """
        if start_id == end_id:
            raise KeyError("the motion database stores no self-transitions")
        key = (min(start_id, end_id), max(start_id, end_id))
        try:
            stored = self._entries[key]
        except KeyError:
            raise KeyError(
                f"no motion entry between locations {start_id} and {end_id}"
            ) from None
        if start_id < end_id:
            return stored
        return stored.reversed()

    def neighbors_of(self, location_id: int) -> List[int]:
        """Locations the database says are reachable from ``location_id``."""
        found = set()
        for i, j in self._entries:
            if i == location_id:
                found.add(j)
            elif j == location_id:
                found.add(i)
        return sorted(found)

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        """All stored ``(i, j)`` keys (``i < j``), sorted."""
        return sorted(self._entries)

    # ------------------------------------------------------------------
    # Matrix view
    # ------------------------------------------------------------------

    def as_matrix(self, location_ids: List[int]) -> np.ndarray:
        """The paper's ``n x n`` matrix view over the given locations.

        Returns an ``(n, n, 4)`` array holding the quadruple
        ``(mu_d, sigma_d, mu_o, sigma_o)`` per ordered pair, with NaN for
        pairs the database does not cover (including the diagonal).
        """
        n = len(location_ids)
        index = {lid: k for k, lid in enumerate(location_ids)}
        matrix = np.full((n, n, 4), np.nan)
        for i, j in self._entries:
            if i not in index or j not in index:
                continue
            for a, b in ((i, j), (j, i)):
                stats = self.entry(a, b)
                matrix[index[a], index[b]] = (
                    stats.direction_mean_deg,
                    stats.direction_std_deg,
                    stats.offset_mean_m,
                    stats.offset_std_m,
                )
        return matrix

    def dense_view(
        self, location_ids: Optional[List[int]] = None
    ) -> DenseMotionView:
        """A cached :class:`DenseMotionView` over the given locations.

        Args:
            location_ids: Row/column order of the view; defaults to every
                location the database mentions, ascending.  Views are
                cached per id tuple, so repeated calls (one per serving
                tick) cost a dict lookup.
        """
        if location_ids is None:
            mentioned = set()
            for i, j in self._entries:
                mentioned.add(i)
                mentioned.add(j)
            location_ids = sorted(mentioned)
        key = tuple(location_ids)
        if key not in self._dense_views:
            matrix = self.as_matrix(list(location_ids))
            view = DenseMotionView(
                location_ids=key,
                direction_mean_deg=matrix[:, :, 0],
                direction_std_deg=matrix[:, :, 1],
                offset_mean_m=matrix[:, :, 2],
                offset_std_m=matrix[:, :, 3],
                valid=np.isfinite(matrix[:, :, 0]),
            )
            for array in (
                view.direction_mean_deg,
                view.direction_std_deg,
                view.offset_mean_m,
                view.offset_std_m,
                view.valid,
            ):
                array.setflags(write=False)
            self._dense_views[key] = view
        return self._dense_views[key]
