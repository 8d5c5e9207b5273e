"""RSS fingerprints and the fingerprint database (paper Sec. III-B, Eq. 1-2).

A fingerprint is the vector ``F = (f1, ..., fn)`` of RSS values from the
``n`` deployed APs.  The dissimilarity between two fingerprints is their
Euclidean distance (Eq. 1), and the plain fingerprinting location estimate
is the database entry minimizing that dissimilarity (Eq. 2).

The database keeps, per reference location, both the mean fingerprint
(used by Euclidean matching) and the per-AP standard deviation of the
survey samples (used by the Horus-style probabilistic baseline).

Matching supports an optional *active-AP mask*: a boolean vector marking
which AP readings participate in the distance.  The robustness layer uses
it to exclude APs its sanitizer has diagnosed as dead, so a floored slot
cannot dominate every dissimilarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Fingerprint", "FingerprintDatabase", "RSS_FLOOR_DBM", "RSS_CEILING_DBM"]

RSS_FLOOR_DBM = -100.0
"""Weakest physically reportable RSS; mirrors the radio layer's
sensitivity floor without importing upward through ``repro.radio``
(which itself builds :class:`FingerprintDatabase` objects)."""

RSS_CEILING_DBM = 0.0
"""No phone ever reports a WiFi RSS above 0 dBm; stronger values are
sensor garbage."""

_NEAREST_BLOCK = 256
"""Queries per difference tensor in :meth:`FingerprintDatabase.nearest_many`."""


@dataclass(frozen=True)
class Fingerprint:
    """An RSS fingerprint: one value per AP, in dBm, indexed by AP id."""

    rss: Tuple[float, ...]

    def __post_init__(self) -> None:
        # A caller-supplied list (or tuple of non-floats) must not survive
        # construction: the cached array and every downstream consumer
        # assume the vector is frozen at snapshot time.
        rss = self.rss
        if type(rss) is not tuple or any(type(v) is not float for v in rss):
            object.__setattr__(self, "rss", tuple(float(v) for v in rss))

    @classmethod
    def from_values(
        cls,
        values: Iterable[float],
        non_finite: str = "reject",
        floor_dbm: float = RSS_FLOOR_DBM,
    ) -> "Fingerprint":
        """Build a fingerprint from any iterable of RSS values.

        Args:
            values: Per-AP RSS readings in dBm.
            non_finite: What to do with NaN/inf readings: ``"reject"``
                (default) raises; ``"floor"`` normalizes them to
                ``floor_dbm`` — the explicit opt-in the scan sanitizer
                uses after flagging the fault.
            floor_dbm: The substitute value in ``"floor"`` mode.

        Raises:
            ValueError: on a non-finite reading in ``"reject"`` mode, or
                an unknown ``non_finite`` policy.
        """
        if non_finite not in ("reject", "floor"):
            raise ValueError(
                f"non_finite must be 'reject' or 'floor', got {non_finite!r}"
            )
        rss = tuple(float(v) for v in values)
        if not all(math.isfinite(v) for v in rss):
            if non_finite == "reject":
                raise ValueError(
                    "fingerprint contains non-finite RSS values; pass "
                    "non_finite='floor' to normalize them explicitly"
                )
            rss = tuple(v if math.isfinite(v) else floor_dbm for v in rss)
        return cls(rss)

    @property
    def n_aps(self) -> int:
        """The number of AP readings in this fingerprint."""
        return len(self.rss)

    def as_array(self) -> np.ndarray:
        """The fingerprint as a (read-only, cached) float array by AP id."""
        cached = self.__dict__.get("_array")
        if cached is None:
            cached = np.array(self.rss, dtype=float)
            cached.setflags(write=False)
            object.__setattr__(self, "_array", cached)
        return cached

    def truncated(self, n_aps: int) -> "Fingerprint":
        """The fingerprint restricted to the first ``n_aps`` APs.

        Used by the AP-count sweep (Fig. 7/8, Table I): a 6-AP scan
        truncates to the 4- or 5-AP deployment prefix.
        """
        if not 1 <= n_aps <= self.n_aps:
            raise ValueError(f"cannot truncate {self.n_aps}-AP fingerprint to {n_aps}")
        return Fingerprint(self.rss[:n_aps])

    def dissimilarity(
        self, other: "Fingerprint", active_aps: Optional[Sequence[bool]] = None
    ) -> float:
        """Euclidean dissimilarity ``phi(F, F')`` between fingerprints (Eq. 1).

        Args:
            other: The fingerprint to compare against.
            active_aps: Optional boolean mask (one flag per AP); masked-out
                APs do not contribute to the distance.  At least one AP
                must stay active.
        """
        if self.n_aps != other.n_aps:
            raise ValueError(
                f"fingerprint lengths differ: {self.n_aps} vs {other.n_aps}"
            )
        diff = self.as_array() - other.as_array()
        if active_aps is not None:
            mask = _validated_mask(active_aps, self.n_aps)
            diff = diff[mask]
        # The same einsum kernel as the database's (vectorized) matching:
        # on contiguous arrays the 1-D, 2-D, and batched 3-D reductions
        # accumulate in the same order, so one query scored alone is
        # bit-identical to the same query scored in a batch.
        return float(np.sqrt(np.einsum("j,j->", diff, diff)))


def _validated_mask(active_aps: Sequence[bool], n_aps: int) -> np.ndarray:
    """An active-AP mask as a boolean array, checked for shape and support."""
    mask = np.asarray(active_aps, dtype=bool)
    if mask.shape != (n_aps,):
        raise ValueError(
            f"active-AP mask has shape {mask.shape}, expected ({n_aps},)"
        )
    if not mask.any():
        raise ValueError("active-AP mask excludes every AP")
    return mask


class FingerprintDatabase:
    """Location -> fingerprint mappings built during the site survey.

    Args:
        means: Per-location mean fingerprint, keyed by location id.
        stds: Optional per-location, per-AP sample standard deviations
            (same vector length as the means), for probabilistic matching.
    """

    def __init__(
        self,
        means: Mapping[int, Fingerprint],
        stds: Optional[Mapping[int, Tuple[float, ...]]] = None,
    ) -> None:
        if not means:
            raise ValueError("fingerprint database cannot be empty")
        lengths = {fp.n_aps for fp in means.values()}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent fingerprint lengths in database: {lengths}")
        self._means: Dict[int, Fingerprint] = dict(means)
        # Copy the std *vectors*, not just the mapping: a caller-retained
        # list must not alias into the database (epoch snapshots depend
        # on construction freezing the contents).
        self._stds: Dict[int, Tuple[float, ...]] = {
            lid: tuple(float(v) for v in std)
            for lid, std in (stds or {}).items()
        }
        (self._n_aps,) = lengths
        # Dense views for vectorized matching, built once: row r of the
        # matrix is the mean fingerprint of self._matrix_ids[r].
        self._matrix_ids: List[int] = sorted(self._means)
        self._mean_matrix: np.ndarray = np.array(
            [self._means[lid].rss for lid in self._matrix_ids], dtype=float
        )
        self._mean_matrix.setflags(write=False)
        for location_id, std in self._stds.items():
            if location_id not in self._means:
                raise ValueError(f"std given for unknown location {location_id}")
            if len(std) != self._n_aps:
                raise ValueError(
                    f"std length {len(std)} != fingerprint length {self._n_aps}"
                )

    @classmethod
    def from_samples(
        cls, samples: Mapping[int, Sequence[Sequence[float]]]
    ) -> "FingerprintDatabase":
        """Build the database from raw survey scans.

        Args:
            samples: Per-location list of RSS scan vectors (each a sequence
                of per-AP dBm values).  The stored fingerprint is the
                per-AP mean; per-AP standard deviations are kept for
                probabilistic baselines.
        """
        means: Dict[int, Fingerprint] = {}
        stds: Dict[int, Tuple[float, ...]] = {}
        for location_id, scans in samples.items():
            matrix = np.asarray(scans, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] == 0:
                raise ValueError(
                    f"location {location_id} needs a non-empty 2-D sample block"
                )
            means[location_id] = Fingerprint.from_values(matrix.mean(axis=0))
            stds[location_id] = tuple(matrix.std(axis=0, ddof=0))
        return cls(means, stds)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_aps(self) -> int:
        """The fingerprint vector length stored in this database."""
        return self._n_aps

    @property
    def location_ids(self) -> List[int]:
        """All surveyed location ids, ascending."""
        return sorted(self._means)

    @property
    def matrix_ids(self) -> List[int]:
        """Location ids in mean-matrix row order (ascending)."""
        return list(self._matrix_ids)

    @property
    def mean_matrix(self) -> np.ndarray:
        """The read-only dense mean-fingerprint matrix (row order
        :attr:`matrix_ids`); the batched serving engine matches whole
        query batches against this one cached array."""
        return self._mean_matrix

    def __len__(self) -> int:
        return len(self._means)

    def __contains__(self, location_id: int) -> bool:
        return location_id in self._means

    def fingerprint_of(self, location_id: int) -> Fingerprint:
        """The surveyed mean fingerprint of a location (``phi^-1`` of Eq. 3)."""
        try:
            return self._means[location_id]
        except KeyError:
            raise KeyError(f"no fingerprint for location {location_id}") from None

    def std_of(self, location_id: int) -> Tuple[float, ...]:
        """Per-AP sample standard deviations at a location.

        Raises:
            KeyError: if the database was built without sample statistics.
        """
        try:
            return self._stds[location_id]
        except KeyError:
            raise KeyError(f"no sample statistics for location {location_id}") from None

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def dissimilarities(
        self, query: Fingerprint, active_aps: Optional[Sequence[bool]] = None
    ) -> Dict[int, float]:
        """``phi(F, F')`` from the query to every database entry (Eq. 1).

        Vectorized over the whole database.  With ``active_aps`` given,
        masked-out APs are excluded from every distance — the masked-AP
        matching the robustness layer uses to survive a dead AP.
        """
        distances = self.distance_vector(query, active_aps)
        return dict(zip(self._matrix_ids, distances.tolist()))

    def distance_vector(
        self, query: Fingerprint, active_aps: Optional[Sequence[bool]] = None
    ) -> np.ndarray:
        """Eq. 1 distances to every entry, in :attr:`matrix_ids` row order.

        The array-level core of :meth:`dissimilarities`; the batched
        serving engine consumes this directly (or its batched twin,
        ``np.einsum("bij,bij->bi", ...)`` over stacked queries) without
        paying for a dict per query.  The masked diff is normalized to a
        C-contiguous layout so the einsum accumulates in the same order
        as the batched 3-D kernel — one query scored alone is
        bit-identical to the same query scored inside a batch.
        """
        if query.n_aps != self._n_aps:
            raise ValueError(
                f"query has {query.n_aps} APs but database stores {self._n_aps}"
            )
        diff = self._mean_matrix - query.as_array()
        if active_aps is not None:
            mask = _validated_mask(active_aps, self._n_aps)
            diff = np.ascontiguousarray(diff[:, mask])
        distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return distances

    def nearest(
        self, query: Fingerprint, active_aps: Optional[Sequence[bool]] = None
    ) -> int:
        """The plain fingerprinting estimate ``l(F)`` (Eq. 2).

        Ties break on the lower location id, keeping results deterministic.
        """
        dissimilarities = self.dissimilarities(query, active_aps)
        return min(dissimilarities, key=lambda lid: (dissimilarities[lid], lid))

    def nearest_many(self, queries: Sequence[Fingerprint]) -> List[int]:
        """:meth:`nearest` for every query, in query order.

        ``(B, L, A)`` difference tensors reduced by
        ``np.einsum("bij,bij->bi", ...)``: each row accumulates in the
        order the 2-D kernel of :meth:`distance_vector` does, so every
        estimate equals :meth:`nearest`'s.  ``argmin`` keeps the first
        of equal distances, the lowest id, as :meth:`nearest` does.
        """
        if not queries:
            return []
        for query in queries:
            if query.n_aps != self._n_aps:
                raise ValueError(
                    f"query has {query.n_aps} APs but database stores {self._n_aps}"
                )
        ids = self._matrix_ids
        nearest: List[int] = []
        # Blocks of queries bound the difference tensor's size.
        for start in range(0, len(queries), _NEAREST_BLOCK):
            block = np.stack(
                [q.as_array() for q in queries[start : start + _NEAREST_BLOCK]]
            )
            diff = self._mean_matrix[np.newaxis, :, :] - block[:, np.newaxis, :]
            distances = np.sqrt(np.einsum("bij,bij->bi", diff, diff))
            nearest.extend(ids[i] for i in np.argmin(distances, axis=1).tolist())
        return nearest

    def truncated(self, n_aps: int) -> "FingerprintDatabase":
        """A database restricted to the first ``n_aps`` APs (AP-count sweeps)."""
        if not 1 <= n_aps <= self._n_aps:
            raise ValueError(f"cannot truncate {self._n_aps}-AP database to {n_aps}")
        means = {lid: fp.truncated(n_aps) for lid, fp in self._means.items()}
        stds = {lid: std[:n_aps] for lid, std in self._stds.items()}
        return FingerprintDatabase(means, stds)
