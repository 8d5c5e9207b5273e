"""The batch matcher: many queries against the database in one einsum.

Sequentially, each interval pays one ``(L, A)`` einsum against the mean
matrix (``L`` locations, ``A`` APs).  Under concurrent sessions the
engine stacks all pending queries into a ``(B, L, A)`` difference tensor
and reduces it with a single ``np.einsum("bij,bij->bi", ...)`` — one
kernel launch for the whole tick.

Bitwise equivalence with the sequential path is a hard requirement (the
golden-trace tests assert it), and it holds by construction:

* the broadcasted subtraction produces, per batch row, exactly the
  ``mean_matrix - query`` array the sequential path computes;
* masked columns are selected then normalized to a C-contiguous layout —
  the same normalization :meth:`FingerprintDatabase.distance_vector`
  applies — so the 3-D einsum accumulates each row in the same order as
  the sequential 2-D kernel (and the scalar 1-D kernel in
  :meth:`Fingerprint.dissimilarity`);
* ranking uses a stable argsort, which equals the sequential
  ``sorted(..., key=(dissimilarity, location_id))`` because matrix rows
  are in ascending-id order;
* Eq. 4 probabilities come from the shared
  :func:`~repro.core.matching.candidates_from_ranked`.

Batches bucket by active-AP mask: requests sharing a mask share a
tensor.  Distinct ``k`` values within a bucket are fine — ``k`` only
affects the per-row ranking prefix.

A content-addressed LRU cache fronts the matcher: the candidate set is
a pure function of ``(scan, mask, k)``, so sessions replaying the same
recorded walk (the standard load-test workload, and a real pattern —
popular routes produce near-identical scan sequences) skip the matrix
work entirely.  Two hardening rules on the cache:

* **Entries are immutable.**  Candidate sets are stored and returned as
  tuples — the cache hands the same object to every caller, so a
  mutable list would let one caller's in-place edit corrupt every later
  hit.
* **Duplicates within one batch coalesce.**  N requests with the same
  key in one ``match_batch`` call compute (and store) exactly one row;
  the duplicates are counted as ``coalesced_hits`` rather than paying
  N einsum rows and N stores for one key.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fingerprint import Fingerprint, FingerprintDatabase
from ..core.matching import Candidate, candidates_from_ranked
from ..observability import DEFAULT_SIZE_BUCKETS, MetricsRegistry

__all__ = ["MatchRequest", "BatchMatcher"]


@dataclass(frozen=True)
class MatchRequest:
    """One session's matching work for a tick.

    Attributes:
        fingerprint: The sanitized query.
        k: The resolved candidate-set size (no None here — the engine
            resolves defaults before batching).
        active_aps: The per-AP mask, or None for all-active.
    """

    fingerprint: Fingerprint
    k: int
    active_aps: Optional[Tuple[bool, ...]] = None


class BatchMatcher:
    """Vectorized, cached Eq. 3/4 matching against one database.

    Args:
        database: The fingerprint database all sessions share.
        cache_size: Entries kept in the (scan, mask, k) → candidates
            LRU; 0 disables caching.
        metrics: Registry receiving the matcher's metrics (a fresh one
            when omitted).  The ``cache_hits``/``cache_misses``
            properties are views over its counters.
    """

    def __init__(
        self,
        database: FingerprintDatabase,
        cache_size: int = 8192,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._db = database
        self._ids = database.matrix_ids
        self._cache_size = cache_size
        self._cache: "OrderedDict[tuple, Tuple[Candidate, ...]]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_hits = self.metrics.counter("matcher.cache_hits")
        self._c_misses = self.metrics.counter("matcher.cache_misses")
        self._c_coalesced = self.metrics.counter("matcher.coalesced_hits")
        self._c_rows = self.metrics.counter("matcher.einsum_rows")
        self._c_evictions = self.metrics.counter("matcher.evictions")
        self._c_batches = self.metrics.counter("matcher.batches")
        self._h_buckets = self.metrics.histogram(
            "matcher.mask_buckets", DEFAULT_SIZE_BUCKETS
        )

    @property
    def cache_hits(self) -> int:
        """Lookups served from the LRU since construction."""
        return self._c_hits.value

    @property
    def cache_misses(self) -> int:
        """Lookups that had to compute since construction."""
        return self._c_misses.value

    @property
    def coalesced_hits(self) -> int:
        """Intra-batch duplicates served off another request's row."""
        return self._c_coalesced.value

    def match_batch(
        self, requests: Sequence[MatchRequest]
    ) -> List[Tuple[Candidate, ...]]:
        """Candidates for every request, in request order.

        Cache hits are filled immediately; misses are deduplicated by
        key (identical requests in one batch share a single computed
        row), bucketed by mask, and resolved with one einsum per bucket.
        The returned candidate sets are immutable tuples — the same
        object may be shared between callers and with the cache.
        """
        self._c_batches.inc()
        results: List[Optional[Tuple[Candidate, ...]]] = [None] * len(requests)
        buckets: Dict[
            Optional[Tuple[bool, ...]], List[Tuple[MatchRequest, tuple]]
        ] = {}
        # key -> slots awaiting that key's row; the first slot enqueues
        # the computation, later duplicates just subscribe to its result.
        pending_slots: Dict[tuple, List[int]] = {}
        for slot, request in enumerate(requests):
            key = self._key(request)
            waiters = pending_slots.get(key)
            if waiters is not None:
                waiters.append(slot)
                self._c_coalesced.inc()
                continue
            cached = self._lookup(key)
            if cached is not None:
                results[slot] = cached
                continue
            pending_slots[key] = [slot]
            buckets.setdefault(request.active_aps, []).append((request, key))
        self._h_buckets.observe(len(buckets))
        for mask, pending in buckets.items():
            rows = self._distances(
                [request.fingerprint for request, _ in pending], mask
            )
            self._c_rows.inc(len(pending))
            for (request, key), distances in zip(pending, rows):
                candidates = self._rank(distances, request.k)
                self._store(key, candidates)
                for slot in pending_slots[key]:
                    results[slot] = candidates
        return results  # type: ignore[return-value]

    def match_one(self, request: MatchRequest) -> Tuple[Candidate, ...]:
        """Match a single request (a batch of one, same cache)."""
        return self.match_batch([request])[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _key(self, request: MatchRequest) -> tuple:
        return (request.fingerprint.rss, request.active_aps, request.k)

    def _lookup(self, key: tuple) -> Optional[Tuple[Candidate, ...]]:
        if self._cache_size == 0:
            self._c_misses.inc()
            return None
        candidates = self._cache.get(key)
        if candidates is None:
            self._c_misses.inc()
            return None
        self._cache.move_to_end(key)
        self._c_hits.inc()
        return candidates

    def _store(self, key: tuple, candidates: Tuple[Candidate, ...]) -> None:
        if self._cache_size == 0:
            return
        self._cache[key] = candidates
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
            self._c_evictions.inc()

    def _distances(
        self,
        fingerprints: Sequence[Fingerprint],
        mask: Optional[Tuple[bool, ...]],
    ) -> np.ndarray:
        """Eq. 1 distances, shape ``(B, L)``, bitwise-sequential rows."""
        queries = np.stack([fp.as_array() for fp in fingerprints])
        diff = self._db.mean_matrix[np.newaxis, :, :] - queries[:, np.newaxis, :]
        if mask is not None:
            mask_array = np.asarray(mask, dtype=bool)
            diff = np.ascontiguousarray(diff[:, :, mask_array])
        return np.sqrt(np.einsum("bij,bij->bi", diff, diff))

    def _rank(self, distances: np.ndarray, k: int) -> Tuple[Candidate, ...]:
        """Top-``k`` ranking identical to the sequential sort.

        Rows are in ascending-id order, so a stable argsort on distance
        equals sorting by ``(distance, location_id)``.
        """
        if k < 1:
            raise ValueError(f"candidate set size k must be >= 1, got {k}")
        order = np.argsort(distances, kind="stable")[: min(k, len(self._ids))]
        ranked = [(self._ids[i], float(distances[i])) for i in order]
        return tuple(candidates_from_ranked(ranked))
