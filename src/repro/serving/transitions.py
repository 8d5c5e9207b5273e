"""Batched Eq. 5/6 transition evaluation over the dense motion tensor.

Sequentially, every candidate pays ``|prior|`` dict lookups, each
constructing a :class:`~repro.core.motion_db.PairStatistics` (and its
``__post_init__`` validation) before the Gaussian-interval math runs.
The serving engine replaces that with a
:class:`~repro.core.motion_db.DenseMotionView` — the motion database
gathered once into ``(n, n)`` parameter tables, unpacked here to plain
Python rows so the per-pair lookup is two list indexes — and a
content-addressed LRU on whole Eq. 6 vectors: the vector is pure in
``(prior, end ids, measurement)``, and sessions replaying the same walk
present identical priors a few ticks apart, so repeated vectors come
back without touching the math.

Bitwise equivalence with
:func:`~repro.core.motion_matching.set_transition_probability` holds
because the arithmetic is shared, not re-derived: the dense view stores
exactly the values :meth:`MotionDatabase.entry` returns (``tolist()``
round-trips float64 exactly), and
:func:`~repro.core.motion_matching.pair_probability_from_parameters`
runs the same helpers in the same order as ``pair_probability``.  The
prior is walked in the same order, zero-probability entries are skipped
identically, and the mixture accumulates left to right.  The stay
probability is computed once per vector instead of once per
self-transition — it is a pure function of (measurement, config), so
the value is identical.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import MoLocConfig
from ..core.motion_db import MotionDatabase
from ..core.motion_matching import (
    pair_probability_from_parameters,
    stay_probability,
)
from ..motion.rlm import MotionMeasurement
from ..observability import MetricsRegistry

__all__ = ["TransitionEvaluator"]


class TransitionEvaluator:
    """Cached Eq. 6 evaluation for one motion database and config.

    Args:
        motion_db: The deployment's motion database.
        config: Discretization intervals and the stay model; must match
            the sessions' configuration (the engine enforces this).
        set_cache_size: Entries in the whole-vector Eq. 6 LRU
            (0 disables).
        metrics: Registry receiving the evaluator's metrics (a fresh
            one when omitted); the ``set_cache_*`` properties are views
            over its counters.
    """

    def __init__(
        self,
        motion_db: MotionDatabase,
        config: MoLocConfig,
        set_cache_size: int = 16384,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if set_cache_size < 0:
            raise ValueError(
                f"set_cache_size must be >= 0, got {set_cache_size}"
            )
        view = motion_db.dense_view()
        self._config = config
        self._index: Dict[int, int] = {
            lid: k for k, lid in enumerate(view.location_ids)
        }
        # Plain Python rows: a list index is several times cheaper than
        # a numpy scalar read, and this lookup runs per (prior entry,
        # candidate) pair.  tolist() preserves float64 bit patterns.
        self._valid: List[List[bool]] = [
            [bool(v) for v in row] for row in view.valid.tolist()
        ]
        self._direction_mean: List[List[float]] = view.direction_mean_deg.tolist()
        self._direction_std: List[List[float]] = view.direction_std_deg.tolist()
        self._offset_mean: List[List[float]] = view.offset_mean_m.tolist()
        self._offset_std: List[List[float]] = view.offset_std_m.tolist()
        self._set_cache_size = set_cache_size
        self._set_cache: "OrderedDict[tuple, List[float]]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_hits = self.metrics.counter("transitions.set_cache_hits")
        self._c_misses = self.metrics.counter("transitions.set_cache_misses")
        self._c_evictions = self.metrics.counter("transitions.evictions")
        self._c_pairs = self.metrics.counter("transitions.pairs_evaluated")

    @property
    def config(self) -> MoLocConfig:
        """The configuration the cached probabilities assume."""
        return self._config

    @property
    def set_cache_hits(self) -> int:
        """Whole-vector Eq. 6 lookups served from cache."""
        return self._c_hits.value

    def evaluate(
        self,
        prior: Sequence[Tuple[int, float]],
        end_ids: Sequence[int],
        measurement: MotionMeasurement,
        beta_scale: Optional[float] = None,
        dwell: Optional[bool] = None,
    ) -> List[float]:
        """Eq. 6 for every candidate end location, in order.

        Bitwise-identical to calling
        :func:`~repro.core.motion_matching.set_transition_probability`
        per end id with the same prior, measurement, config, and speed
        state.  ``beta_scale``/``dwell`` are part of the vector's cache
        key: two sessions at different estimated speeds must not share a
        cached vector even when their priors and measurements agree.
        """
        prior_key = tuple(prior)
        ends_key = tuple(end_ids)
        direction = measurement.direction_deg
        offset = measurement.offset_m
        scale = 1.0 if beta_scale is None else beta_scale
        set_key = (prior_key, ends_key, direction, offset, scale, dwell)
        if self._set_cache_size > 0:
            cached = self._set_cache.get(set_key)
            if cached is not None:
                self._set_cache.move_to_end(set_key)
                self._c_hits.inc()
                return list(cached)
        self._c_misses.inc()

        config = self._config
        index = self._index
        valid = self._valid
        direction_mean = self._direction_mean
        direction_std = self._direction_std
        offset_mean = self._offset_mean
        offset_std = self._offset_std
        # Zero-probability prior entries are skipped exactly as the
        # sequential loop skips them; resolving view indices here keeps
        # the per-pair inner loop to two list reads.
        resolved = [
            (start_id, probability, index.get(start_id))
            for start_id, probability in prior_key
            if probability > 0.0
        ]
        stay: Optional[float] = None

        values: List[float] = []
        for end_id in ends_key:
            end_index = index.get(end_id)
            total = 0.0
            for start_id, probability, start_index in resolved:
                if start_id == end_id:
                    if stay is None:
                        stay = stay_probability(
                            measurement, config, scale, dwell
                        )
                    total += probability * stay
                elif (
                    start_index is not None
                    and end_index is not None
                    and valid[start_index][end_index]
                ):
                    total += probability * pair_probability_from_parameters(
                        direction_mean[start_index][end_index],
                        direction_std[start_index][end_index],
                        offset_mean[start_index][end_index],
                        offset_std[start_index][end_index],
                        direction,
                        offset,
                        config,
                        scale,
                    )
            values.append(total)

        self._c_pairs.inc(len(resolved) * len(ends_key))
        if self._set_cache_size > 0:
            self._set_cache[set_key] = values
            if len(self._set_cache) > self._set_cache_size:
                self._set_cache.popitem(last=False)
                self._c_evictions.inc()
        return list(values)
