"""The metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency (stdlib only) and built for hot paths: incrementing a
counter is one attribute add, observing a histogram value is one bisect
plus two adds.  Everything is designed around three rules:

* **Instruments are get-or-create.**  ``registry.counter("x")`` returns
  the same object every call (one dict probe once created), so
  components can resolve their instruments once and pay only the
  increment at serving time.
* **Snapshots are plain JSON.**  :meth:`MetricsRegistry.snapshot`
  returns nested dicts of numbers — serializable with ``json.dumps``
  as-is, diffable, and stable in key order.
* **Counters are monotonic.**  ``inc`` rejects negative amounts and
  there is no way down.

A registry can be constructed disabled
(``MetricsRegistry(enabled=False)``), in which case every instrument it
hands out is a shared no-op — the mechanism the serving benchmark uses
to measure the cost of instrumentation itself.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
]

Number = Union[int, float]

DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)
"""Default histogram boundaries for wall-clock durations, in seconds."""

DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1024,
)
"""Default histogram boundaries for sizes/counts (batch widths etc.)."""

DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = (
    256,
    1024,
    4096,
    16384,
    65536,
    262144,
    1048576,
    4194304,
    16777216,
    67108864,
)
"""Default histogram boundaries for payload sizes in bytes (4x steps
from 256 B to 64 MiB — checkpoint documents, wire messages)."""


class Counter:
    """A monotonically increasing tally.

    Attributes:
        name: The registry-unique metric name.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0

    @property
    def value(self) -> Number:
        """The current tally."""
        return self._value

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (>= 0) to the tally.

        Raises:
            ValueError: for a negative amount (counters are monotonic).
        """
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self._value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Optional[Number] = None

    @property
    def value(self) -> Optional[Number]:
        """The most recently set value, or None if never set."""
        return self._value

    def set(self, value: Number) -> None:
        """Record the current value."""
        self._value = value

    def reset(self) -> None:
        """Forget the value (back to never-set)."""
        self._value = None


class Histogram:
    """A fixed-boundary histogram with count/sum/min/max.

    ``boundaries`` are upper-inclusive-exclusive split points: a value
    ``v`` lands in bucket ``i`` iff ``boundaries[i-1] <= v <
    boundaries[i]`` (with the open-ended overflow bucket at the end),
    i.e. ``counts`` has ``len(boundaries) + 1`` entries.

    Args:
        name: The registry-unique metric name.
        boundaries: Strictly increasing bucket split points.
    """

    __slots__ = ("name", "boundaries", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, boundaries: Sequence[Number]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly increasing"
            )
        self.name = name
        self.boundaries = bounds
        self._counts: List[int] = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @property
    def count(self) -> int:
        """How many values have been observed."""
        return self._count

    @property
    def sum(self) -> float:
        """The sum of all observed values."""
        return self._sum

    @property
    def counts(self) -> Tuple[int, ...]:
        """Per-bucket observation counts (last bucket is overflow)."""
        return tuple(self._counts)

    def observe(self, value: Number) -> None:
        """Record one value."""
        value = float(value)
        self._counts[bisect_right(self.boundaries, value)] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def reset(self) -> None:
        """Administrative reset (all buckets and aggregates to zero)."""
        self._counts = [0] * (len(self.boundaries) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def quantile(self, q: float) -> Optional[float]:
        """A bucket-interpolated quantile estimate (None when empty).

        The estimate interpolates linearly within the bucket holding
        the ``q``-th observation and is clamped to the observed
        ``[min, max]`` range, so ``quantile(0.0) == min`` and
        ``quantile(1.0) == max`` exactly.  Between those it is only as
        precise as the bucket boundaries — the usual fixed-bucket
        trade; deployments that need exact percentiles (the latency
        benchmarks) keep the raw samples instead.

        Raises:
            ValueError: for ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return None
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        target = q * self._count
        cumulative = 0
        for index, count in enumerate(self._counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower = (
                    self.boundaries[index - 1] if index > 0 else self._min
                )
                upper = (
                    self.boundaries[index]
                    if index < len(self.boundaries)
                    else self._max
                )
                fraction = (target - cumulative) / count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self._min), self._max)
            cumulative += count
        return self._max

    def to_dict(self) -> Dict[str, object]:
        """The JSON-serializable view of this histogram."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }


class _NullCounter(Counter):
    """A counter that ignores writes (disabled-registry instrument)."""

    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:  # noqa: D102 - interface
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )


class _NullGauge(Gauge):
    """A gauge that ignores writes."""

    __slots__ = ()

    def set(self, value: Number) -> None:  # noqa: D102 - interface
        pass


class _NullHistogram(Histogram):
    """A histogram that ignores observations."""

    __slots__ = ()

    def observe(self, value: Number) -> None:  # noqa: D102 - interface
        pass


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Args:
        enabled: When False, every instrument handed out is a write
            no-op and :meth:`snapshot` returns empty sections — the
            zero-cost baseline the overhead benchmark compares against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter under ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_name(name, self._counters)
            instrument = Counter(name) if self.enabled else _NullCounter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge under ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_name(name, self._gauges)
            instrument = Gauge(name) if self.enabled else _NullGauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, boundaries: Sequence[Number] = DEFAULT_LATENCY_BUCKETS_S
    ) -> Histogram:
        """The histogram under ``name``, created on first use.

        Raises:
            ValueError: if the name exists with different boundaries (a
                histogram's buckets are fixed at creation).
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_name(name, self._histograms)
            instrument = (
                Histogram(name, boundaries)
                if self.enabled
                else _NullHistogram(name, boundaries)
            )
            self._histograms[name] = instrument
        elif instrument.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} already exists with boundaries "
                f"{instrument.boundaries}"
            )
        return instrument

    def _check_name(self, name: str, own: Dict[str, object]) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"metric name must be a non-empty string, got {name!r}")
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not own and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}"
                )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The JSON-serializable state of every instrument.

        Returns:
            ``{"counters": {name: value}, "gauges": {name: value},
            "histograms": {name: {...}}}`` with names sorted, so two
            snapshots of identical state serialize identically.
        """
        if not self.enabled:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    @staticmethod
    def aggregate(
        snapshots: Iterable[Dict[str, Dict[str, object]]],
    ) -> Dict[str, Dict[str, object]]:
        """Combine snapshots from many registries into one view.

        Counters and histogram buckets sum; gauges keep the maximum
        (the aggregate answers "how bad does it get anywhere", e.g. the
        longest live coasting streak across shards).  Histograms must
        agree on boundaries.  Disjoint key sets merge by union: a
        counter or histogram present in only some snapshots contributes
        its values unchanged — cross-shard merges rely on this, since
        shards create instruments lazily and an idle shard may never
        have touched one its busier peers did.

        Snapshots may carry a top-level ``"schema"`` version stamp (as
        the engine's ``metrics_snapshot`` sections do when merged
        across a cluster).  All stamped snapshots must agree on it —
        silently summing counters from two different schema versions
        would produce a document no reader can interpret — and the
        agreed version is carried into the result.

        Raises:
            ValueError: if two snapshots disagree on a histogram's
                boundaries, or on the ``"schema"`` version stamp.
        """
        counters: Dict[str, Number] = {}
        gauges: Dict[str, Optional[Number]] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        schema: Optional[object] = None
        for snapshot in snapshots:
            if "schema" in snapshot:
                if schema is None:
                    schema = snapshot["schema"]
                elif snapshot["schema"] != schema:
                    raise ValueError(
                        "cannot aggregate metrics snapshots of different "
                        f"schema versions: {schema!r} vs "
                        f"{snapshot['schema']!r}"
                    )
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                if value is not None and (
                    gauges.get(name) is None or value > gauges[name]
                ):
                    gauges[name] = value
                else:
                    gauges.setdefault(name, gauges.get(name))
            for name, view in snapshot.get("histograms", {}).items():
                merged = histograms.get(name)
                if merged is None:
                    histograms[name] = {
                        "boundaries": list(view["boundaries"]),
                        "counts": list(view["counts"]),
                        "count": view["count"],
                        "sum": view["sum"],
                        "min": view["min"],
                        "max": view["max"],
                    }
                    continue
                if merged["boundaries"] != list(view["boundaries"]):
                    raise ValueError(
                        f"cannot aggregate histogram {name!r}: boundary mismatch"
                    )
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], view["counts"])
                ]
                merged["count"] += view["count"]
                merged["sum"] += view["sum"]
                for key, keep in (("min", min), ("max", max)):
                    if view[key] is not None:
                        merged[key] = (
                            view[key]
                            if merged[key] is None
                            else keep(merged[key], view[key])
                        )
        merged: Dict[str, Dict[str, object]] = {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }
        if schema is not None:
            merged["schema"] = schema
        return merged
