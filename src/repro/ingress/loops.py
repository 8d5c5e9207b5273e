"""Deterministic per-shard event loops: the async schedule, replayable.

This module is the ingress layer's *semantics*, separated from its
transport.  :class:`IngressDriver` executes an open-loop
:class:`~repro.sim.evaluation.ArrivalSchedule` against supervised shard
workers exactly the way the asyncio front door
(:class:`~repro.ingress.server.IngressServer`) does — per-shard
admission queues, a batch window that starts at each shard's first
queued arrival, an early tick when a shard's batch fills — but on a
:class:`~repro.serving.clock.LogicalClock` instead of the wall clock,
so the entire interleaving is a pure function of the schedule:

* each shard ticks when *its own* deadline or batch-full condition
  fires, never because some other shard did (no coordinator lockstep);
* ties are broken deterministically (arrivals before same-instant
  deadlines, deadlines in shard-id order), so two runs of one schedule
  produce byte-identical timelines;
* per-session event order is preserved end to end — the admission
  queue is FIFO per session and a batch carries at most one event per
  session — which is precisely the property that keeps the async path
  bitwise-equal to the lockstep
  :class:`~repro.cluster.coordinator.ClusterCoordinator`
  (:func:`lockstep_fix_streams`, the reference this driver is gated
  against in ``python -m repro gate async-lockstep``).

The driver is also the latency model for capacity planning: every
arrival gets a disposition (served / duplicate / stale / shed /
rejected / dropped / ...) and a queueing latency on the logical
timeline, aggregated into the ``ingress.latency_s`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..cluster.core import ShardTicker, flip_cluster_epoch
from ..cluster.routing import ShardRouter
from ..db.epochs import update_to_dict
from ..observability import MetricsRegistry
from ..serving.admission import AdmissionController
from ..serving.engine import IntervalEvent
from ..sim.evaluation import Arrival

__all__ = [
    "IngressConfig",
    "EventDisposition",
    "IngressResult",
    "IngressDriver",
    "event_of",
    "lockstep_fix_streams",
]

# Terminal dispositions that carry a fix object (possibly None for the
# cacheless duplicate edge case) and a queueing latency.
_ANSWERED = ("served", "duplicate", "stale", "shed")


@dataclass(frozen=True)
class IngressConfig:
    """The ingress layer's batching and backpressure policy.

    Attributes:
        batch_window_s: How long a shard waits after its first queued
            arrival before ticking, collecting whatever else lands in
            the window into one batch.  0 ticks every arrival alone.
        max_batch: Tick immediately once a shard has this many events
            queued, without waiting out the window (None: window only).
        admission_capacity: Each shard's admission-queue bound.
        admission_policy: ``"reject-newest"`` or ``"drop-oldest"``
            (see :class:`~repro.serving.admission.AdmissionController`).
    """

    batch_window_s: float = 0.05
    max_batch: Optional[int] = 16
    admission_capacity: int = 256
    admission_policy: str = "reject-newest"

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ValueError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1 or None, got {self.max_batch}"
            )


@dataclass
class EventDisposition:
    """What happened to one arrival, and when.

    Attributes:
        session_id: The arriving event's session.
        sequence: The arriving event's sequence number.
        shard_id: The home shard it was routed to.
        arrival_s: When it reached the front door (schedule clock).
        status: Terminal state — ``served`` / ``duplicate`` / ``stale``
            / ``shed`` / ``quarantined`` / ``faulted`` / ``evicted`` /
            ``unroutable`` / ``rejected`` (full queue, reject-newest)
            / ``dropped`` (displaced by drop-oldest); ``queued`` only
            while in flight.
        done_s: When its answer (or refusal) was determined.
    """

    session_id: str
    sequence: Optional[int]
    shard_id: str
    arrival_s: float
    status: str = "queued"
    done_s: Optional[float] = None

    @property
    def latency_s(self) -> Optional[float]:
        """Front-door-to-answer latency (None while still queued)."""
        if self.done_s is None:
            return None
        return self.done_s - self.arrival_s


@dataclass
class IngressResult:
    """One schedule's full outcome under the ingress driver.

    Attributes:
        fixes: Per session, the fix stream in served order — the
            bitwise-comparable artifact (None entries for stale drops,
            exactly as the engine reports them).
        dispositions: One entry per arrival, in arrival order.
        ticks_by_shard: How many ticks each shard's loop ran.
    """

    fixes: Dict[str, List[object]]
    dispositions: List[EventDisposition] = field(default_factory=list)
    ticks_by_shard: Dict[str, int] = field(default_factory=dict)

    def count(self, status: str) -> int:
        """How many arrivals ended in ``status``."""
        return sum(1 for d in self.dispositions if d.status == status)

    @property
    def latencies_s(self) -> List[float]:
        """Queueing latency of every answered arrival, arrival order."""
        return [
            d.latency_s for d in self.dispositions if d.status in _ANSWERED
        ]


def event_of(arrival: Arrival) -> IntervalEvent:
    """The engine event for one scheduled arrival: a copy of its interval.

    The copy is the point.  :class:`IngressDriver` keys in-flight
    arrivals by ``id(event)``, and a reconnect-storm redelivery carries
    the *same* interval object as the original, so the two may sit in
    one admission queue at once; each arrival needs its own object.
    """
    return replace(arrival.interval)


def _status_of(outcome: object, session_id: str) -> str:
    """Classify one batched event by its session's outcome membership.

    A batch carries at most one event per session, so session-level
    membership identifies the event's disposition unambiguously.
    ``served`` includes shed sessions; the more specific label wins.
    """
    for status, members in (
        ("duplicate", outcome.duplicates),
        ("stale", outcome.stale),
        ("quarantined", outcome.quarantined),
        ("unroutable", outcome.unroutable),
        ("evicted", outcome.evicted),
        ("shed", outcome.shed),
        ("served", outcome.served),
    ):
        if session_id in members:
            return status
    if any(fault.session_id == session_id for fault in outcome.faulted):
        return "faulted"
    return "unroutable"


class IngressDriver:
    """Event-driven per-shard serving over a deterministic timeline.

    Args:
        shards: Started shard transports
            (:class:`~repro.cluster.transport.LocalShard` or
            :class:`~repro.cluster.transport.ProcessShard`); ids must
            be unique.  Each shard gets its own
            :class:`~repro.cluster.core.ShardTicker` starting at the
            worker's *own* tick index — the loops deliberately diverge,
            unlike the lockstep coordinator.
        config: Batching and backpressure policy.
        metrics: Registry for the ingress counters and the
            ``ingress.latency_s`` histogram (fresh when omitted).

    Raises:
        ValueError: for zero shards or duplicate shard ids.
    """

    def __init__(
        self,
        shards: Sequence[object],
        config: IngressConfig = IngressConfig(),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        ids = [shard.shard_id for shard in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids!r}")
        self.router = ShardRouter(ids)
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tickers: Dict[str, ShardTicker] = {}
        for shard in shards:
            reply, _ = ShardTicker(shard).request({"op": "ping"})
            self._tickers[shard.shard_id] = ShardTicker(
                shard, tick_index=int(reply["tick"])
            )
        self._admission: Dict[str, AdmissionController] = {
            shard_id: AdmissionController(
                config.admission_capacity,
                policy=config.admission_policy,
                on_evict=(
                    lambda event, shard_id=shard_id: self._on_evict(
                        shard_id, event
                    )
                ),
            )
            for shard_id in ids
        }
        self._c_arrivals = self.metrics.counter("ingress.arrivals")
        self._c_rejected = self.metrics.counter("ingress.rejected")
        self._c_dropped = self.metrics.counter("ingress.dropped")
        self._c_ticks = self.metrics.counter("ingress.ticks")
        self._c_recoveries = self.metrics.counter("ingress.recoveries")
        self._h_latency = self.metrics.histogram("ingress.latency_s")
        # Live only during run(): id(event) -> disposition, and the
        # current logical instant (the evict callback needs both).
        self._inflight: Dict[int, EventDisposition] = {}
        self._now_s = 0.0

    def add_session(self, entry: Dict[str, object]) -> str:
        """Admit one session (a checkpoint entry) to its home shard."""
        shard_id = self.router.route(entry["session_id"])
        self._tickers[shard_id].request(
            {"op": "add_session", "entry": entry}
        )
        return shard_id

    def request(
        self, shard_id: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """A supervised non-tick request to one shard (e.g. metrics)."""
        reply, recovered = self._tickers[shard_id].request(payload)
        if recovered:
            self._c_recoveries.inc()
        return reply

    def advance_epoch(self, updates: Sequence[object]) -> Dict[str, object]:
        """Flip every shard to the next database epoch between drains.

        The driver is synchronous, so the flip runs inline through the
        shared two-phase protocol
        (:func:`~repro.cluster.core.flip_cluster_epoch`); call it
        between :meth:`run` invocations to model a mid-deployment flip
        on the deterministic timeline.

        Args:
            updates: :data:`~repro.db.epochs.Update` objects to compact
                into the next epoch.

        Returns:
            ``{"epoch": <new id>, "checksum": <content checksum>}``.
        """
        serialized = [update_to_dict(update) for update in updates]

        def ask(shard_id: str, payload: Dict[str, object]) -> Dict[str, object]:
            return self.request(shard_id, payload)

        return flip_cluster_epoch(
            ask, list(self.router.shard_ids), serialized
        )

    def _on_evict(self, shard_id: str, event: IntervalEvent) -> None:
        disposition = self._inflight.pop(id(event), None)
        self._c_dropped.inc()
        if disposition is not None:
            disposition.status = "dropped"
            disposition.done_s = self._now_s

    def run(self, arrivals: Sequence[Arrival]) -> IngressResult:
        """Replay one open-loop schedule to completion.

        Arrivals are processed in time order (stable on ties); each
        shard's loop fires on its own deadline or batch-full condition;
        after the last arrival every loop drains its queue (a session's
        second queued event waits for the next tick, so draining may
        take several).

        Returns:
            The per-session fix streams, per-arrival dispositions, and
            per-shard tick counts.
        """
        ordered = sorted(arrivals, key=lambda arrival: arrival.t_s)
        result = IngressResult(
            fixes={},
            ticks_by_shard={shard_id: 0 for shard_id in self.router.shard_ids},
        )
        deadlines: Dict[str, float] = {}
        self._inflight = {}
        self._now_s = 0.0

        def fire(shard_id: str, fire_s: float) -> None:
            self._now_s = max(self._now_s, fire_s)
            deadlines.pop(shard_id, None)
            admission = self._admission[shard_id]
            batch = admission.drain(self.config.max_batch)
            if not batch:
                return
            outcome, _, recovered = self._tickers[shard_id].tick(batch)
            result.ticks_by_shard[shard_id] += 1
            self._c_ticks.inc()
            if recovered:
                self._c_recoveries.inc()
            for event, fix in zip(batch, outcome.fixes):
                disposition = self._inflight.pop(id(event))
                disposition.status = _status_of(outcome, event.session_id)
                disposition.done_s = self._now_s
                result.fixes.setdefault(event.session_id, []).append(fix)
                self._h_latency.observe(disposition.latency_s)
            if len(admission):
                # Held-back same-session events start a fresh window.
                deadlines[shard_id] = self._now_s + self.config.batch_window_s

        def fire_due(limit_s: Optional[float]) -> None:
            # Strictly-before-the-limit deadlines fire first; a deadline
            # tying an arrival instant waits so the arrival can join the
            # batch (the asyncio server behaves the same way: the
            # sleeping loop wakes after same-instant I/O is processed).
            while deadlines:
                shard_id = min(deadlines, key=lambda s: (deadlines[s], s))
                due_s = deadlines[shard_id]
                if limit_s is not None and due_s >= limit_s:
                    return
                fire(shard_id, due_s)

        for arrival in ordered:
            fire_due(arrival.t_s)
            self._now_s = max(self._now_s, arrival.t_s)
            event = event_of(arrival)
            shard_id = self.router.route(event.session_id)
            disposition = EventDisposition(
                session_id=event.session_id,
                sequence=event.sequence,
                shard_id=shard_id,
                arrival_s=arrival.t_s,
            )
            result.dispositions.append(disposition)
            self._c_arrivals.inc()
            self._inflight[id(event)] = disposition
            admission = self._admission[shard_id]
            if not admission.offer(event):
                self._inflight.pop(id(event))
                disposition.status = "rejected"
                disposition.done_s = arrival.t_s
                self._c_rejected.inc()
                continue
            if shard_id not in deadlines:
                deadlines[shard_id] = arrival.t_s + self.config.batch_window_s
            if (
                self.config.max_batch is not None
                and len(admission) >= self.config.max_batch
            ):
                fire(shard_id, arrival.t_s)
        fire_due(None)
        return result


def lockstep_fix_streams(
    coordinator: object,
    arrivals: Sequence[Arrival],
    max_batch: Optional[int] = None,
) -> Dict[str, List[object]]:
    """The lockstep reference the async driver is held bitwise to.

    Feeds the same arrivals, in the same global order, through one
    shared admission queue into
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.tick_detailed`
    batches until the queue is dry.  The tick grouping differs wildly
    from the per-shard loops — that is the point: per-session fix
    streams must come out identical anyway, because the engine's
    batched-equals-sequential contract makes them a function of
    per-session event order alone.

    Returns:
        Per-session fix streams, in served order.
    """
    ordered = sorted(arrivals, key=lambda arrival: arrival.t_s)
    admission = AdmissionController(capacity=max(1, len(ordered)))
    for arrival in ordered:
        admission.offer(arrival.interval)
    fixes: Dict[str, List[object]] = {}
    while len(admission):
        batch = admission.drain(max_batch)
        outcome = coordinator.tick_detailed(batch)
        for event, fix in zip(batch, outcome.fixes):
            fixes.setdefault(event.session_id, []).append(fix)
    return fixes
