"""The shared tick core: supervised per-shard dispatch, two drivers.

Everything both cluster drivers need to tick a shard correctly lives
here, so the lockstep :class:`~repro.cluster.coordinator.ClusterCoordinator`
and the event-driven per-shard loops in :mod:`repro.ingress` cannot
drift apart on the parts that make recovery bitwise-invisible:

* :func:`supervised_request` — one request, with respawn-and-redeliver
  on a dead shard.  The replacement worker recovers itself from its
  checkpoint + WAL; re-delivering the unacknowledged payload lets its
  ``replay_tick`` path answer idempotently.
* :class:`ShardTicker` — one shard's tick timeline.  Builds each tick
  payload at ``tick_index + 1`` (the only index the worker accepts for
  fresh work), supports split-phase ``send``/``collect`` so a driver
  can dispatch several shards before awaiting any reply, and routes
  both halves through the supervised path.
* :func:`fleet_snapshot` — the metrics document both drivers serve.

The two drivers differ only in *when* they tick:

* the lockstep coordinator ticks **every** shard **every** cluster
  tick (empty sub-batches included), keeping all shard engines on one
  shared tick index — the closed-loop replay harness;
* an ingress shard loop ticks **its own** shard when arrivals or its
  batching deadline say so, so each shard's engine counts only its own
  ticks and one slow shard never stalls the others — the open-loop
  front door.

Per-session serving state never sees the difference: the engine's
batched-equals-sequential contract (PR 2) makes a session's fix stream
a function of its own event order, not of how events were grouped into
ticks, which is exactly the property the async-vs-lockstep
bitwise-equality gate (``python -m repro gate async-lockstep``,
``tests/ingress/``) asserts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..observability import MetricsRegistry
from ..serving.checkpoint import event_to_dict
from ..serving.engine import METRICS_SCHEMA_VERSION, IntervalEvent, TickOutcome
from .messages import outcome_from_dict
from .transport import ShardDown

__all__ = [
    "supervised_request",
    "ShardTicker",
    "partition_events",
    "flip_cluster_epoch",
    "fleet_snapshot",
]


def fleet_snapshot(
    front: Dict[str, object],
    shards: Dict[str, Dict[str, object]],
    retired: Iterable[Dict[str, object]] = (),
) -> Dict[str, object]:
    """``{"schema": 3, **front, "shards": shards, "merged": ...}``.

    ``merged`` aggregates the engine sections of ``shards`` (live
    shards' snapshots, by id) and ``retired`` (final snapshots of
    shards resharded away, so no merged counter drops).
    """
    snapshots = [*shards.values(), *retired]
    merged: Dict[str, object] = {
        section: MetricsRegistry.aggregate(
            snapshot[section] for snapshot in snapshots
        )
        for section in ("engine", "matcher", "transitions", "sessions")
    }
    merged["schema"] = METRICS_SCHEMA_VERSION
    return {
        "schema": METRICS_SCHEMA_VERSION,
        **front,
        "shards": shards,
        "merged": merged,
    }


def supervised_request(
    shard: object, payload: Dict[str, object]
) -> Tuple[Dict[str, object], bool]:
    """Send one request, respawning and retrying once on a dead shard.

    Returns:
        ``(reply, recovered)`` where ``recovered`` says the shard had
        to be respawned to answer.  The respawned worker recovers
        itself from checkpoint + WAL before the redelivery, so for an
        already-served tick the retry is answered idempotently.
    """
    try:
        return shard.request(payload), False
    except ShardDown:
        shard.respawn()
        return shard.request(payload), True


class ShardTicker:
    """One shard's supervised tick timeline.

    Args:
        shard: The transport (:class:`~repro.cluster.transport.LocalShard`
            or :class:`~repro.cluster.transport.ProcessShard`).
        tick_index: The shard engine's current tick index.  The
            lockstep coordinator pins every ticker to the shared
            cluster index; an ingress loop starts each ticker at its
            worker's own index and lets them diverge.
    """

    def __init__(self, shard: object, tick_index: int = 0) -> None:
        self.shard = shard
        self.tick_index = int(tick_index)
        self._payload: Optional[Dict[str, object]] = None
        self._dispatched = False

    @property
    def shard_id(self) -> str:
        """The underlying transport's shard id."""
        return self.shard.shard_id

    def request(
        self, payload: Dict[str, object]
    ) -> Tuple[Dict[str, object], bool]:
        """A supervised non-tick request (see :func:`supervised_request`)."""
        return supervised_request(self.shard, payload)

    def send(self, events: Sequence[IntervalEvent]) -> None:
        """First half of :meth:`tick`: dispatch without awaiting the reply.

        Advances this ticker's index and writes the tick request when
        the transport supports split-phase dispatch (``send``);
        otherwise the payload is held for :meth:`collect` to deliver as
        a blocking request.  A shard that is already down at send time
        is *not* respawned here — recovery happens in :meth:`collect`,
        where the redelivery can be answered in one supervised step.

        Raises:
            RuntimeError: if a previous :meth:`send` was never
                collected (tick requests cannot be pipelined deeper
                than one).
        """
        if self._payload is not None:
            raise RuntimeError(
                f"shard {self.shard_id!r} has an uncollected tick in "
                "flight; collect() it before sending another"
            )
        self.tick_index += 1
        self._payload = {
            "op": "tick",
            "tick": self.tick_index,
            "events": [event_to_dict(event) for event in events],
        }
        self._dispatched = False
        sender = getattr(self.shard, "send", None)
        if sender is None:
            return
        try:
            sender(self._payload)
            self._dispatched = True
        except ShardDown:
            # Leave _dispatched False: collect() takes the supervised
            # respawn-and-redeliver path for the whole round trip.
            pass

    def collect(self) -> Tuple[TickOutcome, bool, bool]:
        """Second half of :meth:`tick`: await and decode the reply.

        Returns:
            ``(outcome, replayed, recovered)`` — the shard's tick
            outcome, whether the worker answered from its duplicate
            cache (a post-recovery re-delivery), and whether it had to
            be respawned.

        Raises:
            RuntimeError: if there is no sent tick to collect.
        """
        payload, self._payload = self._payload, None
        if payload is None:
            raise RuntimeError(
                f"shard {self.shard_id!r} has no tick in flight to collect"
            )
        if self._dispatched:
            try:
                reply, recovered = self.shard.receive(), False
            except ShardDown:
                self.shard.respawn()
                reply, recovered = self.shard.request(payload), True
        else:
            reply, recovered = supervised_request(self.shard, payload)
        outcome = outcome_from_dict(reply["outcome"])
        return outcome, bool(reply["replayed"]), recovered

    def tick(
        self, events: Sequence[IntervalEvent]
    ) -> Tuple[TickOutcome, bool, bool]:
        """One supervised tick round trip (``send`` + ``collect``)."""
        self.send(events)
        return self.collect()


def flip_cluster_epoch(
    request,
    shard_ids: Sequence[str],
    updates: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Drive one two-phase epoch flip over a set of shards.

    The protocol both drivers share (the lockstep coordinator and the
    async ingress front door), expressed over a ``request(shard_id,
    payload) -> reply`` callable so each driver supplies its own
    supervision and threading discipline:

    1. **Status** — read every shard's epoch.  All-equal means a fresh
       flip to the next epoch; a one-apart split means an interrupted
       flip, and the target is the epoch the leaders already committed
       (re-running with the same batch completes it).
    2. **Prepare** — every shard stages the target epoch from the
       update batch (pure, no durable change) and answers with its
       content checksum.  Staging is deterministic and
       order-insensitive, so checksum agreement proves every shard
       computed the same database.  Any failure or disagreement aborts
       the flip on every reachable shard and re-raises — staged state
       is process-local, so abort is best-effort by design.
    3. **Commit** — every shard WAL-logs the flip and adopts the staged
       epoch.  The commit carries the batch, so a worker respawned
       after prepare re-stages and commits in one idempotent step.

    Args:
        request: ``(shard_id, payload) -> reply`` — must raise on
            failure.
        shard_ids: The shards to flip, in dispatch order.
        updates: The update batch, already serialized
            (:func:`~repro.db.epochs.update_to_dict`).

    Returns:
        ``{"epoch": <new id>, "checksum": <content checksum>}``.

    Raises:
        ValueError: if shard epochs diverge beyond one interrupted
            flip, or the prepare checksums disagree.
    """
    updates = list(updates)
    epochs = {
        shard_id: int(request(shard_id, {"op": "epoch_status"})["epoch"])
        for shard_id in shard_ids
    }
    low, high = min(epochs.values()), max(epochs.values())
    if high - low > 1:
        raise ValueError(
            f"cluster epochs diverged beyond one flip: {epochs!r}"
        )
    target = high + 1 if high == low else high

    checksums: Dict[str, str] = {}
    try:
        for shard_id in shard_ids:
            reply = request(
                shard_id,
                {"op": "epoch_prepare", "target": target, "updates": updates},
            )
            checksums[shard_id] = str(reply["checksum"])
        if len(set(checksums.values())) > 1:
            short = {sid: c[:12] for sid, c in checksums.items()}
            raise ValueError(
                f"epoch {target} prepare disagreed on contents: {short!r}"
            )
    except Exception:
        for shard_id in shard_ids:
            try:
                request(shard_id, {"op": "epoch_abort", "target": target})
            except Exception:
                # Best-effort rollback: staged state is process-local
                # and dies with the worker anyway; the prepare failure
                # is the error worth surfacing.
                continue
        raise
    checksum = next(iter(checksums.values()))
    for shard_id in shard_ids:
        request(
            shard_id,
            {
                "op": "epoch_commit",
                "target": target,
                "checksum": checksum,
                "updates": updates,
            },
        )
    return {"epoch": target, "checksum": checksum}


def partition_events(
    router: object, events: Sequence[IntervalEvent]
) -> Tuple[Dict[str, int], Dict[str, List[Tuple[int, IntervalEvent]]]]:
    """Split one batch by home shard, remembering the original order.

    Returns:
        ``(order, groups)`` — each session id's first slot in the
        batch (the merge sort key), and per shard id the
        ``(slot, event)`` pairs routed to it (every shard id present,
        empty list or not).
    """
    order: Dict[str, int] = {}
    groups: Dict[str, List[Tuple[int, IntervalEvent]]] = {
        shard_id: [] for shard_id in router.shard_ids
    }
    for slot, event in enumerate(events):
        order.setdefault(event.session_id, slot)
        groups[router.route(event.session_id)].append((slot, event))
    return order, groups
