"""The cluster coordinator: route, tick, merge, supervise, reshard.

A :class:`ClusterCoordinator` fronts a set of shard transports
(:class:`~repro.cluster.transport.LocalShard` or
:class:`~repro.cluster.transport.ProcessShard`, freely mixed) and
presents the single-engine serving surface at cluster scale:

* **Routing** — every session has one home shard, decided by
  rendezvous hashing (:class:`~repro.cluster.routing.ShardRouter`);
  each tick's events are partitioned by home and delivered as
  per-shard sub-batches.
* **Tick alignment** — *every* shard is ticked *every* tick, empty
  sub-batch or not.  Quarantine expiries and WAL indexing are absolute
  tick indices, so all shard engines must count the same clock; an
  idle shard skipping ticks would drift its timeline.
* **Merging** — per-shard
  :class:`~repro.serving.engine.TickOutcome` responses merge into one
  :class:`ClusterTickOutcome` whose ``fixes`` align with the
  coordinator's original event order, and whose category tuples are
  sorted back into event order — byte-for-byte the report a single
  engine would produce for the same batch.
* **Supervision** — a request that finds a shard dead
  (:class:`~repro.cluster.transport.ShardDown`) triggers respawn; the
  replacement worker recovers itself from its checkpoint + WAL, and
  the coordinator re-delivers the unacknowledged request.  For a tick
  that the dead worker had already served, the worker's
  ``replay_tick`` path answers idempotently (see
  :mod:`repro.cluster.worker`) — the merged fix stream stays bitwise
  identical to a fault-free run.
* **Resharding** — :meth:`ClusterCoordinator.reshard` moves sessions
  to a new topology by checkpoint handoff: each moving session leaves
  its old shard as a checkpoint entry and is loaded by its new home,
  mid-run, without touching the sessions that stay put (rendezvous
  hashing keeps that set to ~1/(N+1) when growing by one shard).

The coordinator has no admission queue of its own: overload shedding
happens once at the front door, in the ingress
(:mod:`repro.ingress`), before routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..db.epochs import Update, update_to_dict
from ..observability import MetricsRegistry
from ..serving.engine import (
    CHECKPOINT_FORMAT_VERSION,
    EPOCHAL_CHECKPOINT_FORMAT_VERSION,
    IntervalEvent,
    SessionFault,
    TickOutcome,
)
from .core import (
    ShardTicker,
    fleet_snapshot,
    flip_cluster_epoch,
    partition_events,
    supervised_request,
)
from .routing import ShardRouter

__all__ = ["ClusterTickOutcome", "ClusterCoordinator"]


@dataclass(frozen=True)
class ClusterTickOutcome:
    """One cluster tick's merged report.

    The first nine fields mirror
    :class:`~repro.serving.engine.TickOutcome`, merged across shards
    and re-sorted into the coordinator's event order.  The extras say
    what the cluster layer itself did.

    Attributes:
        fixes: One entry per event, in the coordinator's event order.
        served: Session ids served fresh this tick.
        faulted: Per-session failures, in event order.
        quarantined: Session ids skipped under quarantine.
        duplicates: Session ids answered idempotently from the cache.
        stale: Session ids whose event was dropped as out-of-order.
        shed: Session ids degraded to the fast path by a tick budget.
        evicted: Session ids removed by strike-out.
        unroutable: Session ids no shard engine knows.
        recovered_shards: Shards respawned while serving this tick.
        replayed_shards: Shards that answered this tick from their
            duplicate cache (a post-recovery re-delivery).
        by_shard: Each shard's own outcome, for attribution.
    """

    fixes: List[object]
    served: Tuple[str, ...]
    faulted: Tuple[SessionFault, ...]
    quarantined: Tuple[str, ...]
    duplicates: Tuple[str, ...]
    stale: Tuple[str, ...]
    shed: Tuple[str, ...]
    evicted: Tuple[str, ...]
    unroutable: Tuple[str, ...] = ()
    recovered_shards: Tuple[str, ...] = ()
    replayed_shards: Tuple[str, ...] = ()
    by_shard: Dict[str, TickOutcome] = field(default_factory=dict, repr=False)


class ClusterCoordinator:
    """Routes a shared event stream across supervised shard workers.

    Args:
        shards: The shard transports, already started; shard ids must
            be unique.
        metrics: Registry for the coordinator's own counters (a fresh
            one when omitted).  Shard engines keep their own registries;
            :meth:`metrics_snapshot` merges them, keeping the final
            snapshot of every shard a reshard retires.

    Raises:
        ValueError: for zero shards or duplicate shard ids.
    """

    def __init__(
        self,
        shards: Sequence[object],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        ids = [shard.shard_id for shard in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids!r}")
        self._shards: Dict[str, object] = {
            shard.shard_id: shard for shard in shards
        }
        self._tickers: Dict[str, ShardTicker] = {
            shard.shard_id: ShardTicker(shard) for shard in shards
        }
        self.router = ShardRouter(ids)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tick_index = 0
        self._retired_snapshots: List[Dict[str, object]] = []
        self._c_ticks = self.metrics.counter("cluster.ticks")
        self._c_events = self.metrics.counter("cluster.events")
        self._c_recoveries = self.metrics.counter("cluster.recoveries")
        self._c_redelivered = self.metrics.counter("cluster.redelivered")
        self._c_reshards = self.metrics.counter("cluster.reshards")
        self._c_migrated = self.metrics.counter("cluster.migrated_sessions")
        self._c_epoch_flips = self.metrics.counter("cluster.epoch_flips")
        self._c_epoch_aborts = self.metrics.counter("cluster.epoch_aborts")
        self._g_shards = self.metrics.gauge("cluster.shards")
        self._g_sessions = self.metrics.gauge("cluster.sessions")
        self._g_shards.set(len(self._shards))

    @property
    def tick_index(self) -> int:
        """The cluster-wide tick counter (every shard engine matches)."""
        return self._tick_index

    @property
    def shards(self) -> Dict[str, object]:
        """The live transports, by shard id."""
        return dict(self._shards)

    # ------------------------------------------------------------------
    # Supervised requests
    # ------------------------------------------------------------------

    def _request(
        self, shard_id: str, payload: Dict[str, object]
    ) -> Tuple[Dict[str, object], bool]:
        """Send one request, respawning and retrying once on a dead shard.

        Returns:
            ``(reply, recovered)`` where ``recovered`` says the shard
            had to be respawned to answer.
        """
        reply, recovered = supervised_request(self._shards[shard_id], payload)
        if recovered:
            self._c_recoveries.inc()
        return reply, recovered

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def add_session(self, entry: Dict[str, object]) -> str:
        """Admit one session (a checkpoint entry) to its home shard.

        Build the entry with
        :func:`~repro.cluster.bootstrap.fresh_session_entry` for a new
        session, or hand over one produced by
        :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint_session`.

        Returns:
            The shard id the session now lives on.
        """
        shard_id = self.router.route(entry["session_id"])
        self._request(shard_id, {"op": "add_session", "entry": entry})
        return shard_id

    def session_homes(self) -> Dict[str, str]:
        """Every live session's home shard (asks the workers)."""
        homes: Dict[str, str] = {}
        for shard_id in self.router.shard_ids:
            reply, _ = self._request(shard_id, {"op": "ping"})
            for session_id in reply["sessions"]:
                homes[session_id] = shard_id
        return homes

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def tick(self, events: Sequence[IntervalEvent]) -> List[object]:
        """Serve one cluster tick (see :meth:`tick_detailed`)."""
        return self.tick_detailed(events).fixes

    def tick_detailed(
        self, events: Sequence[IntervalEvent]
    ) -> ClusterTickOutcome:
        """Route one tick's events, serve every shard, merge the outcomes.

        Every shard receives a tick request — an empty one if no event
        routed to it — so all shard engines advance in lockstep with
        the cluster tick index.
        """
        self._tick_index += 1
        self._c_ticks.inc()
        self._c_events.inc(len(events))
        order, groups = partition_events(self.router, events)

        fixes: List[object] = [None] * len(events)
        by_shard: Dict[str, TickOutcome] = {}
        recovered: List[str] = []
        replayed: List[str] = []
        # Split-phase dispatch through the shared tick core: write every
        # shard's request before collecting any reply, so transports
        # with a ``send``/``receive`` pair (subprocess workers) serve
        # the tick concurrently instead of in turn.  A shard that fails
        # either half is recovered in the collect phase: respawn from
        # checkpoint + WAL, then re-deliver — the worker answers a tick
        # its predecessor already served idempotently, so recovery here
        # is bitwise invisible exactly as it is for a serial request.
        for shard_id in self.router.shard_ids:
            self._tickers[shard_id].send(
                [event for _, event in groups[shard_id]]
            )
        for shard_id in self.router.shard_ids:
            outcome, was_replayed, was_recovered = self._tickers[
                shard_id
            ].collect()
            if was_recovered:
                recovered.append(shard_id)
                self._c_recoveries.inc()
            if was_replayed:
                replayed.append(shard_id)
                self._c_redelivered.inc()
            by_shard[shard_id] = outcome
            for (slot, _), fix in zip(groups[shard_id], outcome.fixes):
                fixes[slot] = fix

        def merge(name: str) -> Tuple[str, ...]:
            ids = [
                session_id
                for shard_id in self.router.shard_ids
                for session_id in getattr(by_shard[shard_id], name)
            ]
            return tuple(sorted(ids, key=lambda sid: order.get(sid, -1)))

        faulted = tuple(
            sorted(
                (
                    fault
                    for shard_id in self.router.shard_ids
                    for fault in by_shard[shard_id].faulted
                ),
                key=lambda fault: order.get(fault.session_id, -1),
            )
        )
        return ClusterTickOutcome(
            fixes=fixes,
            served=merge("served"),
            faulted=faulted,
            quarantined=merge("quarantined"),
            duplicates=merge("duplicates"),
            stale=merge("stale"),
            shed=merge("shed"),
            evicted=merge("evicted"),
            unroutable=merge("unroutable"),
            recovered_shards=tuple(recovered),
            replayed_shards=tuple(replayed),
            by_shard=by_shard,
        )

    # ------------------------------------------------------------------
    # Epoch flips
    # ------------------------------------------------------------------

    def epoch_status(self) -> Dict[str, int]:
        """Every shard's current epoch id (asks the workers).

        Raises:
            ValueError: if the shards span more than two consecutive
                epochs — a state no (possibly interrupted) flip can
                produce, so something other than this coordinator moved
                them.
        """
        epochs: Dict[str, int] = {}
        for shard_id in self.router.shard_ids:
            reply, _ = self._request(shard_id, {"op": "epoch_status"})
            epochs[shard_id] = int(reply["epoch"])
        if max(epochs.values()) - min(epochs.values()) > 1:
            raise ValueError(
                f"cluster epochs diverged beyond one flip: {epochs!r}"
            )
        return epochs

    def advance_epoch(self, updates: Sequence[Update]) -> Dict[str, object]:
        """Flip the whole cluster to the next database epoch, atomically.

        Two phases over the line protocol:

        1. **Prepare** — every shard stages the next epoch from the
           update batch (a pure computation; no serving or durable state
           changes) and answers with its content checksum.  Staging is
           deterministic and order-insensitive, so agreement on the
           checksum proves every shard computed the *same* database.
           Any prepare failure — a shard error, or checksum
           disagreement — aborts the flip on every shard and raises; the
           cluster keeps serving the old epoch as if nothing happened.
        2. **Commit** — every shard WAL-logs the flip and adopts the
           staged epoch.  The commit carries the update batch, so a
           worker killed after prepare (its staged snapshot died with
           the process) re-stages and commits in one idempotent step
           after its supervised respawn.

        A coordinator (or caller) killed between the phases leaves the
        shards split across two consecutive epochs; calling this method
        again with the *same* batch completes the interrupted flip —
        committed shards re-prove their checksum, lagging shards catch
        up.  A *different* batch fails the prepare checksum comparison
        and aborts.

        Args:
            updates: The update batch to compact into the next epoch
                (may be empty: an epoch bump with identical contents).

        Returns:
            ``{"epoch": <new id>, "checksum": <content checksum>}``.

        Raises:
            ValueError: on checksum disagreement between shards.
            ClusterWireError: if any shard rejects a phase (e.g. a
                non-epochal deployment).
        """
        serialized = [update_to_dict(update) for update in updates]

        def ask(shard_id: str, payload: Dict[str, object]) -> Dict[str, object]:
            reply, _ = self._request(shard_id, payload)
            return reply

        try:
            result = flip_cluster_epoch(
                ask, self.router.shard_ids, serialized
            )
        except Exception:
            self._c_epoch_aborts.inc()
            raise
        self._c_epoch_flips.inc()
        return result

    # ------------------------------------------------------------------
    # Resharding
    # ------------------------------------------------------------------

    def reshard(self, shards: Sequence[object]) -> Dict[str, Tuple[str, str]]:
        """Migrate to a new shard topology by checkpoint handoff.

        Args:
            shards: The complete new topology — surviving transports
                (the same objects) plus newly started ones.  Shards
                absent from the list are drained and shut down.

        Returns:
            ``{session_id: (old_shard, new_shard)}`` for every migrated
            session.

        New shards are first aligned to the cluster tick (an empty
        restore pins their engines' tick index), then each moving
        session is captured on its old shard
        (``checkpoint_session`` + removal, one durable handoff op) and
        loaded on its new home.  Sessions whose home is unchanged are
        untouched — no serving pause, no state churn.
        """
        new_ids = [shard.shard_id for shard in shards]
        if len(set(new_ids)) != len(new_ids):
            raise ValueError(f"duplicate shard ids in {new_ids!r}")
        new_by_id = {shard.shard_id: shard for shard in shards}
        new_router = ShardRouter(new_ids)
        old_homes = self.session_homes()

        moved: Dict[str, Tuple[str, str]] = {}
        outgoing: Dict[str, List[str]] = {}
        for session_id, old_home in old_homes.items():
            new_home = new_router.route(session_id)
            if new_home != old_home:
                moved[session_id] = (old_home, new_home)
                outgoing.setdefault(old_home, []).append(session_id)

        # Align brand-new shards to the cluster clock before they host
        # anyone: an empty restore sets their engines' tick index.  On
        # an epochal cluster the restore also carries the served epoch
        # (snapshot contents travel with the checkpoint), so a shard
        # added after N flips joins at epoch N, not at its spec's
        # epoch 0 — migrated sessions land on the database they left.
        added = [sid for sid in new_router.shard_ids if sid not in self._shards]
        epoch_payload: Optional[Dict[str, object]] = None
        if added:
            reply, _ = self._request(
                self.router.shard_ids[0], {"op": "epoch_status"}
            )
            if reply.get("epochal"):
                epoch_payload = reply["snapshot"]
        for shard_id in added:
            checkpoint: Dict[str, object] = {
                "kind": "engine_checkpoint",
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "tick_index": self._tick_index,
                "sessions": [],
            }
            if epoch_payload is not None:
                checkpoint["format_version"] = (
                    EPOCHAL_CHECKPOINT_FORMAT_VERSION
                )
                checkpoint["epoch"] = epoch_payload
            new_by_id[shard_id].request(
                {"op": "restore", "checkpoint": checkpoint}
            )

        entries: List[Tuple[str, Dict[str, object]]] = []
        for old_home, session_ids in outgoing.items():
            reply, _ = self._request(
                old_home, {"op": "handoff", "session_ids": session_ids}
            )
            for entry in reply["entries"]:
                entries.append((moved[entry["session_id"]][1], entry))
        retired = {
            shard_id: self._shards[shard_id]
            for shard_id in self.router.shard_ids
            if shard_id not in new_by_id
        }
        # Drained, a retired shard's counts are final; the merged
        # snapshot keeps them so no counter goes backwards.
        self._retired_snapshots.extend(
            self._request(shard_id, {"op": "metrics"})[0]["metrics"]
            for shard_id in retired
        )

        self._shards = dict(new_by_id)
        # Fresh tickers, pinned to the shared cluster tick: surviving
        # shards are already there, and added shards were aligned by
        # their empty restore above.
        self._tickers = {
            shard_id: ShardTicker(shard, tick_index=self._tick_index)
            for shard_id, shard in new_by_id.items()
        }
        self.router = new_router
        for new_home, entry in entries:
            self._request(new_home, {"op": "add_session", "entry": entry})
        for transport in retired.values():
            transport.shutdown()
        self._c_reshards.inc()
        self._c_migrated.inc(len(moved))
        self._g_shards.set(len(self._shards))
        self._g_sessions.set(len(old_homes))
        return moved

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """The whole cluster's metrics as one JSON document.

        Returns:
            ``{"schema": 3, "coordinator": ..., "shards": {id: ...},
            "merged": ...}``: every live shard engine's snapshot, and
            ``merged`` summing them and retired shards into one engine
            document (see :func:`~repro.cluster.core.fleet_snapshot`).
            The ``cluster.sessions`` gauge is set here, to the sum of
            the live shards' ``engine.sessions``.
        """
        shard_snapshots = {
            shard_id: self._request(shard_id, {"op": "metrics"})[0]["metrics"]
            for shard_id in self.router.shard_ids
        }
        # A shard that never held a session has never set its gauge.
        self._g_sessions.set(
            sum(
                snapshot["engine"]["gauges"]["engine.sessions"] or 0
                for snapshot in shard_snapshots.values()
            )
        )
        return fleet_snapshot(
            {"coordinator": self.metrics.snapshot()},
            shard_snapshots,
            self._retired_snapshots,
        )

    def shutdown(self) -> None:
        """Cleanly stop every shard."""
        for shard in self._shards.values():
            shard.shutdown()
