"""The asyncio front door: per-shard loops behind a TCP line protocol.

:class:`IngressServer` is the deployment face of the ingress layer.  It
listens on a TCP socket, speaks the cluster's versioned JSON line
protocol (:mod:`repro.cluster.messages` — one
``encode_message``/``decode_message`` line each way, no pickle), and
serves arriving events through the same per-shard machinery the
deterministic :class:`~repro.ingress.loops.IngressDriver` models:

* **accept loop** — each connection's reader decodes one request line
  at a time.  A ``serve`` request's event is routed to its home shard
  and offered to that shard's bounded admission queue; a refused offer
  is answered *immediately* with ``status: "rejected"`` — admission is
  real backpressure at the front door, not an error after queueing.
* **per-shard loops** — one asyncio task per shard.  A loop sleeps
  until its shard has work, then waits out the batch window (cut short
  the moment ``max_batch`` events are queued), drains a batch, and
  ticks its shard on the shard's own timeline — no coordinator
  lockstep, so one slow shard never stalls the others.  The blocking
  tick runs in a dedicated single-thread executor per shard: shards
  serve concurrently, but each shard's timeline stays sequential.
* **answers** — every queued event has a waiting response future;
  batch completion resolves them with the fix and disposition, and the
  admission queue's ``on_evict`` callback resolves displaced events
  with ``status: "dropped"`` instead of leaving their clients hanging.
* **latency** — end-to-end (accept to answer) seconds are observed
  into the ``ingress.latency_s`` histogram, whose
  :meth:`~repro.observability.Histogram.quantile` powers the p50/p99
  SLO gate in ``benchmarks/bench_ingress_latency.py``.

Wire ops: ``serve``, ``add_session``, ``ping``, ``metrics``,
``advance_epoch``, ``shutdown``.  Every request may carry an ``id``
echoed in its reply,
so clients can pipeline requests on one connection even though answers
complete out of order (different batches, different shards).

:func:`replay_schedule` is the matching open-loop client: it replays an
:class:`~repro.sim.evaluation.ArrivalSchedule` against a server at
scheduled (optionally time-scaled) instants without waiting for
answers — arrivals never slow down when the server does, which is what
makes the measured latencies honest queueing latencies.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.core import ShardTicker, fleet_snapshot, flip_cluster_epoch
from ..cluster.messages import (
    ClusterWireError,
    decode_message,
    encode_message,
)
from ..cluster.routing import ShardRouter
from ..io.serialize import fix_to_dict
from ..observability import MetricsRegistry
from ..serving.admission import AdmissionController
from ..serving.checkpoint import event_from_dict, event_to_dict
from ..serving.engine import IntervalEvent
from ..sim.evaluation import Arrival
from .loops import IngressConfig, _status_of

__all__ = ["IngressServer", "replay_schedule"]


class _Pending:
    """One queued event's waiting client answer."""

    __slots__ = ("event", "future", "accepted_s")

    def __init__(
        self,
        event: IntervalEvent,
        future: "asyncio.Future",
        accepted_s: float,
    ) -> None:
        self.event = event
        self.future = future
        self.accepted_s = accepted_s


class IngressServer:
    """An asyncio TCP ingress over supervised shard workers.

    Args:
        shards: Started shard transports with unique ids.
        config: Batching and backpressure policy (the same
            :class:`~repro.ingress.loops.IngressConfig` the
            deterministic driver takes).
        host: Listen address.
        port: Listen port (0 picks a free one; see :attr:`address`).
        metrics: Registry for the ingress counters and latency
            histogram (fresh when omitted).
        clock: Time source for latency measurement (monotonic seconds);
            override in tests.
    """

    def __init__(
        self,
        shards: Sequence[object],
        config: IngressConfig = IngressConfig(),
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.perf_counter,
    ) -> None:
        ids = [shard.shard_id for shard in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids!r}")
        self.router = ShardRouter(ids)
        self.config = config
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
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
                    lambda event, shard_id=shard_id: self._answer_evicted(
                        shard_id, event
                    )
                ),
            )
            for shard_id in ids
        }
        self._pending: Dict[int, _Pending] = {}
        self._work: Dict[str, asyncio.Event] = {}
        self._executors: Dict[str, ThreadPoolExecutor] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loops: List[asyncio.Task] = []
        self._connections: Dict[int, asyncio.StreamWriter] = {}
        self._conn_closed: Dict[int, asyncio.Event] = {}
        self._handlers: set = set()
        self._stopping: Optional[asyncio.Event] = None
        self._c_arrivals = self.metrics.counter("ingress.arrivals")
        self._c_rejected = self.metrics.counter("ingress.rejected")
        self._c_dropped = self.metrics.counter("ingress.dropped")
        self._c_ticks = self.metrics.counter("ingress.ticks")
        self._c_recoveries = self.metrics.counter("ingress.recoveries")
        self._h_latency = self.metrics.histogram("ingress.latency_s")
        self._h_batch = self.metrics.histogram(
            "ingress.batch_size", boundaries=(1, 2, 4, 8, 16, 32, 64, 128)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def admit_session(self, entry: Dict[str, object]) -> str:
        """Admit one session (a checkpoint entry) to its home shard.

        The synchronous boot-time path (``python -m repro serve``
        pre-admits its workload before binding the socket); live
        clients use the ``add_session`` wire op instead.
        """
        shard_id = self.router.route(entry["session_id"])
        _, recovered = self._tickers[shard_id].request(
            {"op": "add_session", "entry": entry}
        )
        if recovered:
            self._c_recoveries.inc()
        return shard_id

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind the socket and start one loop task per shard."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._stopping = asyncio.Event()
        for shard_id in self.router.shard_ids:
            self._work[shard_id] = asyncio.Event()
            self._executors[shard_id] = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"ingress-{shard_id}"
            )
            self._loops.append(
                asyncio.ensure_future(self._shard_loop(shard_id))
            )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, drain nothing further, shut the loops down."""
        if self._server is None:
            return
        self._stopping.set()
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        for shard_id in self.router.shard_ids:
            self._work[shard_id].set()
        await asyncio.gather(*self._loops, return_exceptions=True)
        self._loops = []
        for pending in list(self._pending.values()):
            if not pending.future.done():
                pending.future.set_result(
                    {"ok": False, "error": "ingress server stopped"}
                )
        self._pending.clear()
        # Resolving the futures only schedules the respond tasks; the
        # transports must stay open until those tasks have written and
        # drained their replies, or the "stopped" answers are dropped
        # and clients see bare EOF.
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        # Only after every in-flight request has an answer on the wire:
        # close live connections so their handlers unwind through EOF
        # rather than being cancelled at loop teardown (a cancelled
        # handler makes asyncio's stream protocol log a traceback).
        for writer in list(self._connections.values()):
            writer.close()
        for closed in list(self._conn_closed.values()):
            await closed.wait()
        for executor in self._executors.values():
            executor.shutdown(wait=True)
        self._executors.clear()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` is requested (e.g. by a shutdown op)."""
        if self._stopping is None:
            raise RuntimeError("server is not started")
        await self._stopping.wait()

    # ------------------------------------------------------------------
    # Per-shard loops
    # ------------------------------------------------------------------

    def _batch_ready(self, shard_id: str) -> bool:
        max_batch = self.config.max_batch
        return (
            max_batch is not None
            and len(self._admission[shard_id]) >= max_batch
        )

    async def _shard_loop(self, shard_id: str) -> None:
        work = self._work[shard_id]
        admission = self._admission[shard_id]
        while not self._stopping.is_set():
            if not len(admission):
                work.clear()
                await work.wait()
                if self._stopping.is_set():
                    return
            # The window opens at the first queued arrival and is cut
            # short the moment the batch fills.
            if not self._batch_ready(shard_id) and self.config.batch_window_s:
                try:
                    await asyncio.wait_for(
                        self._full_event(shard_id),
                        timeout=self.config.batch_window_s,
                    )
                except asyncio.TimeoutError:
                    pass
                if self._stopping.is_set():
                    return
            batch = admission.drain(self.config.max_batch)
            if not batch:
                continue
            await self._tick(shard_id, batch)

    async def _full_event(self, shard_id: str) -> None:
        work = self._work[shard_id]
        while not self._batch_ready(shard_id) and not self._stopping.is_set():
            work.clear()
            await work.wait()

    async def _tick(
        self, shard_id: str, batch: List[IntervalEvent]
    ) -> None:
        ticker = self._tickers[shard_id]
        loop = asyncio.get_event_loop()
        try:
            outcome, _, recovered = await loop.run_in_executor(
                self._executors[shard_id], ticker.tick, batch
            )
        except Exception as error:  # noqa: BLE001 - answer, don't hang
            for event in batch:
                pending = self._pending.pop(id(event), None)
                if pending is not None and not pending.future.done():
                    pending.future.set_result(
                        {"ok": False, "error": repr(error)}
                    )
            return
        self._c_ticks.inc()
        self._h_batch.observe(len(batch))
        if recovered:
            self._c_recoveries.inc()
        done_s = self.clock()
        for event, fix in zip(batch, outcome.fixes):
            pending = self._pending.pop(id(event), None)
            if pending is None:
                continue
            latency_s = done_s - pending.accepted_s
            self._h_latency.observe(latency_s)
            if not pending.future.done():
                pending.future.set_result(
                    {
                        "ok": True,
                        "status": _status_of(outcome, event.session_id),
                        "fix": None if fix is None else fix_to_dict(fix),
                        "latency_s": latency_s,
                    }
                )

    def _answer_evicted(self, shard_id: str, event: IntervalEvent) -> None:
        self._c_dropped.inc()
        pending = self._pending.pop(id(event), None)
        if pending is not None and not pending.future.done():
            pending.future.set_result(
                {"ok": True, "status": "dropped", "fix": None}
            )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Each request is handled in its own task so one event waiting
        # out its batch window never blocks the connection's reader —
        # clients pipeline freely and match replies by their ``id``
        # echo (answers complete out of order across shards/batches).
        write_lock = asyncio.Lock()
        in_flight: set = set()

        async def respond(line: str) -> None:
            replies = await self._handle_line(line)
            async with write_lock:
                for reply in replies:
                    writer.write((encode_message(reply) + "\n").encode())
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass

        conn_id = id(writer)
        self._connections[conn_id] = writer
        self._conn_closed[conn_id] = asyncio.Event()
        try:
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    respond(line.decode("utf-8").strip())
                )
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
                self._handlers.add(task)
                task.add_done_callback(self._handlers.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
            writer.close()
            self._connections.pop(conn_id, None)
            self._conn_closed.pop(conn_id).set()

    async def _handle_line(self, line: str) -> List[Dict[str, object]]:
        try:
            request = decode_message(line)
        except ClusterWireError as error:
            return [{"ok": False, "error": repr(error)}]
        request_id = request.get("id")
        try:
            reply = await self._handle(request)
        except Exception as error:  # noqa: BLE001 - the loop must survive
            reply = {"ok": False, "error": repr(error)}
        if request_id is not None:
            reply = dict(reply)
            reply["id"] = request_id
        return [reply]

    async def _handle(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        op = request.get("op")
        if op == "serve":
            return await self._handle_serve(request)
        if op == "ping":
            return {
                "ok": True,
                "shards": list(self.router.shard_ids),
                "depth": {
                    shard_id: len(self._admission[shard_id])
                    for shard_id in self.router.shard_ids
                },
            }
        if op == "add_session":
            loop = asyncio.get_event_loop()
            entry = request["entry"]
            shard_id = self.router.route(entry["session_id"])
            _, recovered = await loop.run_in_executor(
                self._executors[shard_id],
                self._tickers[shard_id].request,
                {"op": "add_session", "entry": entry},
            )
            if recovered:
                self._c_recoveries.inc()
            return {"ok": True, "shard_id": shard_id}
        if op == "metrics":
            return {"ok": True, "metrics": await self.metrics_snapshot_async()}
        if op == "advance_epoch":
            return await self._handle_advance_epoch(request)
        if op == "shutdown":
            self._stopping.set()
            for work in self._work.values():
                work.set()
            return {"ok": True, "bye": True}
        raise ClusterWireError(f"unknown ingress op {op!r}")

    async def _handle_advance_epoch(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Flip every shard to the next database epoch, mid-serving.

        Runs the shared two-phase protocol
        (:func:`~repro.cluster.core.flip_cluster_epoch`) with each
        shard request routed through that shard's single-thread
        executor — the same serialization discipline as ticks, so a
        flip can never interleave with a shard's in-flight batch.  The
        protocol itself runs in a helper thread: it blocks on one shard
        at a time, and the event loop must keep accepting (and
        rejecting or queueing) arrivals meanwhile.
        """
        updates = list(request.get("updates", []))

        def ask(shard_id: str, payload: Dict[str, object]) -> Dict[str, object]:
            reply, recovered = (
                self._executors[shard_id]
                .submit(self._tickers[shard_id].request, payload)
                .result()
            )
            if recovered:
                self._c_recoveries.inc()
            return reply

        loop = asyncio.get_event_loop()
        result = await loop.run_in_executor(
            None,
            flip_cluster_epoch,
            ask,
            list(self.router.shard_ids),
            updates,
        )
        return {
            "ok": True,
            "epoch": result["epoch"],
            "checksum": result["checksum"],
        }

    async def _handle_serve(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        if self._stopping is not None and self._stopping.is_set():
            # Late arrival racing the shutdown sweep: answering now
            # keeps stop()'s handler gather from waiting on a future
            # nothing will ever resolve.
            return {"ok": False, "error": "ingress server stopped"}
        event = event_from_dict(request["event"])
        self._c_arrivals.inc()
        shard_id = self.router.route(event.session_id)
        admission = self._admission[shard_id]
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[id(event)] = _Pending(event, future, self.clock())
        if not admission.offer(event):
            # Real backpressure: the refusal is the reply, sent now,
            # before any queueing — the client learns immediately that
            # the front door is saturated.
            self._pending.pop(id(event), None)
            self._c_rejected.inc()
            return {"ok": True, "status": "rejected", "fix": None}
        self._work[shard_id].set()
        return await future

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    async def metrics_snapshot_async(self) -> Dict[str, object]:
        """Ingress and admission counters, every shard's own snapshot.

        The coordinator's document shape
        (:func:`~repro.cluster.core.fleet_snapshot`), so ``merged`` sums
        the shards.  Each shard is asked through its executor, so a
        snapshot never interleaves with that shard's in-flight tick.
        """
        loop = asyncio.get_event_loop()
        shard_snapshots: Dict[str, object] = {}
        for shard_id in self.router.shard_ids:
            reply, recovered = await loop.run_in_executor(
                self._executors[shard_id],
                self._tickers[shard_id].request,
                {"op": "metrics"},
            )
            if recovered:
                self._c_recoveries.inc()
            shard_snapshots[shard_id] = reply["metrics"]
        admission = {
            shard_id: self._admission[shard_id].metrics.snapshot()
            for shard_id in self.router.shard_ids
        }
        return fleet_snapshot(
            {"ingress": self.metrics.snapshot(), "admission": admission},
            shard_snapshots,
        )

    def latency_quantiles(
        self, quantiles: Sequence[float] = (0.5, 0.99)
    ) -> Dict[str, Optional[float]]:
        """Interpolated latency quantiles, e.g. ``{"p50": ..., "p99": ...}``."""
        return {
            f"p{int(round(q * 100))}": self._h_latency.quantile(q)
            for q in quantiles
        }


async def replay_schedule(
    host: str,
    port: int,
    arrivals: Sequence[Arrival],
    time_scale: float = 1.0,
    connections: int = 8,
) -> List[Dict[str, object]]:
    """Open-loop client: send a schedule's events at their instants.

    Sessions are spread over ``connections`` pipelined TCP connections
    (each with its own reader task matching replies by ``id``); each
    session is pinned to one of those shared connections, so a
    session's events stay ordered on the wire even when everything is
    sent at once.  Each arrival is written at ``t_s * time_scale`` seconds
    after the replay starts — *without* waiting for earlier answers, so
    the offered load never adapts to server speed.

    Args:
        host: Server address.
        port: Server port.
        arrivals: The schedule's arrivals (any order; replayed sorted).
        time_scale: Wall seconds per schedule second (0 sends
            everything as fast as the sockets allow).
        connections: How many TCP connections to spread sessions over.

    Returns:
        One reply dict per arrival, in arrival order, each augmented
        with ``client_latency_s`` (send-to-answer on the client clock).
    """
    if time_scale < 0:
        raise ValueError(f"time_scale must be >= 0, got {time_scale}")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    ordered = list(enumerate(sorted(arrivals, key=lambda a: a.t_s)))
    streams = [
        await asyncio.open_connection(host, port) for _ in range(connections)
    ]
    # Pin every session to one connection: per-session event order must
    # survive the transport, and only a single pipelined connection
    # guarantees it (independent connections race in the accept loop).
    lane_of: Dict[str, int] = {}
    for _, arrival in ordered:
        session_id = arrival.interval.session_id
        if session_id not in lane_of:
            lane_of[session_id] = len(lane_of) % connections
    # One waiting map per connection: when a connection dies, only its
    # own unanswered requests can be failed, and they all must be.
    waiting: List[Dict[int, Tuple[asyncio.Future, float]]] = [
        {} for _ in range(connections)
    ]
    replies: List[Optional[Dict[str, object]]] = [None] * len(ordered)

    async def read_replies(lane: int, reader: asyncio.StreamReader) -> None:
        pending = waiting[lane]
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                reply = decode_message(line.decode("utf-8").strip())
                entry = pending.pop(int(reply["id"]), None)
                if entry is None:
                    continue
                future, sent_s = entry
                reply["client_latency_s"] = time.perf_counter() - sent_s
                if not future.done():
                    future.set_result(reply)
        finally:
            # EOF, reset, or decode failure: no further replies can
            # arrive on this connection, so fail whatever is still
            # waiting instead of hanging the final gather forever.
            for slot, (future, _) in pending.items():
                if not future.done():
                    future.set_result(
                        {
                            "ok": False,
                            "id": slot,
                            "error": "connection closed before reply",
                        }
                    )
            pending.clear()

    readers = [
        asyncio.ensure_future(read_replies(lane, reader))
        for lane, (reader, _) in enumerate(streams)
    ]
    try:
        start_s = time.perf_counter()
        loop = asyncio.get_event_loop()
        for slot, arrival in ordered:
            due_s = start_s + arrival.t_s * time_scale
            delay_s = due_s - time.perf_counter()
            if delay_s > 0:
                await asyncio.sleep(delay_s)
            lane = lane_of[arrival.interval.session_id]
            _, writer = streams[lane]
            future: asyncio.Future = loop.create_future()
            if readers[lane].done():
                # The lane's reader already hit EOF: nothing sent now
                # can be answered, and nothing will fail the future, so
                # answer it here.
                future.set_result(
                    {
                        "ok": False,
                        "id": slot,
                        "error": "connection closed before reply",
                    }
                )
                replies[slot] = future
                continue
            waiting[lane][slot] = (future, time.perf_counter())
            line = encode_message(
                {
                    "op": "serve",
                    "id": slot,
                    "event": event_to_dict(arrival.interval),
                }
            )
            writer.write((line + "\n").encode())
            await writer.drain()
            replies[slot] = future
        gathered = await asyncio.gather(
            *(reply for reply in replies if reply is not None)
        )
        return list(gathered)
    finally:
        for task in readers:
            task.cancel()
        for _, writer in streams:
            writer.close()
