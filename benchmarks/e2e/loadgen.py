"""The open-loop client of the TCP workloads.

One asyncio thread and one pipelined connection per lane.  Every
request is written when it is *due*, whether or not earlier requests
have been answered, so a slow server meets an unchanged offered load
and its queue grows.  Latency runs from the due time, not from the
send: if the generator itself stalls, the requests it sends late carry
the stall in their latency, and each :class:`Sent` keeps both instants
so the generator's own lateness is reported too.
(``repro.ingress.replay_schedule`` times from the actual send, so a
generator stall vanishes from its numbers.)

A session is pinned to one lane, so its events reach the server in
order: the ingress reads each connection's lines in order, while two
connections race.

Arrivals are a Poisson process per session at the paper's 2 Hz scan
rate.  A Poisson process started at time 0 is stationary, so the
offered rate is flat from the first instant, and arrivals due after the
step ends are not generated, so it stays flat to the last.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.messages import decode_message, encode_message

SCAN_RATE_HZ = 2.0

clock = time.perf_counter


def poisson_schedule(
    n_intervals: Sequence[int],
    duration_s: float,
    rng: np.random.Generator,
    rate_hz: float = SCAN_RATE_HZ,
) -> List[Tuple[float, int, int]]:
    """Due times for each session's intervals, in due order.

    Args:
        n_intervals: Per session, how many intervals its walk holds.
        duration_s: Arrivals due at or after this instant are dropped.
        rng: The workload's seeded generator.
        rate_hz: Each session's mean arrival rate.

    Returns:
        ``(due_s, session_index, interval_index)`` triples sorted by
        due time; each session's intervals keep their walk order.
    """
    arrivals = []
    for session, available in enumerate(n_intervals):
        due_s = 0.0
        for interval in range(available):
            due_s += float(rng.exponential(1.0 / rate_hz))
            if due_s >= duration_s:
                break
            arrivals.append((due_s, session, interval))
    arrivals.sort()
    return arrivals


@dataclass
class Request:
    """One pre-encoded request and the instant it is due."""

    due_s: float
    lane: int
    request_id: int
    line: bytes


@dataclass
class Sent:
    """When one request was due and sent, and its pending answer."""

    due_s: float
    sent_s: float
    future: "asyncio.Future"


class Client:
    """Pipelined connections that match replies to requests by ``id``."""

    def __init__(self) -> None:
        self._streams: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._waiting: List[Dict[int, asyncio.Future]] = []
        self._readers: List[asyncio.Task] = []
        self._ids = itertools.count()

    async def connect(self, host: str, port: int, lanes: int) -> None:
        for lane in range(lanes):
            reader, writer = await asyncio.open_connection(host, port)
            self._streams.append((reader, writer))
            self._waiting.append({})
            self._readers.append(
                asyncio.ensure_future(self._read(lane, reader))
            )

    async def _read(self, lane: int, reader: asyncio.StreamReader) -> None:
        waiting = self._waiting[lane]
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                received_s = clock()
                reply = decode_message(line.decode("utf-8"))
                future = waiting.pop(int(reply["id"]), None)
                if future is not None and not future.done():
                    future.set_result((received_s, reply))
        finally:
            # EOF or a broken line: nothing more can be answered here.
            for future in waiting.values():
                if not future.done():
                    future.set_result(
                        (clock(), {"ok": False, "error": "connection closed"})
                    )
            waiting.clear()

    def encode(self, payload: Dict[str, object]) -> Tuple[int, bytes]:
        """A request line with a fresh id."""
        request_id = next(self._ids)
        line = encode_message(dict(payload, id=request_id)) + "\n"
        return request_id, line.encode("utf-8")

    async def send(self, lane: int, request_id: int, line: bytes) -> asyncio.Future:
        """Write one request now; the future resolves to ``(t, reply)``."""
        future = asyncio.get_event_loop().create_future()
        if self._readers[lane].done():
            future.set_result((clock(), {"ok": False, "error": "connection closed"}))
            return future
        self._waiting[lane][request_id] = future
        _, writer = self._streams[lane]
        writer.write(line)
        await writer.drain()
        return future

    async def call(self, lane: int, payload: Dict[str, object]) -> Dict[str, object]:
        """One request, awaited."""
        request_id, line = self.encode(payload)
        _, reply = await (await self.send(lane, request_id, line))
        return reply

    async def close(self) -> None:
        for _, writer in self._streams:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for _, writer in self._streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def open_loop(
    client: Client, requests: Sequence[Request], start_s: float
) -> List[Sent]:
    """Send every request at ``start_s + due_s``, never waiting for answers.

    Requests must be sorted by due time.  A request already due when
    the generator reaches it is sent at once.
    """
    sent: List[Sent] = []
    for request in requests:
        due_s = start_s + request.due_s
        delay = due_s - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sent_s = clock()
        future = await client.send(request.lane, request.request_id, request.line)
        sent.append(Sent(due_s, sent_s, future))
    return sent


async def answers(
    sent: Sequence[Sent], timeout_s: float
) -> List[Optional[Tuple[float, Dict[str, object]]]]:
    """Each request's ``(received_s, reply)``, or None if never answered."""
    futures = [entry.future for entry in sent]
    if futures:
        await asyncio.wait(futures, timeout=timeout_s)
    return [future.result() if future.done() else None for future in futures]
