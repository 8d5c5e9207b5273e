"""The asyncio TCP front door: protocol, backpressure, equality over wire.

Every test drives a real ``asyncio.start_server`` socket on loopback —
the events cross TCP as versioned JSON lines, fixes come back the same
way, and the reassembled per-session streams are held to the lockstep
coordinator's checksums, so the wire itself is inside the bitwise gate.
"""

from __future__ import annotations

import asyncio

import pytest
from cluster_helpers import checksums, make_shards
from repro.cluster import (
    ClusterCoordinator,
    encode_message,
    decode_message,
    fresh_session_entry,
)
from repro.ingress import (
    IngressConfig,
    IngressServer,
    lockstep_fix_streams,
    replay_schedule,
)
from repro.io.serialize import fix_from_dict
from repro.serving import build_session_services, fix_stream_checksum
from repro.serving.checkpoint import event_to_dict
from repro.sim.evaluation import open_loop_schedule


def make_schedule(world, **overrides):
    _, _, _, workload = world
    kwargs = dict(mean_rate_hz=8.0, seed=11)
    kwargs.update(overrides)
    return open_loop_schedule(workload, **kwargs)


def session_services(world):
    fingerprint_db, motion_db, config, workload = world
    return build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )


def run_server(world, tmp_path, n_shards, config, client):
    """Start a server over fresh shards, run ``client(server)``, stop."""

    async def main():
        server = IngressServer(
            make_shards(world, tmp_path, n_shards), config=config
        )
        await server.start()
        for session_id, service in sorted(session_services(world).items()):
            entry = fresh_session_entry(session_id, service)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                (
                    encode_message({"op": "add_session", "entry": entry})
                    + "\n"
                ).encode()
            )
            await writer.drain()
            reply = decode_message((await reader.readline()).decode())
            assert reply["ok"], reply
            writer.close()
        try:
            return await client(server)
        finally:
            await server.stop()

    return asyncio.run(main())


def stream_checksums(arrivals, replies):
    """Rebuild per-session fix streams from wire replies, in served order.

    Refused events (rejected/dropped) never produce a stream entry;
    answered ones slot in per-session arrival order, exactly as the
    driver's :class:`~repro.ingress.IngressResult` records them.
    """
    streams = {}
    for arrival, reply in zip(
        sorted(arrivals, key=lambda a: a.t_s), replies
    ):
        assert reply["ok"], reply
        if reply["status"] in ("rejected", "dropped"):
            continue
        fix = reply["fix"]
        streams.setdefault(arrival.interval.session_id, []).append(
            None if fix is None else fix_from_dict(fix)
        )
    return {
        session_id: fix_stream_checksum(stream)
        for session_id, stream in streams.items()
    }


class TestServedOverTcp:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_wire_streams_match_lockstep(self, world, tmp_path, n_shards):
        schedule = make_schedule(world)
        config = IngressConfig(batch_window_s=0.01, max_batch=8)

        async def client(server):
            host, port = server.address
            return await replay_schedule(
                host, port, schedule.arrivals, time_scale=0.0
            )

        replies = run_server(
            world, tmp_path / "serve", n_shards, config, client
        )
        assert len(replies) == schedule.n_arrivals
        assert all(r["status"] != "rejected" for r in replies)

        fingerprint_db, motion_db, cfg, workload = world
        coordinator = ClusterCoordinator(
            make_shards(world, tmp_path / "lockstep", n_shards)
        )
        for session_id, service in sorted(session_services(world).items()):
            coordinator.add_session(fresh_session_entry(session_id, service))
        want = checksums(
            lockstep_fix_streams(coordinator, schedule.arrivals)
        )
        assert stream_checksums(schedule.arrivals, replies) == want

    def test_latency_histogram_fills(self, world, tmp_path):
        schedule = make_schedule(world)
        config = IngressConfig(batch_window_s=0.01, max_batch=8)

        async def client(server):
            host, port = server.address
            await replay_schedule(
                host, port, schedule.arrivals, time_scale=0.0
            )
            return server.latency_quantiles((0.5, 0.99))

        quantiles = run_server(world, tmp_path, 2, config, client)
        assert quantiles["p50"] is not None
        assert 0.0 <= quantiles["p50"] <= quantiles["p99"]


class TestBackpressureOverTcp:
    def test_full_queue_rejects_immediately(self, world, tmp_path):
        schedule = make_schedule(world)
        # One shard, a 2-deep queue, and a window long enough that the
        # flood outruns serving: refusals must come back anyway.
        config = IngressConfig(
            batch_window_s=0.25, max_batch=None, admission_capacity=2
        )

        async def client(server):
            host, port = server.address
            return await replay_schedule(
                host, port, schedule.arrivals, time_scale=0.0
            )

        replies = run_server(world, tmp_path, 1, config, client)
        statuses = [r["status"] for r in replies]
        assert "rejected" in statuses
        assert all(r["fix"] is None for r in replies if r["status"] == "rejected")

    def test_drop_oldest_answers_displaced_clients(self, world, tmp_path):
        schedule = make_schedule(world)
        config = IngressConfig(
            batch_window_s=0.25,
            max_batch=None,
            admission_capacity=2,
            admission_policy="drop-oldest",
        )

        async def client(server):
            host, port = server.address
            return await replay_schedule(
                host, port, schedule.arrivals, time_scale=0.0
            )

        replies = run_server(world, tmp_path, 1, config, client)
        statuses = [r["status"] for r in replies]
        assert "dropped" in statuses
        assert "rejected" not in statuses
        # Every arrival was answered — no client left hanging.
        assert len(replies) == schedule.n_arrivals


class TestProtocol:
    def test_ping_metrics_and_unknown_op(self, world, tmp_path):
        config = IngressConfig(batch_window_s=0.01)

        async def client(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)

            async def roundtrip(payload):
                writer.write((encode_message(payload) + "\n").encode())
                await writer.drain()
                return decode_message((await reader.readline()).decode())

            ping = await roundtrip({"op": "ping", "id": 7})
            metrics = await roundtrip({"op": "metrics"})
            bogus = await roundtrip({"op": "frobnicate"})
            writer.close()
            return ping, metrics, bogus

        ping, metrics, bogus = run_server(world, tmp_path, 2, config, client)
        assert ping["ok"] and ping["id"] == 7
        assert sorted(ping["shards"]) == ["shard-0", "shard-1"]
        assert metrics["ok"]
        assert "ingress" in metrics["metrics"]
        assert set(metrics["metrics"]["shards"]) == {"shard-0", "shard-1"}
        assert not bogus["ok"]
        assert "frobnicate" in bogus["error"]

    def test_metrics_op_interleaves_with_serving(self, world, tmp_path):
        """Pipelined metrics requests ride the per-shard executors.

        A metrics snapshot taken while ticks are in flight must never
        interleave with a shard's tick conversation on the transport:
        every serve reply keeps its disposition, every metrics reply
        carries a snapshot, and all ids match up.
        """
        schedule = make_schedule(world)
        config = IngressConfig(batch_window_s=0.01, max_batch=4)

        async def client(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            requests = []
            for slot, arrival in enumerate(
                sorted(schedule.arrivals, key=lambda a: a.t_s)
            ):
                requests.append(
                    {
                        "op": "serve",
                        "id": f"serve-{slot}",
                        "event": event_to_dict(arrival.interval),
                    }
                )
                if slot % 3 == 0:
                    requests.append(
                        {"op": "metrics", "id": f"metrics-{slot}"}
                    )
            for request in requests:
                writer.write((encode_message(request) + "\n").encode())
            await writer.drain()
            replies = {}
            for _ in requests:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=30.0
                )
                reply = decode_message(line.decode())
                replies[reply["id"]] = reply
            writer.close()
            return replies

        replies = run_server(world, tmp_path, 2, config, client)
        serves = {
            key: reply
            for key, reply in replies.items()
            if key.startswith("serve-")
        }
        metrics = {
            key: reply
            for key, reply in replies.items()
            if key.startswith("metrics-")
        }
        assert serves and metrics
        assert len(serves) + len(metrics) == len(replies)
        for reply in serves.values():
            assert reply["ok"], reply
            assert "status" in reply
        for reply in metrics.values():
            assert reply["ok"], reply
            assert set(reply["metrics"]["shards"]) == {"shard-0", "shard-1"}

    def test_add_session_op_counts_recoveries(self, world, tmp_path):
        """A respawn under the add_session wire op lands in the metrics.

        The supervised request path respawns a crashed worker either
        way; the wire op must count it exactly as the synchronous
        ``admit_session`` path does.
        """
        config = IngressConfig(batch_window_s=0.01)
        shards = make_shards(world, tmp_path, 1)
        session_id = sorted(session_services(world))[0]
        service = session_services(world)[session_id]

        async def main():
            server = IngressServer(shards, config=config)
            host, port = await server.start()
            try:
                shards[0].kill()
                reader, writer = await asyncio.open_connection(host, port)
                entry = fresh_session_entry(session_id, service)
                writer.write(
                    (
                        encode_message({"op": "add_session", "entry": entry})
                        + "\n"
                    ).encode()
                )
                await writer.drain()
                reply = decode_message((await reader.readline()).decode())
                writer.close()
                snapshot = await server.metrics_snapshot_async()
                return reply, snapshot
            finally:
                await server.stop()

        reply, snapshot = asyncio.run(main())
        assert reply["ok"], reply
        assert snapshot["ingress"]["counters"]["ingress.recoveries"] == 1

    def test_shutdown_op_stops_the_server(self, world, tmp_path):
        config = IngressConfig(batch_window_s=0.01)

        async def client(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((encode_message({"op": "shutdown"}) + "\n").encode())
            await writer.drain()
            reply = decode_message((await reader.readline()).decode())
            writer.close()
            await asyncio.wait_for(server.wait_stopped(), timeout=5.0)
            return reply

        reply = run_server(world, tmp_path, 1, config, client)
        assert reply["ok"] and reply["bye"]


class TestStopFlush:
    def test_stop_answers_in_flight_requests_before_eof(
        self, world, tmp_path
    ):
        """The documented guarantee: answer all in flight, then close.

        A request still waiting out its batch window when :meth:`stop`
        runs must read a "server stopped" reply line — not bare EOF
        from a transport closed before the reply flushed.
        """
        schedule = make_schedule(world)
        # A window far longer than the test: the event stays queued
        # until stop()'s pending sweep answers it.
        config = IngressConfig(batch_window_s=30.0, max_batch=None)

        async def client(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            arrival = sorted(schedule.arrivals, key=lambda a: a.t_s)[0]
            writer.write(
                (
                    encode_message(
                        {
                            "op": "serve",
                            "id": 1,
                            "event": event_to_dict(arrival.interval),
                        }
                    )
                    + "\n"
                ).encode()
            )
            await writer.drain()
            # Let the event reach the admission queue before stopping.
            await asyncio.sleep(0.05)
            await server.stop()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            assert line, "reply dropped: client saw bare EOF at stop()"
            reply = decode_message(line.decode())
            writer.close()
            return reply

        reply = run_server(world, tmp_path, 1, config, client)
        assert reply["ok"] is False
        assert "stopped" in reply["error"]
        assert reply["id"] == 1


class TestReplayClient:
    def test_replay_fails_fast_on_lost_replies(self, world):
        """A dead connection fails its waiting arrivals, never hangs.

        A server that answers every request but one and then closes the
        connection must leave :func:`replay_schedule` with one error
        reply in place — not a gather that waits forever.
        """
        schedule = make_schedule(world)
        n_arrivals = schedule.n_arrivals

        async def main():
            async def answer_all_but_first(reader, writer):
                lines = [await reader.readline() for _ in range(n_arrivals)]
                for line in lines[1:]:
                    request = decode_message(line.decode())
                    writer.write(
                        (
                            encode_message(
                                {
                                    "ok": True,
                                    "status": "served",
                                    "fix": None,
                                    "id": request["id"],
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(
                answer_all_but_first, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            try:
                return await asyncio.wait_for(
                    replay_schedule(
                        host,
                        port,
                        schedule.arrivals,
                        time_scale=0.0,
                        connections=1,
                    ),
                    timeout=15.0,
                )
            finally:
                server.close()
                await server.wait_closed()

        replies = asyncio.run(main())
        assert len(replies) == n_arrivals
        unanswered = [reply for reply in replies if not reply["ok"]]
        assert len(unanswered) == 1
        assert "connection closed" in unanswered[0]["error"]
        assert all(
            reply["status"] == "served" for reply in replies if reply["ok"]
        )
