"""The ingress server process of the TCP workloads.

The benchmark spawns this script once per open-loop step::

    python server.py WORKDIR [--trace]

It builds an :class:`~repro.ingress.IngressServer` over two
:class:`~repro.cluster.LocalShard` workers from the shard specs the
benchmark wrote to ``WORKDIR/shard-*.json`` (pure JSON: databases,
config, WAL and checkpoint paths), listens on a free loopback port and
prints ``{"port": N}``.  It serves until a client sends the ``shutdown``
op, then prints ``{"peak_rss_mb": ...}``.  With ``--trace`` every
layer's callables are wrapped (:func:`spans.instrument`) before the
shards are built, and the spans are written to ``WORKDIR/spans.json``.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from repro.cluster import LocalShard  # noqa: E402
from repro.ingress import IngressConfig, IngressServer  # noqa: E402

from spans import SpanRecorder, instrument  # noqa: E402

# Two shards on a 2-CPU host: one per core, and ProcessShard is left
# out because worker processes would contend with the load generator.
CONFIG = IngressConfig(
    batch_window_s=0.010,
    max_batch=64,
    admission_capacity=8192,
    admission_policy="reject-newest",
)


async def _serve(shards) -> None:
    server = IngressServer(shards, config=CONFIG)
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    try:
        await server.wait_stopped()
    finally:
        await server.stop()


def _run(workdir: Path) -> None:
    specs = [
        json.loads(path.read_text())
        for path in sorted(workdir.glob("shard-*.json"))
    ]
    shards = [LocalShard(spec) for spec in specs]
    try:
        asyncio.run(_serve(shards))
    finally:
        for shard in shards:
            shard.shutdown()


def main(argv) -> int:
    workdir = Path(argv[1])
    if "--trace" in argv[2:]:
        recorder = SpanRecorder()
        with instrument(recorder):
            _run(workdir)
        (workdir / "spans.json").write_text(json.dumps(recorder.export()))
    else:
        _run(workdir)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
