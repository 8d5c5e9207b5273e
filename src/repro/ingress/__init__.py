"""Event-driven ingress: per-shard loops instead of coordinator lockstep.

The cluster's :class:`~repro.cluster.coordinator.ClusterCoordinator`
is a closed-loop replay harness — it ticks *every* shard *every* tick
and the workload implicitly waits for it.  This package is the
open-loop front door for the same shard workers:

* :mod:`~repro.ingress.loops` — the semantics.
  :class:`~repro.ingress.loops.IngressDriver` runs an
  :class:`~repro.sim.evaluation.ArrivalSchedule` through per-shard
  admission queues and independently-ticking shard loops on a logical
  timeline, so the whole interleaving (batching, shedding, latency) is
  a deterministic function of the schedule; and
  :func:`~repro.ingress.loops.lockstep_fix_streams` is the
  coordinator-based reference the driver is held *bitwise* to.
* :mod:`~repro.ingress.server` — the transport.
  :class:`~repro.ingress.server.IngressServer` exposes the identical
  machinery on an asyncio TCP socket speaking the cluster's versioned
  JSON line protocol, with admission as immediate backpressure at the
  accept loop and end-to-end latency histograms for the SLO gate.

The bitwise contract, one level up from PR 5's: a cluster serving a
schedule through event-driven per-shard loops produces the same
per-session fix streams as the lockstep coordinator — and therefore as
one engine — because per-session event order is preserved and the
engine's batched-equals-sequential property makes fix streams a
function of that order alone.  ``python -m repro gate async-lockstep``
gates it at 1/2/4 shards; ``tests/ingress/`` holds the regression
suite, including the reordered/redelivered-arrival cases.
"""

from .loops import (
    EventDisposition,
    IngressConfig,
    IngressDriver,
    IngressResult,
    event_of,
    lockstep_fix_streams,
)
from .server import IngressServer, replay_schedule

__all__ = [
    "EventDisposition",
    "IngressConfig",
    "IngressDriver",
    "IngressResult",
    "IngressServer",
    "event_of",
    "lockstep_fix_streams",
    "replay_schedule",
]
