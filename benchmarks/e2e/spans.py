"""Per-layer spans, recorded from outside the program.

Nothing under ``src/`` is instrumented.  :func:`instrument` swaps the
public callables of each layer — class methods and the module-level
names the callers look up — for wrappers that record a span around
each call, and puts the originals back on exit.  Spans stay in memory
(one list per thread, so the shard executor threads never contend) and
are exported as one JSON document when the benchmark ends.

A span is ``[id, name, start_s, end_s, parent_id, request_ids]``.  The
parent is the span open on the same thread when the call began.  A
request id is ``[session_id, sequence]``; a batch span (an engine tick,
a shard round trip) lists the ids of its member requests.  A layer's
self time is its span minus the part of that interval its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from stats import mean, percentile

_clock = time.perf_counter

# Span list slots.
ID, NAME, START, END, PARENT, IDS = range(6)


class SpanRecorder:
    """In-memory spans, raw samples and counters for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: List[list] = []
        self.samples: Dict[str, list] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        self.gc_pauses: List[Tuple[int, float]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self._lists.append(local.spans)
        return local

    def open(self, name: str) -> list:
        """Start a span under the calling thread's innermost open span."""
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        span = [None, name, _clock(), None, parent, None]
        local.spans.append(span)
        local.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = _clock()
        self._local.stack.pop()

    def export(self) -> Dict[str, object]:
        """The JSON document: spans with integer ids, samples, counters."""
        with self._lock:
            spans = [span for spans in self._lists for span in spans]
        number = {id(span): index for index, span in enumerate(spans)}
        rows = []
        for index, span in enumerate(spans):
            if span[END] is None:
                continue
            parent = span[PARENT]
            rows.append(
                [
                    index,
                    span[NAME],
                    span[START],
                    span[END],
                    None if parent is None else number[id(parent)],
                    span[IDS],
                ]
            )
        return {
            "spans": rows,
            "samples": {name: list(values) for name, values in self.samples.items()},
            "counters": dict(self.counters),
            "gc_pauses": list(self.gc_pauses),
        }


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (a parent waiting on several threads) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[ID], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[ID]] = (end - start) - covered
    return result


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------


def _event_ids(events) -> List[List[object]]:
    return [[event.session_id, event.sequence] for event in events]


def _wrap(
    recorder: SpanRecorder,
    function: Callable,
    name: str,
    after: Optional[Callable[[list, tuple, object], None]] = None,
) -> Callable:
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, result)
        return result

    wrapper.__wrapped__ = function
    return wrapper


def _targets(recorder: SpanRecorder):
    """``(owner, attribute, span name, after)`` for every traced callable."""
    import repro.cluster.worker as worker_module
    import repro.ingress.server as ingress_server
    import repro.robustness.service as resilient_module
    import repro.serving.engine as engine_module
    from repro.cluster.core import ShardTicker
    from repro.cluster.worker import SegmentInternPool, ShardWorker
    from repro.db.epochs import EpochalDatabase
    from repro.robustness.sanitizer import ScanSanitizer
    from repro.robustness.service import ResilientMoLocService
    from repro.robustness.watchdog import DivergenceWatchdog
    from repro.service import MoLocService
    from repro.serving.admission import AdmissionController
    from repro.serving.checkpoint import WriteAheadLog
    from repro.serving.engine import BatchedServingEngine
    from repro.serving.scheduler import BatchMatcher
    from repro.serving.transitions import TransitionEvaluator

    samples, counters = recorder.samples, recorder.counters
    queued_at: Dict[int, float] = {}

    def after_tick(span, args, outcome):
        engine, events = args[0], args[1]
        span[IDS] = _event_ids(events)
        samples["engine.batch_size"].append(len(events))
        phases = engine.last_tick_phases
        for phase in ("prepare", "match", "transitions", "complete"):
            samples[f"engine.{phase}_s"].append(phases.get(phase, 0.0))
        samples["engine.overhead_s"].append(
            (span[END] - span[START]) - sum(phases.values())
        )

    def after_shard_tick(span, args, result):
        span[IDS] = _event_ids(args[1])
        samples["ingress.batch_size"].append(len(args[1]))

    def after_offer(span, args, accepted):
        controller, event = args[0], args[1]
        if accepted:
            queued_at[id(event)] = span[END]
            samples["admission.depth"].append(len(controller))
        else:
            counters["admission.rejected"] += 1

    def after_drain(span, args, batch):
        for event in batch:
            started = queued_at.pop(id(event), None)
            if started is not None:
                samples["admission.wait_s"].append(span[END] - started)

    def after_event(span, args, event):
        span[IDS] = [[event.session_id, event.sequence]]

    # The ingress decodes and encodes every op; only serve traffic counts.
    def after_decode(span, args, request):
        if request.get("op") == "serve":
            samples["ingress.decode_s"].append(span[END] - span[START])

    def after_encode(span, args, line):
        if "fix" in args[0]:
            samples["ingress.encode_s"].append(span[END] - span[START])

    def after_match(span, args, result):
        samples["matcher.rows"].append(len(args[1]))

    return [
        # ingress, as bound in repro.ingress.server
        (ingress_server, "decode_message", "ingress.decode_message", after_decode),
        (ingress_server, "event_from_dict", "ingress.event_from_dict", after_event),
        (ingress_server, "fix_to_dict", "ingress.fix_to_dict", None),
        (ingress_server, "encode_message", "ingress.encode_message", after_encode),
        (ingress_server, "flip_cluster_epoch", "epochs.flip", None),
        # admission
        (AdmissionController, "offer", "admission.offer", after_offer),
        (AdmissionController, "drain", "admission.drain", after_drain),
        # cluster
        (ShardTicker, "tick", "cluster.roundtrip", after_shard_tick),
        (ShardWorker, "handle_line", "cluster.handle_line", None),
        (ShardWorker, "write_checkpoint", "cluster.checkpoint", None),
        (WriteAheadLog, "append", "cluster.wal_append", None),
        (SegmentInternPool, "rebuild", "cluster.intern_rebuild", None),
        (worker_module, "imu_segment_from_dict", "cluster.intern_decode", None),
        # engine
        (BatchedServingEngine, "tick_detailed", "engine.tick", after_tick),
        (BatchedServingEngine, "adopt_epoch", "epochs.adopt", None),
        (EpochalDatabase, "stage", "epochs.stage", None),
        # matcher and transitions
        (BatchMatcher, "match_batch", "matcher.match_batch", after_match),
        (TransitionEvaluator, "evaluate", "transitions.evaluate", None),
        # service
        (ResilientMoLocService, "prepare_interval", "service.prepare", None),
        (ResilientMoLocService, "complete_interval", "service.complete", None),
        (MoLocService, "extract_motion", "service.extract_motion", None),
        (engine_module, "check_imu", "service.check_imu", None),
        (resilient_module, "check_imu", "service.check_imu", None),
        (ScanSanitizer, "sanitize", "service.sanitize", None),
        (DivergenceWatchdog, "observe", "service.watchdog", None),
    ]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Trace every layer's public callables for the duration of the block.

    Also observes the garbage collector through ``gc.callbacks``.
    """
    patched = []
    for owner, attribute, name, after in _targets(recorder):
        original = owner.__dict__[attribute]
        patched.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(recorder, original, name, after))

    started: List[float] = []

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started.append(_clock())
        elif started:
            recorder.gc_pauses.append(
                (info["generation"], _clock() - started.pop())
            )

    gc.callbacks.append(on_gc)
    try:
        yield recorder
    finally:
        gc.callbacks.remove(on_gc)
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _percentile(values: Sequence[float], q: float) -> float:
    """A percentile, or 0.0 for a layer that did no work."""
    return percentile(values, q) if values else 0.0


def layer_metrics(documents: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics over one or more exported trace documents.

    Several documents arise when a workload runs several servers (one
    per open-loop step); their spans are separate trees.
    """
    durations: Dict[str, List[float]] = defaultdict(list)
    samples: Dict[str, list] = defaultdict(list)
    counters: Dict[str, int] = defaultdict(int)
    pauses: List[Tuple[int, float]] = []
    transport: List[float] = []
    for document in documents:
        spans = document["spans"]
        for span in spans:
            durations[span[NAME]].append(span[END] - span[START])
        for name, values in document["samples"].items():
            samples[name].extend(values)
        for name, value in document["counters"].items():
            counters[name] += value
        pauses.extend(tuple(pause) for pause in document["gc_pauses"])
        transport.extend(_transport_s(spans))

    def per_call(name: str, scale: float) -> float:
        return mean(durations.get(name, ())) * scale

    def median_ms(values) -> float:
        return _percentile(values, 50) * 1e3

    rebuilds = len(durations.get("cluster.intern_rebuild", ()))
    decodes = len(durations.get("cluster.intern_decode", ()))
    checkpoints = durations.get("cluster.checkpoint", [])
    gen2 = [pause for generation, pause in pauses if generation == 2]
    waits = samples.get("admission.wait_s", [])
    return {
        "engine.tick_ms": median_ms(durations.get("engine.tick", ())),
        "engine.prepare_ms": median_ms(samples.get("engine.prepare_s", ())),
        "engine.match_ms": median_ms(samples.get("engine.match_s", ())),
        "engine.transitions_ms": median_ms(samples.get("engine.transitions_s", ())),
        "engine.complete_ms": median_ms(samples.get("engine.complete_s", ())),
        "engine.overhead_ms": median_ms(samples.get("engine.overhead_s", ())),
        "engine.batch_size": mean(samples.get("engine.batch_size", ())),
        "service.prepare_us": per_call("service.prepare", 1e6),
        "service.complete_us": per_call("service.complete", 1e6),
        "service.extract_motion_us": per_call("service.extract_motion", 1e6),
        "service.check_imu_us": per_call("service.check_imu", 1e6),
        "service.sanitize_us": per_call("service.sanitize", 1e6),
        "service.watchdog_us": per_call("service.watchdog", 1e6),
        "matcher.match_batch_ms": per_call("matcher.match_batch", 1e3),
        "matcher.rows": mean(samples.get("matcher.rows", ())),
        "transitions.evaluate_us": per_call("transitions.evaluate", 1e6),
        "runtime.gc_gen2_count": float(len(gen2)),
        "runtime.gc_pause_max_ms": max((p for _, p in pauses), default=0.0) * 1e3,
        "runtime.gc_pause_total_s": sum(p for _, p in pauses),
        "ingress.decode_us": (
            mean(samples.get("ingress.decode_s", ())) * 1e6
            + per_call("ingress.event_from_dict", 1e6)
        ),
        "ingress.reply_us": (
            per_call("ingress.fix_to_dict", 1e6)
            + mean(samples.get("ingress.encode_s", ())) * 1e6
        ),
        "ingress.batch_size": mean(samples.get("ingress.batch_size", ())),
        "admission.wait_p50_ms": median_ms(waits),
        "admission.wait_p99_ms": _percentile(waits, 99) * 1e3,
        "admission.depth_max": float(max(samples.get("admission.depth", ()), default=0)),
        "admission.rejected": float(counters.get("admission.rejected", 0)),
        "cluster.roundtrip_ms": median_ms(durations.get("cluster.roundtrip", ())),
        "cluster.transport_ms": median_ms(transport),
        "cluster.wal_append_ms": per_call("cluster.wal_append", 1e3),
        "cluster.checkpoint_p50_ms": median_ms(checkpoints),
        "cluster.checkpoint_max_ms": max(checkpoints, default=0.0) * 1e3,
        "cluster.checkpoints": float(len(checkpoints)),
        "cluster.intern_hit_rate": (1.0 - decodes / rebuilds) if rebuilds else 0.0,
        "epochs.stage_ms": per_call("epochs.stage", 1e3),
        "epochs.adopt_ms": per_call("epochs.adopt", 1e3),
        "epochs.flip_ms": per_call("epochs.flip", 1e3),
    }


def _transport_s(spans: Sequence[list]) -> List[float]:
    """Per shard round trip: its duration minus the engine tick inside it."""
    by_id = {span[ID]: span for span in spans}
    engine_s: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[NAME] != "engine.tick":
            continue
        parent = span[PARENT]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor[NAME] == "cluster.roundtrip":
                engine_s[parent] += span[END] - span[START]
                break
            parent = ancestor[PARENT]
    return [
        (span[END] - span[START]) - engine_s.get(span[ID], 0.0)
        for span in spans
        if span[NAME] == "cluster.roundtrip"
    ]


def self_time_table(
    documents: Sequence[Dict[str, object]],
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for document in documents:
        spans = document["spans"]
        own = self_times(spans)
        for span in spans:
            row = table[span[NAME]]
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += own[span[ID]]
    return dict(sorted(table.items()))
