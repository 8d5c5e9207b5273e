"""The TCP workloads: open-loop steps against a spawned ingress server.

Each step runs on a fresh server process (:mod:`server`): two
``LocalShard`` workers behind ``IngressServer``, window 10 ms,
``max_batch`` 64, admission capacity 8192 per shard, reject-newest.
The benchmark process is the only load generator (:mod:`loadgen`): one
asyncio thread, two pipelined connections.

Set-up runs from spawning the server until it has admitted every
session (``add_session`` over the wire, a checkpoint per admission)
and answers ``ping``.  Building the calibrated sessions and writing the
shard specs are input preparation and happen before the spawn.
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import fresh_session_entry, shard_spec
from repro.db.epochs import EpochalDatabase, Observation, update_to_dict
from repro.io.serialize import fix_from_dict
from repro.serving import fix_stream_checksum
from repro.serving.checkpoint import event_to_dict

import loadgen
import workloads
from stats import percentile, supported_percentile, with_failures

HERE = Path(__file__).resolve().parent
SERVER = HERE / "server.py"
SHARDS = 2
# One connection per CPU of the 2-CPU recording host.
LANES = 2
SPAWN_TIMEOUT_S = 120.0
ANSWER_TIMEOUT_S = 60.0
# Sends start this long after the generator is armed, so the first
# arrivals are not late by construction.
LEAD_S = 0.05
# Saturation throughput is counted from this share of the step onward:
# by then the backlog has formed and answers leave at capacity.
SAT_WINDOW_FROM = 0.25
# A run whose generator sent its latency steps' requests later than
# this (p99) did not offer the load it claims.
VOID_LATENESS_MS = 10.0
# Epoch churn: one advance_epoch per interval, each carrying this many
# crowdsourced observations.
FLIP_EVERY_S = 1.0
FLIP_OBSERVATIONS = 32


@dataclass(frozen=True)
class Step:
    """One open-loop step: ``sessions`` walkers at 2 Hz each."""

    name: str
    sessions: int
    share: float  # of the run's seconds
    epochal: bool = False


STEPS = {
    "open-loop": (
        Step("low", 75, 0.2),
        Step("mid", 150, 0.2),
        # Most of the run: collections and periodic checkpoints stall
        # the saturated server for a few hundred milliseconds every few
        # seconds, so a short window reads whichever stalls fell in it.
        Step("sat", 450, 0.6),
    ),
    # The mid rate, in three equal steps so that set-up is timed three
    # times.
    "epoch-churn": tuple(Step("churn", 150, 1 / 3, epochal=True) for _ in range(3)),
}
SMOKE_STEPS = {
    "open-loop": (Step("low", 10, 0.2), Step("mid", 20, 0.2), Step("sat", 40, 0.6)),
    "epoch-churn": tuple(Step("churn", 8, 1 / 3, epochal=True) for _ in range(3)),
}


@dataclass
class TcpInputs:
    name: str
    seed: int
    study: object
    steps: Sequence[Step]
    walks: Dict[str, object]
    events: Dict[str, list]
    observations: List[Observation]
    fingerprint_db: object
    motion_db: object


def prepare_tcp(name: str, seed: int, seconds: float, smoke: bool) -> TcpInputs:
    steps = (SMOKE_STEPS if smoke else STEPS)[name]
    longest_s = max(step.share for step in steps) * seconds
    n_walks = max(step.sessions for step in steps)
    study = workloads.synthesize(
        seed, n_walks, workloads.hops_for(longest_s, loadgen.SCAN_RATE_HZ)
    )
    walks = {
        workloads.session_id_of(index): walk
        for index, walk in enumerate(study.test_traces)
    }
    events = {
        session_id: workloads.session_events(session_id, walk)
        for session_id, walk in walks.items()
    }
    # Crowdsourced updates: training-walk scans at their true locations.
    observations = [
        Observation(hop.true_to, hop.arrival_fingerprint.rss)
        for walk in study.training_traces
        for hop in walk.hops
    ]
    # The server builds its own deployment from the shard specs; this
    # copy writes those specs and serves the reference engine.
    fingerprint_db, motion_db = workloads.deploy(study)
    return TcpInputs(
        name, seed, study, steps, walks, events, observations, fingerprint_db, motion_db
    )


@dataclass
class StepResult:
    step: Step
    duration_s: float
    setup_s: float
    peak_rss_mb: float
    start_s: float
    sessions: List[str]
    # One entry per serve request: (session_id, index, due_s, sent_s, answer)
    serves: list = field(default_factory=list)
    # One entry per flip: (sent_s, done_s, reply, batch)
    flips: list = field(default_factory=list)
    snapshot: Dict[str, object] = field(default_factory=dict)
    trace: Optional[Dict[str, object]] = None


def _write_specs(inputs: TcpInputs, step: Step, workdir: Path) -> None:
    study = inputs.study
    for index in range(SHARDS):
        spec = shard_spec(
            f"shard-{index}",
            inputs.fingerprint_db,
            inputs.motion_db,
            study.config,
            plan=study.scenario.plan,
            wal_path=workdir / f"shard-{index}.wal",
            checkpoint_path=workdir / f"shard-{index}.ckpt",
            epochal=step.epochal,
        )
        (workdir / f"shard-{index}.json").write_text(json.dumps(spec))


def _flip_batches(inputs: TcpInputs, duration_s: float, rng) -> List[list]:
    count = max(1, int(np.ceil(duration_s / FLIP_EVERY_S)) - 1)
    return [
        [
            inputs.observations[int(i)]
            for i in rng.choice(
                len(inputs.observations), FLIP_OBSERVATIONS, replace=False
            )
        ]
        for _ in range(count)
    ]


async def _run_step(
    inputs: TcpInputs,
    step: Step,
    duration_s: float,
    workdir: Path,
    traced: bool,
    rng,
) -> StepResult:
    study = inputs.study
    workdir.mkdir(parents=True)
    session_ids = list(inputs.walks)[: step.sessions]
    _write_specs(inputs, step, workdir)
    services = workloads.calibrated_services(
        study,
        inputs.fingerprint_db,
        inputs.motion_db,
        {sid: inputs.walks[sid] for sid in session_ids},
    )
    lane_of = {sid: index % LANES for index, sid in enumerate(session_ids)}

    client = loadgen.Client()
    admissions = [
        (lane_of[sid], {"op": "add_session", "entry": fresh_session_entry(sid, svc)})
        for sid, svc in services.items()
    ]
    schedule = loadgen.poisson_schedule(
        [len(inputs.events[sid]) for sid in session_ids], duration_s, rng
    )
    requests, serves = [], []
    for due_s, session, index in schedule:
        sid = session_ids[session]
        request_id, line = client.encode(
            {"op": "serve", "event": event_to_dict(inputs.events[sid][index])}
        )
        requests.append(loadgen.Request(due_s, lane_of[sid], request_id, line))
        serves.append((sid, index))
    batches = _flip_batches(inputs, duration_s, rng) if step.epochal else []

    command = [sys.executable, str(SERVER), str(workdir)]
    if traced:
        command.append("--trace")
    started = loadgen.clock()
    process = await asyncio.create_subprocess_exec(
        *command, stdout=asyncio.subprocess.PIPE
    )
    try:
        ready = await asyncio.wait_for(process.stdout.readline(), SPAWN_TIMEOUT_S)
        port = json.loads(ready)["port"]
        await client.connect("127.0.0.1", port, LANES)
        replies = await asyncio.gather(
            *(client.call(lane, payload) for lane, payload in admissions)
        )
        refused = [reply for reply in replies if not reply.get("ok")]
        if refused:
            raise RuntimeError(f"server refused a session: {refused[0]}")
        if not (await client.call(0, {"op": "ping"})).get("ok"):
            raise RuntimeError("server does not answer ping")
        setup_s = loadgen.clock() - started

        # The sessions and encoded requests built for this step belong
        # to the load generator, not the program: keep its collector
        # from scanning them while it is due to send.
        gc.collect()
        gc.freeze()
        start_s = loadgen.clock() + LEAD_S
        flipper = asyncio.ensure_future(
            _flips(client, batches, start_s, duration_s / (len(batches) + 1))
        )
        sent = await loadgen.open_loop(client, requests, start_s)
        flips = await flipper
        answers = await loadgen.answers(sent, ANSWER_TIMEOUT_S)
        snapshot = await client.call(0, {"op": "metrics"})
        await client.call(0, {"op": "shutdown"})
        await client.close()
        tail = await asyncio.wait_for(process.stdout.read(), SPAWN_TIMEOUT_S)
        await asyncio.wait_for(process.wait(), SPAWN_TIMEOUT_S)
    finally:
        await client.close()
        if process.returncode is None:
            process.kill()
            await process.wait()
    peak_rss_mb = json.loads(tail.decode().strip().splitlines()[-1])["peak_rss_mb"]
    result = StepResult(
        step=step,
        duration_s=duration_s,
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb,
        start_s=start_s,
        sessions=session_ids,
        serves=[
            (sid, index, entry.due_s, entry.sent_s, answer)
            for (sid, index), entry, answer in zip(serves, sent, answers)
        ],
        flips=[flip + (batch,) for flip, batch in zip(flips, batches)],
        snapshot=snapshot.get("metrics", {}),
    )
    if traced:
        result.trace = json.loads((workdir / "spans.json").read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    return result


async def _flips(
    client: loadgen.Client, batches, start_s: float, every_s: float
) -> list:
    """One ``advance_epoch`` every ``every_s``, each after the previous answers.

    Flips are serialized: the ingress runs each as its own two-phase
    protocol, and two overlapping flips would race for the same epoch.
    """
    done = []
    for number, batch in enumerate(batches, start=1):
        delay = start_s + number * every_s - loadgen.clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sent_s = loadgen.clock()
        reply = await client.call(
            0,
            {"op": "advance_epoch", "updates": [update_to_dict(u) for u in batch]},
        )
        done.append((sent_s, loadgen.clock(), reply))
    return done


def measure_tcp(
    inputs: TcpInputs, seconds: float, traced: bool, workdir: Path
) -> workloads.Measurement:
    """Every step of the workload, each on a fresh server, then the checks."""
    rng = np.random.default_rng([inputs.seed, 20])
    results = []
    for number, step in enumerate(inputs.steps):
        results.append(
            asyncio.run(
                _run_step(
                    inputs,
                    step,
                    step.share * seconds,
                    workdir / f"step-{number}-{step.name}",
                    traced,
                    rng,
                )
            )
        )
    return _summarize(inputs, results)


def _summarize(inputs: TcpInputs, results: List[StepResult]) -> workloads.Measurement:
    study = inputs.study
    plan = study.scenario.plan
    measurement = workloads.Measurement()
    notes, metrics = measurement.notes, measurement.metrics
    errors: List[float] = []
    rates = []
    # Steps of one name (the churn steps) pool their samples.
    samples: Dict[str, List[float]] = defaultdict(list)
    lateness: Dict[str, List[float]] = defaultdict(list)
    goodput: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for number, result in enumerate(results):
        step = result.step
        failed = 0
        answered_at: List[float] = []
        streams: Dict[str, Dict[int, object]] = {sid: {} for sid in result.sessions}
        for sid, index, due_s, sent_s, answer in result.serves:
            lateness[step.name].append(max(0.0, sent_s - due_s))
            reply = None if answer is None else answer[1]
            if reply is None or not reply.get("ok") or reply.get("status") != "served":
                failed += 1
                if len(measurement.mismatches) < 10:
                    detail = "unanswered" if reply is None else reply.get(
                        "status", reply.get("error")
                    )
                    measurement.mismatches.append(
                        f"{step.name}: {sid} interval {index} not served ({detail})"
                    )
                continue
            samples[step.name].append(answer[0] - due_s)
            answered_at.append(answer[0] - result.start_s)
            fix = fix_from_dict(reply["fix"])
            streams[sid][index] = fix
            errors.append(workloads.fix_error_m(plan, inputs.walks[sid], index, fix))
        samples[step.name].extend(with_failures((), failed))
        measurement.attempted += len(result.serves) + len(result.flips)
        measurement.failed += failed
        goodput[step.name][0] += sum(1 for t in answered_at if t < result.duration_s)
        goodput[step.name][1] += result.duration_s
        if step.name == "sat":
            # Answers per second while a backlog exists: from the window
            # start to the last answer the server never waits for work.
            window_from_s = SAT_WINDOW_FROM * result.duration_s
            late = [t for t in answered_at if t >= window_from_s]
            metrics["max_ivps"] = (
                len(late) / (max(late) - window_from_s) if len(late) > 1 else 0.0
            )
        notes[f"step{number}.{step.name}.requests"] = len(result.serves)
        notes[f"step{number}.{step.name}.setup_s"] = result.setup_s
        rates.extend(
            workloads.cache_hit_rates(shard)
            for shard in result.snapshot.get("shards", {}).values()
        )
        if step.epochal:
            _check_flips(inputs, result, measurement)
        elif not failed:
            _check_streams(inputs, result, streams, measurement)

    for name, values in samples.items():
        tail = supported_percentile(len(values))
        notes[f"latency_samples.{name}"] = len(values)
        notes[f"lateness_p99_ms.{name}"] = percentile(lateness[name], 99) * 1e3
        metrics[f"fix_p50_ms.{name}"] = percentile(values, 50) * 1e3
        if tail is not None and tail > 50:
            metrics[f"fix_p{tail:g}_ms.{name}"] = percentile(values, tail) * 1e3
        metrics[f"goodput_ivps.{name}"] = goodput[name][0] / goodput[name][1]
    metrics["setup_s"] = percentile([r.setup_s for r in results], 50)
    metrics["peak_rss_mb"] = max(r.peak_rss_mb for r in results)
    metrics["mean_error_m"] = sum(errors) / len(errors) if errors else float("nan")
    if inputs.name == "open-loop":
        metrics["fix_p50_ms"] = metrics["fix_p50_ms.mid"]
        metrics["throughput_ivps"] = metrics["max_ivps"]
    else:
        flips = [done - sent for r in results for sent, done, _, _ in r.flips]
        metrics["fix_p50_ms"] = metrics["fix_p50_ms.churn"]
        # Below capacity the answer rate is the offered rate: it drops
        # only if churn makes the server fall behind its walkers.
        metrics["throughput_ivps"] = metrics["goodput_ivps.churn"]
        metrics["flip_p50_ms"] = percentile(flips, 50) * 1e3
        notes["flips"] = len(flips)
    measurement.caches = workloads.merge_rates(rates)
    # The generator's lateness where latency is the measurement; the
    # saturation step offers more than the server can take, so a late
    # send there does not change what it measures.
    timed = [t for name, values in lateness.items() if name != "sat" for t in values]
    notes["loadgen.lateness_p99_ms"] = percentile(timed, 99) * 1e3
    reason = void_reason(timed)
    if reason is not None:
        measurement.mismatches.append(reason)
    measurement.traces = [r.trace for r in results if r.trace is not None]
    return measurement


def void_reason(lateness_s: Sequence[float]) -> Optional[str]:
    """Why a run is void, or None.

    A generator whose sends lagged their due times by more than
    ``VOID_LATENESS_MS`` (p99) did not offer the load the run claims,
    so the run fails instead of being reported.
    """
    p99_ms = percentile(lateness_s, 99) * 1e3
    if p99_ms <= VOID_LATENESS_MS:
        return None
    return (
        f"void run: load generator lateness p99 {p99_ms:.1f} ms exceeds "
        f"{VOID_LATENESS_MS:g} ms"
    )


def _check_streams(inputs, result, streams, measurement) -> None:
    """The wire streams must equal one engine fed the same prefixes."""
    prefixes = {}
    for sid, fixes in streams.items():
        if fixes and sorted(fixes) != list(range(len(fixes))):
            measurement.mismatches.append(f"{result.step.name}: {sid} answered out of order")
            return
        prefixes[sid] = inputs.events[sid][: len(fixes)]
    prefixes = {sid: events for sid, events in prefixes.items() if events}
    reference = workloads.reference_streams(
        inputs.study,
        inputs.fingerprint_db,
        inputs.motion_db,
        {sid: inputs.walks[sid] for sid in prefixes},
        prefixes,
    )
    for sid in prefixes:
        got = fix_stream_checksum([streams[sid][i] for i in range(len(streams[sid]))])
        if got != fix_stream_checksum(reference[sid]):
            measurement.mismatches.append(
                f"{result.step.name}: {sid} wire fix stream differs from the "
                "reference engine"
            )


def _check_flips(inputs, result, measurement) -> None:
    """Every flip's checksum must equal staging the same batch locally."""
    database = EpochalDatabase(inputs.fingerprint_db)
    for number, (_, _, reply, batch) in enumerate(result.flips, start=1):
        expected = database.advance_epoch(batch)
        if not reply.get("ok"):
            measurement.failed += 1
            measurement.mismatches.append(f"flip {number} failed: {reply.get('error')}")
            return
        if reply.get("epoch") != expected.epoch_id or reply.get("checksum") != expected.checksum:
            measurement.failed += 1
            measurement.mismatches.append(
                f"flip {number}: epoch {reply.get('epoch')} checksum differs from "
                f"staging the same batch locally (epoch {expected.epoch_id})"
            )
            return
