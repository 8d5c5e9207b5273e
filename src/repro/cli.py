"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the quickstart: accuracy table, MoLoc vs WiFi, 4/5/6 APs.
* ``experiment {fig4,fig6,fig7,fig8,table1}`` — regenerate one paper
  figure/table and print the series/rows.
* ``build-db`` — run the survey + crowdsourcing pipeline and write the
  fingerprint database, motion database, floor plan, and aisle graph as
  JSON files into an output directory.
* ``evaluate`` — evaluate chosen systems at one AP count, optionally
  loading databases produced by ``build-db``.
* ``metrics`` — serve a small batched workload and print the engine's
  observability snapshot (``metrics_snapshot``) as JSON.
* ``chaos`` — serve a batched workload under a seeded fault schedule
  (the :mod:`repro.chaos` harness) and print one JSON document with the
  plan, the per-kind injection counts, the engine's quarantine/shed
  response, and the full metrics snapshot.  The CI chaos lane archives
  this document as its artifact.
* ``serve`` — boot the asyncio TCP ingress (:mod:`repro.ingress`) over
  a sharded deployment with a seeded workload's sessions pre-admitted,
  print the bound address as one JSON line, and run until a
  ``shutdown`` op or Ctrl-C.
* ``gate <name>...|--all [--smoke]`` — run serving correctness gates
  from the :mod:`repro.gates` registry (sharded == single, async ==
  lockstep, atomic epoch flip, gait-disabled path free, and the
  ingress x gait x epoch x defended cross-product) and print one JSON
  document: per gate its comparisons, mismatches and largest
  difference, per-session fix-stream checksums, and the feature x
  topology coverage table.  Exit code 0 iff every check passes.

All commands are deterministic given ``--seed`` (wall-clock metrics in
``metrics``/``chaos`` output excepted).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis.cdf import EmpiricalCdf
from .analysis.tables import format_cdf_series, format_table
from .io.serialize import (
    fingerprint_db_from_dict,
    fingerprint_db_to_dict,
    floorplan_to_dict,
    graph_to_dict,
    load_json,
    motion_db_from_dict,
    motion_db_to_dict,
    save_json,
)
from .sim.evaluation import convergence_statistics, evaluate_localizer
from .sim.experiments import (
    AP_COUNTS,
    Study,
    convergence_table,
    evaluate_systems,
    large_error_comparison,
    make_localizer,
    motion_database_errors,
    prepare_study,
    step_signature,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MoLoc reproduction (ICDCS 2013): demos, experiments, "
        "database building, evaluation.",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="master seed (default 7)"
    )
    parser.add_argument(
        "--training-traces",
        type=int,
        default=150,
        help="crowdsourced walks for the motion database (default 150)",
    )
    parser.add_argument(
        "--test-traces",
        type=int,
        default=34,
        help="held-out walks for evaluation (default 34)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="quickstart accuracy table")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one paper figure/table"
    )
    experiment.add_argument(
        "which", choices=["fig4", "fig6", "fig7", "fig8", "table1"]
    )

    build = subparsers.add_parser(
        "build-db", help="build and save the databases as JSON"
    )
    build.add_argument(
        "--output", type=Path, required=True, help="output directory"
    )
    build.add_argument(
        "--n-aps", type=int, default=6, help="AP count (default 6)"
    )

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate systems on held-out traces"
    )
    evaluate.add_argument(
        "--n-aps", type=int, default=6, help="AP count (default 6)"
    )
    evaluate.add_argument(
        "--systems",
        nargs="+",
        default=["moloc", "wifi"],
        help="systems to evaluate (moloc wifi horus hmm naive-fusion)",
    )
    evaluate.add_argument(
        "--databases",
        type=Path,
        default=None,
        help="directory of build-db output to evaluate against "
        "(default: rebuild from the seed)",
    )

    export = subparsers.add_parser(
        "export-traces", help="export the walk data set as JSON"
    )
    export.add_argument(
        "--output", type=Path, required=True, help="output file"
    )
    export.add_argument(
        "--split",
        choices=["training", "test"],
        default="test",
        help="which split to export (default: test)",
    )
    export.add_argument(
        "--count", type=int, default=None, help="limit the number of traces"
    )

    report = subparsers.add_parser(
        "report", help="write a full experiment report as markdown"
    )
    report.add_argument(
        "--output", type=Path, required=True, help="output markdown file"
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="serve a batched workload and print the metrics snapshot "
        "as JSON",
    )
    metrics.add_argument(
        "--sessions", type=int, default=8, help="concurrent sessions (default 8)"
    )
    metrics.add_argument(
        "--corpus-size",
        type=int,
        default=4,
        help="distinct walks replayed (default 4)",
    )
    metrics.add_argument(
        "--n-aps", type=int, default=6, help="AP count (default 6)"
    )
    metrics.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the JSON document here",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="serve a batched workload under a seeded fault schedule and "
        "print the chaos report as JSON",
    )
    chaos.add_argument(
        "--sessions", type=int, default=8, help="concurrent sessions (default 8)"
    )
    chaos.add_argument(
        "--corpus-size",
        type=int,
        default=4,
        help="distinct walks replayed (default 4)",
    )
    chaos.add_argument(
        "--n-aps", type=int, default=6, help="AP count (default 6)"
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="fault-schedule seed (default 0; the study seed stays --seed)",
    )
    chaos.add_argument(
        "--rate",
        type=float,
        default=0.1,
        help="per-(tick, session) fault probability (default 0.1)",
    )
    chaos.add_argument(
        "--tick-budget-ms",
        type=float,
        default=None,
        help="per-tick completion budget in ms (default: no shedding)",
    )
    chaos.add_argument(
        "--adversarial",
        action="store_true",
        help="add the attack kinds (rogue AP, AP repower, scan replay, "
        "IMU spoof) to the storm pool and serve trust-defended sessions",
    )
    chaos.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the JSON document here",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the asyncio TCP ingress (event-driven per-shard loops "
        "over a sharded deployment) until a shutdown op or Ctrl-C",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="listen address (default %(default)s)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: pick a free one and print it)",
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="shard count (default 2)"
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="workload sessions pre-admitted at boot (default 8)",
    )
    serve.add_argument(
        "--corpus-size",
        type=int,
        default=4,
        help="distinct walks behind the pre-admitted sessions (default 4)",
    )
    serve.add_argument(
        "--n-aps", type=int, default=6, help="AP count (default 6)"
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=50.0,
        help="per-shard batch window in ms (default 50)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="tick early once a shard queues this many events (default 16)",
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=256,
        help="per-shard admission-queue bound (default 256)",
    )
    serve.add_argument(
        "--policy",
        choices=("reject-newest", "drop-oldest"),
        default="reject-newest",
        help="admission shedding policy (default %(default)s)",
    )
    serve.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="directory for shard WAL/checkpoint files (default: a "
        "fresh temp dir)",
    )

    redteam = subparsers.add_parser(
        "redteam",
        help="replay the held-out walks through adversarial attacks "
        "(rogue AP, re-powered AP, replayed scans, spoofed IMU) against "
        "plain / resilient / trust-defended serving and print the report "
        "as JSON (exit code 0 iff the defense gate passes)",
    )
    redteam.add_argument(
        "--smoke",
        action="store_true",
        help="clean + gate conditions over six walks only (CI fast lane); "
        "checks defense mechanics instead of the calibrated 1.5x gate",
    )
    redteam.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the JSON document here",
    )

    matrix = subparsers.add_parser(
        "matrix",
        help="sweep generated environments x session loads x fault plans "
        "through the standard evaluation and serving engines and write "
        "BENCH_matrix.json (exit code 0 iff every cell validates, "
        "including verified bitwise environment reproducibility)",
    )
    matrix.add_argument(
        "--smoke",
        action="store_true",
        help="the 12-cell CI profile (3 small topologies x 2 loads x 2 "
        "fault plans) instead of the full weekly sweep",
    )
    matrix.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_matrix.json"),
        help="where to write the matrix document (default: %(default)s)",
    )
    matrix.add_argument(
        "--specs-dir",
        type=Path,
        default=None,
        help="also write each generated environment's spec JSON here",
    )

    gate = subparsers.add_parser(
        "gate",
        help="run serving correctness gates from repro.gates at their "
        "fixed sizes (--training-traces/--test-traces do not apply) and "
        "print one JSON document (exit code 0 iff every check passes)",
    )
    gate.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="gates to run (sharded-single, async-lockstep, epoch-flip, "
        "gait, ingress-cross)",
    )
    gate.add_argument(
        "--all",
        action="store_true",
        help="run every gate and report feature x topology coverage",
    )
    gate.add_argument(
        "--smoke",
        action="store_true",
        help="each gate's fixed smoke sizes (CI fast lane) instead of "
        "its full sizes",
    )
    gate.add_argument(
        "--transport",
        choices=("local", "process"),
        default="local",
        help="shard transport (default %(default)s)",
    )
    gate.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="run sharded-single's single engine and cluster under one "
        "seeded storm of message faults and worker kills",
    )
    gate.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the JSON document here",
    )
    return parser


def _study_from(args) -> "Study":
    """Build the study the command operates on, honoring volume flags."""
    return prepare_study(
        seed=args.seed,
        n_training_traces=args.training_traces,
        n_test_traces=args.test_traces,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _demo(_study_from(args))
    if args.command == "experiment":
        return _experiment(args.seed, args.which, args)
    if args.command == "build-db":
        return _build_db(_study_from(args), args.output, args.n_aps)
    if args.command == "evaluate":
        return _evaluate(
            _study_from(args), args.n_aps, args.systems, args.databases
        )
    if args.command == "export-traces":
        return _export_traces(
            _study_from(args), args.output, args.split, args.count
        )
    if args.command == "report":
        return _report(_study_from(args), args.output)
    if args.command == "metrics":
        return _metrics(
            _study_from(args),
            args.sessions,
            args.corpus_size,
            args.n_aps,
            args.output,
        )
    if args.command == "chaos":
        return _chaos(
            _study_from(args),
            args.sessions,
            args.corpus_size,
            args.n_aps,
            args.chaos_seed,
            args.rate,
            args.tick_budget_ms,
            args.output,
            adversarial=args.adversarial,
        )
    if args.command == "serve":
        return _serve(_study_from(args), args)
    if args.command == "redteam":
        return _redteam(_study_from(args), args.smoke, args.output)
    if args.command == "matrix":
        return _matrix(args.seed, args.smoke, args.output, args.specs_dir)
    if args.command == "gate":
        return _gate(parser, args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _demo(study: Study) -> int:
    rows = []
    for n_aps in AP_COUNTS:
        results = evaluate_systems(study, n_aps)
        for name in ("wifi", "moloc"):
            result = results[name]
            rows.append(
                [
                    f"{n_aps}-AP {name}",
                    f"{result.accuracy:.0%}",
                    result.mean_error_m,
                    result.max_error_m,
                ]
            )
    print(format_table(["setting", "accuracy", "mean err (m)", "max err (m)"], rows))
    return 0


def _experiment(seed: int, which: str, args) -> int:
    if which == "fig4":
        signal, detected = step_signature(seed=seed)
        print("Fig. 4: acceleration magnitudes (m/s^2) at 10 Hz:")
        print(" ".join(f"{v:.1f}" for v in signal.samples))
        print(f"detected step times (s): "
              + " ".join(f"{t:.2f}" for t in detected))
        return 0

    study = _study_from(args)
    if which == "fig6":
        directions, offsets, spurious = motion_database_errors(study)
        print("Fig. 6(a) direction errors (deg):")
        print(format_cdf_series(
            "measured", EmpiricalCdf.from_samples(directions), [2, 4, 8, 16]
        ))
        print("Fig. 6(b) offset errors (m):")
        print(format_cdf_series(
            "measured", EmpiricalCdf.from_samples(offsets), [0.1, 0.2, 0.3, 0.5]
        ))
        print(f"spurious pairs: {spurious}")
        return 0

    if which == "fig7":
        points = [0, 2, 4, 8, 16]
        for n_aps in AP_COUNTS:
            results = evaluate_systems(study, n_aps)
            print(f"Fig. 7 {n_aps}-AP error CDF:")
            for name in ("moloc", "wifi"):
                print(format_cdf_series(
                    name, EmpiricalCdf.from_samples(results[name].errors), points
                ))
        return 0

    if which == "fig8":
        points = [0, 2, 4, 8, 16]
        for n_aps in AP_COUNTS:
            errors, ambiguous = large_error_comparison(study, n_aps)
            print(f"Fig. 8 {n_aps}-AP ({len(ambiguous)} twin locations):")
            for name in ("moloc", "wifi"):
                print(format_cdf_series(
                    name, EmpiricalCdf.from_samples(errors[name]), points
                ))
        return 0

    if which == "table1":
        rows = []
        for label, stats in convergence_table(study):
            rows.append(
                [
                    label,
                    stats.mean_erroneous_localizations,
                    f"{stats.accuracy:.0%}",
                    stats.mean_error_m,
                    stats.max_error_m,
                ]
            )
        print(format_table(
            ["setting", "EL", "accuracy", "mean err (m)", "max err (m)"], rows
        ))
        return 0
    raise AssertionError(f"unhandled experiment {which!r}")


def _build_db(study: Study, output: Path, n_aps: int) -> int:
    fingerprint_db = study.fingerprint_db(n_aps)
    motion_db, sanitation = study.motion_db(n_aps)

    save_json(floorplan_to_dict(study.scenario.plan), output / "floorplan.json")
    save_json(graph_to_dict(study.scenario.graph), output / "graph.json")
    save_json(
        fingerprint_db_to_dict(fingerprint_db), output / "fingerprint_db.json"
    )
    save_json(motion_db_to_dict(motion_db), output / "motion_db.json")

    print(f"wrote 4 artifacts to {output}")
    print(
        f"fingerprint db: {len(fingerprint_db)} locations x "
        f"{fingerprint_db.n_aps} APs"
    )
    print(
        f"motion db: {sanitation.pairs_stored} pairs "
        f"({sanitation.coarse_rejected} RLMs coarse-rejected, "
        f"{sanitation.fine_rejected} fine-rejected)"
    )
    return 0


def _evaluate(
    study: Study, n_aps: int, systems: List[str], databases: Optional[Path]
) -> int:
    if databases is not None:
        fingerprint_db = fingerprint_db_from_dict(
            load_json(databases / "fingerprint_db.json")
        )
        motion_db = motion_db_from_dict(load_json(databases / "motion_db.json"))
    else:
        fingerprint_db = study.fingerprint_db(n_aps)
        motion_db, _ = study.motion_db(n_aps)

    rows = []
    for name in systems:
        localizer = make_localizer(
            name, fingerprint_db, motion_db, study.config,
            plan=study.scenario.plan,
        )
        result = evaluate_localizer(
            localizer, study.test_traces, study.scenario.plan
        )
        try:
            el = f"{convergence_statistics(result).mean_erroneous_localizations:.2f}"
        except ValueError:
            el = "-"
        rows.append(
            [
                name,
                f"{result.accuracy:.0%}",
                result.mean_error_m,
                result.max_error_m,
                el,
            ]
        )
    print(format_table(
        ["system", "accuracy", "mean err (m)", "max err (m)", "EL"], rows
    ))
    return 0


def _export_traces(
    study: Study, output: Path, split: str, count: Optional[int]
) -> int:
    from .io.traces import traces_to_dict

    traces = (
        study.training_traces if split == "training" else study.test_traces
    )
    if count is not None:
        traces = traces[:count]
    save_json(traces_to_dict(traces), output)
    hops = sum(t.n_hops for t in traces)
    print(f"wrote {len(traces)} {split} traces ({hops} hops) to {output}")
    return 0


def _metrics(
    study: Study,
    n_sessions: int,
    corpus_size: int,
    n_aps: int,
    output: Optional[Path],
) -> int:
    """Serve a corpus-replay workload batched, print the metrics JSON."""
    import json

    from .observability import MetricsRegistry
    from .serving import (
        BatchedServingEngine,
        build_session_services,
        serve_batched,
    )
    from .sim.evaluation import multi_session_workload

    fingerprint_db = study.fingerprint_db(n_aps)
    motion_db, _ = study.motion_db(n_aps)
    workload_registry = MetricsRegistry()
    workload = multi_session_workload(
        study.test_traces,
        n_sessions,
        corpus_size=min(corpus_size, n_sessions),
        stagger_ticks=2,
        registry=workload_registry,
    )
    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=study.scenario.plan,
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, study.config)
    serve_batched(engine, workload, services)
    document = dict(engine.metrics_snapshot())
    document["workload"] = workload_registry.snapshot()
    text = json.dumps(document, indent=2, sort_keys=True)
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _chaos(
    study: Study,
    n_sessions: int,
    corpus_size: int,
    n_aps: int,
    chaos_seed: int,
    rate: float,
    tick_budget_ms: Optional[float],
    output: Optional[Path],
    adversarial: bool = False,
) -> int:
    """Serve a workload under a seeded storm, print the chaos report."""
    import json

    from .chaos import ChaosHarness, FaultPlan
    from .serving import BatchedServingEngine, build_session_services
    from .sim.evaluation import multi_session_workload

    fingerprint_db = study.fingerprint_db(n_aps)
    motion_db, _ = study.motion_db(n_aps)
    workload = multi_session_workload(
        study.test_traces,
        n_sessions,
        corpus_size=min(corpus_size, n_sessions),
        stagger_ticks=2,
    )
    make_service = None
    if adversarial:
        from .motion.pedestrian import BodyProfile
        from .robustness import ResilientMoLocService
        from .robustness.trust import ApTrustMonitor

        def make_service(trace):
            # One monitor per session: trust state is per-user.
            return ResilientMoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=study.config,
                plan=study.scenario.plan,
                trust=ApTrustMonitor(n_aps=n_aps),
            )

    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=study.scenario.plan,
        make_service=make_service,
    )
    engine = BatchedServingEngine(
        fingerprint_db,
        motion_db,
        study.config,
        tick_budget_s=(
            None if tick_budget_ms is None else tick_budget_ms / 1e3
        ),
    )
    storm_kinds = None
    if adversarial:
        from .chaos.plan import ADVERSARY_KINDS, DEFAULT_RANDOM_KINDS

        storm_kinds = list(DEFAULT_RANDOM_KINDS) + list(ADVERSARY_KINDS)
    plan = FaultPlan.random(
        seed=chaos_seed,
        n_ticks=len(workload.ticks),
        session_ids=sorted(workload.sessions),
        rate=rate,
        kinds=storm_kinds,
        n_aps=n_aps if adversarial else None,
    )
    harness = ChaosHarness(engine, plan)
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    totals = {
        "served": 0,
        "faulted": 0,
        "quarantined": 0,
        "duplicates": 0,
        "stale": 0,
        "shed": 0,
        "evicted": 0,
    }
    for tick in workload.ticks:
        outcome = harness.tick_detailed(list(tick))
        totals["served"] += len(outcome.served)
        totals["faulted"] += len(outcome.faulted)
        totals["quarantined"] += len(outcome.quarantined)
        totals["duplicates"] += len(outcome.duplicates)
        totals["stale"] += len(outcome.stale)
        totals["shed"] += len(outcome.shed)
        totals["evicted"] += len(outcome.evicted)
    document = {
        "report": "chaos",
        "chaos_seed": chaos_seed,
        "adversarial": adversarial,
        "rate": rate,
        "sessions": n_sessions,
        "ticks": len(workload.ticks),
        "scheduled_faults": len(plan),
        "plan": plan.to_dict(),
        "outcome_totals": totals,
        "surviving_sessions": len(engine.sessions),
        "metrics": engine.metrics_snapshot(),
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _serve(study: Study, args) -> int:
    """The ingress front door over a sharded deployment.

    Boots :class:`~repro.ingress.IngressServer`, pre-admits the
    workload's sessions, prints one JSON line with the bound address,
    and runs until a ``shutdown`` op or Ctrl-C.  Its bitwise contract
    against the lockstep coordinator is ``python -m repro gate
    async-lockstep``.
    """
    import asyncio
    import json
    import tempfile

    from .cluster import fresh_session_entry
    from .gates import World, make_shards
    from .ingress import IngressConfig, IngressServer
    from .serving import build_session_services
    from .sim.evaluation import multi_session_workload

    fingerprint_db = study.fingerprint_db(args.n_aps)
    motion_db, _ = study.motion_db(args.n_aps)
    config = IngressConfig(
        batch_window_s=args.batch_window_ms / 1e3,
        max_batch=args.max_batch,
        admission_capacity=args.capacity,
        admission_policy=args.policy,
    )
    if args.workdir is None:
        shard_dir = Path(tempfile.mkdtemp(prefix="repro-ingress-"))
    else:
        shard_dir = args.workdir
        shard_dir.mkdir(parents=True, exist_ok=True)
    workload = multi_session_workload(
        study.test_traces,
        args.sessions,
        corpus_size=min(args.corpus_size, args.sessions),
        stagger_ticks=2,
    )
    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=study.scenario.plan,
    )
    shards = make_shards(
        World(fingerprint_db, motion_db, study.config, workload),
        shard_dir,
        args.shards,
        plan=study.scenario.plan,
    )

    async def run_server() -> None:
        server = IngressServer(
            shards, config, host=args.host, port=args.port
        )
        for session_id, service in sorted(services.items()):
            server.admit_session(fresh_session_entry(session_id, service))
        host, port = await server.start()
        print(
            json.dumps(
                {
                    "report": "ingress-serve",
                    "host": host,
                    "port": port,
                    "shards": args.shards,
                    "sessions": sorted(services),
                },
                sort_keys=True,
            ),
            flush=True,
        )
        try:
            await server.wait_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        pass
    finally:
        for shard in shards:
            shard.shutdown()
    return 0


def _report(study: Study, output: Path) -> int:
    """Write the full experiment report (all figures/tables) as markdown."""
    from .analysis.ambiguity import analyze_ambiguity
    from .analysis.comparison import compare_systems
    from .env.render import render_floorplan

    lines: List[str] = []
    lines.append("# MoLoc reproduction report")
    lines.append("")
    lines.append(
        f"Seed {study.scenario.seed}; {len(study.training_traces)} training "
        f"walks, {len(study.test_traces)} test walks over "
        f"{len(study.scenario.plan)} reference locations."
    )
    lines.append("")
    lines.append("## Environment")
    lines.append("")
    lines.append("```")
    lines.append(render_floorplan(study.scenario.plan))
    lines.append("```")
    lines.append("")

    lines.append("## Motion database (Fig. 6)")
    lines.append("")
    directions, offsets, spurious = motion_database_errors(study)
    d_cdf = EmpiricalCdf.from_samples(directions)
    o_cdf = EmpiricalCdf.from_samples(offsets)
    lines.append(
        f"- {len(directions)} aisle hops covered, {spurious} spurious pairs"
    )
    lines.append(
        f"- direction error: median {d_cdf.median:.1f} deg, "
        f"max {d_cdf.maximum:.1f} deg (paper: 3 / 15)"
    )
    lines.append(
        f"- offset error: median {o_cdf.median:.2f} m, "
        f"max {o_cdf.maximum:.2f} m (paper: 0.13 / 0.46)"
    )
    lines.append("")

    lines.append("## Localization (Fig. 7 / Fig. 8 / Table I)")
    lines.append("")
    lines.append(
        "| setting | MoLoc acc | WiFi acc | MoLoc mean err | WiFi mean err "
        "| twin locations | MoLoc EL | WiFi EL |"
    )
    lines.append("|---|---|---|---|---|---|---|---|")
    significant = None
    for n_aps in AP_COUNTS:
        results = evaluate_systems(study, n_aps)
        moloc, wifi = results["moloc"], results["wifi"]
        _, ambiguous = large_error_comparison(study, n_aps)
        try:
            el_m = f"{convergence_statistics(moloc).mean_erroneous_localizations:.2f}"
            el_w = f"{convergence_statistics(wifi).mean_erroneous_localizations:.2f}"
        except ValueError:
            el_m = el_w = "-"
        lines.append(
            f"| {n_aps} APs | {moloc.accuracy:.0%} | {wifi.accuracy:.0%} "
            f"| {moloc.mean_error_m:.2f} m | {wifi.mean_error_m:.2f} m "
            f"| {len(ambiguous)} | {el_m} | {el_w} |"
        )
        if n_aps == 6:
            significant = compare_systems(moloc, wifi)
    lines.append("")
    if significant is not None:
        lines.append(
            f"At 6 APs the accuracy delta is "
            f"{significant.accuracy_delta:+.0%} with "
            f"{significant.confidence:.0%} CI "
            f"[{significant.accuracy_ci[0]:+.0%}, "
            f"{significant.accuracy_ci[1]:+.0%}] "
            f"({'significant' if significant.a_significantly_more_accurate else 'not significant'})."
        )
    lines.append("")

    lines.append("## Fingerprint twins (ambiguity analysis)")
    lines.append("")
    report_4ap = analyze_ambiguity(
        study.fingerprint_db(4), study.scenario.plan
    )
    for pair in report_4ap.distant_twins(6.0)[:5]:
        lines.append(
            f"- locations {pair.location_a} and {pair.location_b}: "
            f"{pair.signal_gap_db:.1f} dB apart in signal, "
            f"{pair.physical_distance_m:.1f} m apart on the floor"
        )
    lines.append("")

    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote report to {output}")
    return 0


def _redteam(study: Study, smoke: bool, output: Optional[Path]) -> int:
    """Run the adversarial sweep, print the report, gate the exit code."""
    import json

    from .analysis.redteam import run_redteam

    document = run_redteam(study, smoke=smoke)
    text = json.dumps(document, indent=2, sort_keys=True)
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if document["gate"]["passed"] else 1


def _matrix(
    seed: int, smoke: bool, output: Path, specs_dir: Optional[Path]
) -> int:
    """Run the scenario matrix, write the artifact, gate the exit code."""
    from .analysis.matrix import (
        FULL_PROFILE,
        SMOKE_PROFILE,
        run_matrix,
        validate_matrix_document,
        write_matrix_artifacts,
    )

    profile = SMOKE_PROFILE if smoke else FULL_PROFILE
    document = run_matrix(profile, seed=seed)
    write_matrix_artifacts(document, output, specs_dir=specs_dir)
    problems = validate_matrix_document(document)
    print(
        f"matrix: {document['n_cells']} cells over "
        f"{document['n_environments']} environments in "
        f"{document['elapsed_s']:.1f}s -> {output}"
    )
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    return 0 if not problems else 1




def _gate(parser: argparse.ArgumentParser, args) -> int:
    """Run registered gates, print the document, gate the exit code."""
    import json

    from .gates import GATES, run_gates

    unknown = sorted(set(args.names) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; known: {sorted(GATES)}")
    if args.all == bool(args.names):
        parser.error("gate: name one or more gates, or pass --all")
    document = run_gates(
        list(GATES) if args.all else args.names,
        seed=args.seed,
        smoke=args.smoke,
        transport=args.transport,
        chaos_seed=args.chaos_seed,
    )
    for name, result in document["gates"].items():
        print(
            f"{name}: {'pass' if result['passed'] else 'FAIL'}, "
            f"{result['comparisons']} comparisons, "
            f"{result['mismatches']} mismatches, largest difference "
            f"{result['max_difference']}",
            file=sys.stderr,
        )
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if document["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
