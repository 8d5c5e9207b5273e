"""Run one workload of the end-to-end benchmark, check it, report it.

    PYTHONPATH=src python benchmarks/e2e/run.py --workload NAME --seed N \\
        [--trace [0|1]] [--smoke] [--out FILE]

Workloads: ``tick-256``, ``tick-8`` (the batched engine in process),
``open-loop`` and ``epoch-churn`` (a spawned TCP ingress server).  The
inputs are generated from ``--seed``; the program only ever sees them
through ``BatchedServingEngine.tick_detailed`` or the TCP wire protocol.
A run measures for ``run_seconds`` of ``BENCHMARK.json``, a ``--smoke``
run for ``SMOKE_SECONDS``; ``--seconds`` is accepted because the
standard benchmark command line passes that same value explicitly.

Every metric is printed with its unit.  With ``--trace`` the untraced
measurement is followed by a traced one over the same inputs; the
per-layer table comes from the traced run and ``trace.overhead_pct``
from the difference between the two.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the ``end_to_end`` metrics of ``BENCHMARK.json``, or its
``per_layer`` metrics under ``--trace``.  The exit code is nonzero when
any fix stream or flip checksum differs from its reference, or any
request failed or went unanswered.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCES = ROOT / "src"
if not (SOURCES / "repro").is_dir():
    sys.exit(f"{SOURCES}: no program sources; run from the root of a checkout")
sys.path.insert(0, str(SOURCES))

import spans  # noqa: E402
import tcp  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tick-256", "tick-8", "open-loop", "epoch-churn")
WORK_ROOT = HERE / ".work"
SMOKE_SECONDS = 1.5

# Units follow from metric names: the first dotted part, from the
# right, that ends in a known suffix.  Anything else is a count.
_SUFFIX_UNITS = (
    ("_ivps", "iv/s"),
    ("_ms", "ms"),
    ("_us", "us"),
    ("_s", "s"),
    ("_pct", "%"),
    ("_rate", "fraction"),
    ("_mb", "MB"),
    ("_m", "m"),
)


def unit_of(name: str) -> str:
    for part in reversed(name.split(".")):
        for suffix, unit in _SUFFIX_UNITS:
            if part.endswith(suffix):
                return unit
    return "count"


# The metric the tracing overhead is judged on, and whether higher is
# better.  Epoch churn runs below capacity, so its throughput is the
# offered rate and only its latency can show the tracer's cost.
HEADLINE = {
    "tick-256": ("throughput_ivps", True),
    "tick-8": ("throughput_ivps", True),
    "open-loop": ("throughput_ivps", True),
    "epoch-churn": ("fix_p50_ms", False),
}


def _parse(argv, benchmark):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="how long to measure (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--out", type=Path, help="write the full report here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return args


def _prepare(args):
    if args.workload in workloads.TICK_SHAPES:
        return workloads.prepare_ticks(args.workload, args.seed, args.smoke)
    return tcp.prepare_tcp(args.workload, args.seed, args.seconds, args.smoke)


def _measure(args, inputs, traced: bool, workdir: Path) -> workloads.Measurement:
    if args.workload in workloads.TICK_SHAPES:
        measurement = workloads.measure_ticks(inputs, args.seconds, traced)
        measurement.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    else:
        measurement = tcp.measure_tcp(
            inputs, args.seconds, traced, workdir / ("traced" if traced else "plain")
        )
    measurement.metrics["error_rate"] = measurement.failed / max(
        measurement.attempted, 1
    )
    return measurement


def _overhead_pct(workload: str, plain, traced) -> float:
    name, higher_is_better = HEADLINE[workload]
    untraced, with_trace = plain.metrics[name], traced.metrics[name]
    ratio = untraced / with_trace if higher_is_better else with_trace / untraced
    return (ratio - 1.0) * 100.0


def _print_table(title: str, values) -> None:
    print(title)
    for name, value in sorted(values.items()):
        print(f"  {name:34s} {value:14.4f} {unit_of(name)}")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, benchmark)
    started = time.perf_counter()
    inputs = _prepare(args)
    synthesis_s = time.perf_counter() - started
    # The benchmark's own inputs are not the program's: keep the
    # collector from scanning them, while it still runs on everything
    # the program allocates.
    gc.collect()
    gc.freeze()

    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plain = _measure(args, inputs, False, workdir)
        traced = _measure(args, inputs, True, workdir) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    mismatches = [m for run in runs for m in run.mismatches]
    correct = not mismatches and failed == 0

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
        f"  (input synthesis {synthesis_s:.1f} s, not measured)"
    )
    _print_table("end-to-end", plain.metrics)
    layers = {}
    if traced is not None:
        layers = spans.layer_metrics(traced.traces)
        if "loadgen.lateness_p99_ms" in traced.notes:
            layers["loadgen.lateness_p99_ms"] = traced.notes["loadgen.lateness_p99_ms"]
        layers.update(traced.caches)
        layers["trace.overhead_pct"] = _overhead_pct(args.workload, plain, traced)
        _print_table("per-layer (traced run)", layers)
    print("notes " + json.dumps(plain.notes, sort_keys=True, default=str))
    print(
        f"checks: {attempted} attempted, {failed} failed, "
        f"{len(mismatches)} mismatches"
    )
    for mismatch in mismatches[:20]:
        print(f"  MISMATCH {mismatch}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "mismatches": mismatches,
            "end_to_end": plain.metrics,
            "per_layer": layers,
            "notes": plain.notes,
        }
        if traced is not None:
            report["self_times"] = spans.self_time_table(traced.traces)
            spans_path = args.out.with_suffix(".spans.json")
            spans_path.write_text(json.dumps(traced.traces))
            report["spans_file"] = spans_path.name
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True, default=str))

    section = "per_layer" if traced is not None else "end_to_end"
    # The per-layer list also carries the end-to-end timings that are
    # reported but not gated; those come from the untraced measurement.
    values = {**plain.metrics, **layers} if traced is not None else plain.metrics
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in benchmark[section]
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
