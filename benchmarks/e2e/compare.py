"""Compare a change against its parent commit on the end-to-end benchmark.

    python benchmarks/e2e/compare.py --parent PARENT_TREE --change CHANGE_TREE \\
        [--workload NAME ...] [--seed-base N] [--out FILE]

Each tree is a checkout with ``src/``, ``BENCHMARK.json`` and
``benchmarks/e2e/``.  For every workload, ten pairs of runs are made,
parent and change on the same seed, alternating which side runs first,
each measuring for its tree's ``run_seconds``; every end-to-end metric
of the parent's ``BENCHMARK.json`` is judged against its own bound:

* **gain** — the change is better in at least 9 of every 10 pairs (ties
  count for neither side), its median differs from the parent's by more
  than the parent's interquartile range, and it failed no more requests;
* **regression** — its median is worse than the parent's by more than
  the bound;
* **unresolved** — either side's spread (interquartile range over
  median) exceeds the bound, unless every change run reads better than
  every parent run;
* **within bound** — otherwise.

The per-layer metrics that an untraced run reports too (the throughput
and latency the benchmark reports but does not gate) have no bound:
they are judged **gain** by the same rule, and **not gated** otherwise.

Fix streams are deterministic per seed, so a change that leaves the
serving arithmetic alone reproduces the parent's ``mean_error_m`` on
every seed exactly; the row says whether it did.  One row is printed
per workload; ``--out`` saves every run and verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402

PAIRS = 10
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 900


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
    parent_failed: int = 0,
    change_failed: int = 0,
) -> Dict[str, object]:
    """The verdict on one metric from paired runs (same seed per pair).

    A metric without a bound can only be judged a gain.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    p_spread, c_spread = spread(parent), spread(change)
    # Positive when the change is better, as a share of the parent.
    gain = sign * (c_median - p_median) / abs(p_median)
    every_run_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if (
        wins >= math.ceil(WIN_SHARE * len(parent))
        and gain > 0
        and abs(c_median - p_median) > p_q3 - p_q1
        and change_failed <= parent_failed
    ):
        verdict = "gain"
    elif bound is None:
        verdict = "not gated"
    elif max(p_spread, c_spread) > bound and not every_run_better:
        verdict = "unresolved"
    elif -gain > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "verdict": verdict,
        "wins": wins,
        "pairs": len(parent),
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3, "spread": p_spread},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3, "spread": c_spread},
        "gain": gain,
        "bound": bound,
    }


def judge_workload(
    runs: Dict[str, List[Dict[str, object]]], benchmark: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Every metric an untraced run reports, from paired run reports.

    Each run is the full report of ``run.py --out``: its ``end_to_end``
    section holds every metric the untraced measurement took.
    """
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    reported = set(runs["parent"][0]["end_to_end"])
    metrics = list(benchmark["end_to_end"]) + [
        dict(m, bound=None) for m in benchmark["per_layer"] if m["name"] in reported
    ]
    verdicts = {
        metric["name"]: judge(
            [r["end_to_end"][metric["name"]] for r in runs["parent"]],
            [r["end_to_end"][metric["name"]] for r in runs["change"]],
            metric["better"],
            metric["bound"],
            failed["parent"],
            failed["change"],
        )
        for metric in metrics
    }
    differs = sum(
        1
        for parent, change in zip(runs["parent"], runs["change"])
        if parent["end_to_end"]["mean_error_m"] != change["end_to_end"]["mean_error_m"]
    )
    verdicts["mean_error_m"] = {
        "verdict": "identical" if not differs else f"differs on {differs} seeds",
        "pairs": len(runs["parent"]),
    }
    return verdicts


def _benchmark_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "benchmarks" / "e2e").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _run(tree: Path, workload: str, seed: int) -> Dict[str, object]:
    """One untraced run's full report.

    A run that failed its checks — a wrong answer, a failed request, or
    a void open-loop run — measured nothing, so the comparison stops.
    """
    # Inside the tree's own scratch directory, which git ignores.
    report_path = tree / "benchmarks" / "e2e" / ".work" / f"compare-{workload}-{seed}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        "benchmarks/e2e/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--out", str(report_path),
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0 or not report_path.exists():
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} failed its checks:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    report = json.loads(report_path.read_text())
    report_path.unlink()
    return report


def _print_rows(verdicts: Dict[str, Dict[str, Dict[str, object]]]) -> None:
    for workload, metrics in verdicts.items():
        cells = []
        for name, v in metrics.items():
            if "gain" not in v:
                cells.append(f"{name}: {v['verdict']}")
                continue
            bound = "none" if v["bound"] is None else f"{v['bound']:.0%}"
            cells.append(
                f"{name}: {v['verdict']} ({v['parent']['median']:.4g} -> "
                f"{v['change']['median']:.4g}, {v['gain']:+.1%}, "
                f"wins {v['wins']}/{v['pairs']}, bound {bound})"
            )
        print(f"{workload:12s} | " + " | ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if _benchmark_digest(args.parent) != _benchmark_digest(args.change):
        print("warning: the two trees carry different benchmark code", file=sys.stderr)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs = {}
    for workload in names:
        runs[workload] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            seed = args.seed_base + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[workload][side].append(_run(tree, workload, seed))
            print(f"{workload}: pair {pair + 1}/{PAIRS} done", file=sys.stderr)

    verdicts = {
        workload: judge_workload(sides, benchmark)
        for workload, sides in runs.items()
    }
    _print_rows(verdicts)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"benchmark": benchmark, "runs": runs, "verdicts": verdicts}, indent=2)
        )
    regressions = [
        (w, m)
        for w, ms in verdicts.items()
        for m, v in ms.items()
        if v["verdict"] == "regression" or v["verdict"].startswith("differs")
    ]
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
