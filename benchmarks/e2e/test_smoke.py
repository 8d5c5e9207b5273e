"""A ``--smoke`` run of every workload, through the real command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _command(tmp_path, workload, *extra, program=(str(HERE / "run.py"),)):
    return subprocess.run(
        [
            sys.executable,
            *program,
            "--workload", workload,
            "--seed", "3",
            "--smoke",
            "--out", str(tmp_path / f"{workload}.json"),
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _run(tmp_path, workload, *extra):
    done = _command(tmp_path, workload, *extra)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    report = json.loads((tmp_path / f"{workload}.json").read_text())
    return json.loads(done.stdout.strip().splitlines()[-1]), report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(tmp_path, workload):
    result, report = _run(tmp_path, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert report["mismatches"] == []


def test_run_with_a_late_load_generator_is_void_and_fails(tmp_path):
    # A lateness limit below zero makes every open-loop run void.
    force_void = (
        "-c",
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        "run.tcp.VOID_LATENESS_MS = -1.0; sys.exit(run.main(sys.argv[1:]))",
    )
    done = _command(tmp_path, "epoch-churn", program=force_void)
    assert done.returncode != 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False
    assert "void run: load generator lateness p99" in done.stdout


def test_traced_smoke_run_reports_every_per_layer_metric(tmp_path):
    result, report = _run(tmp_path, "tick-8", "--trace")
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(result["metrics"])
    assert report["per_layer"]["engine.tick_ms"] > 0
    assert "trace.overhead_pct" in report["per_layer"]
    spans = json.loads((tmp_path / "tick-8.spans.json").read_text())
    names = {span[1] for document in spans for span in document["spans"]}
    assert {"engine.tick", "service.prepare", "matcher.match_batch"} <= names
