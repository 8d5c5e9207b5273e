"""Staleness sweep — what a stale epoch costs, what one advance buys.

The epochal database (:mod:`repro.db.epochs`) lets a deployment absorb
environment churn — dead APs, power-cycled transmitters, seasonal
drift — by compacting crowdsourced updates into immutable epoch
snapshots.  :func:`repro.analysis.staleness.run_staleness` replays the
held-out walks through a changed field at increasing staleness levels
(accumulated churn events) against the frozen epoch-0 database and
against the database refreshed by exactly the churn's repair updates.

The committed gate (``BENCH_staleness.json`` at the repo root):

* at full churn (site drift + a re-powered AP + a dead AP) one epoch
  advance recovers at least 50% of the churn-induced mean-error
  increase: ``(stale - refreshed) / (stale - clean) >= 0.5``;
* a fixed environment costs nothing: the batched serving engine over
  an ``EpochalDatabase`` at epoch 0 produces a fix stream bitwise
  identical to the same engine over the frozen database.

The timed operation is the smoke sweep (six walks, mechanics checks);
the full sweep is the ``staleness_recovery`` check of
``python -m repro gate epoch-flip``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.staleness import RECOVERY_GATE, run_staleness
from repro.analysis.tables import format_table

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_staleness.json"


def test_staleness_sweep(benchmark, study, report):
    benchmark(lambda: run_staleness(study, smoke=True))

    document = run_staleness(study)
    OUTPUT_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    clean = document["clean"]
    rows = []
    for level in document["levels"]:
        recovered = level["recovered_fraction"]
        rows.append(
            [
                str(level["staleness"]),
                ", ".join(entry["kind"] for entry in level["churn"]),
                f"{clean['mean_error_m']:.2f}",
                f"{level['stale']['mean_error_m']:.2f}",
                f"{level['refreshed']['mean_error_m']:.2f}",
                "-" if recovered is None else f"{recovered:.2f}",
            ]
        )
    report(
        "Staleness — mean error (m) by accumulated churn",
        format_table(
            ["level", "churn", "clean", "stale", "refreshed", "recovered"],
            rows,
        ),
    )

    # The clean fixed-environment path must be bitwise free.
    assert document["epoch0_fix_stream_bitwise_identical"]

    # Full churn must actually hurt, and hurt more than partial churn
    # did at level 1 — otherwise the sweep's axis measures nothing.
    top = document["levels"][-1]
    assert top["stale"]["mean_error_m"] > clean["mean_error_m"]

    # The committed gate: one epoch advance recovers >= 50% of the
    # churn-induced error at full staleness.
    gate = document["gate"]
    assert gate["mode"] == "full"
    assert gate["observed_recovered_fraction"] >= RECOVERY_GATE, gate
    assert gate["passed"], gate

    # The refresh must never *worsen* a stale deployment at any level.
    for level in document["levels"]:
        assert (
            level["refreshed"]["mean_error_m"]
            <= level["stale"]["mean_error_m"] + 1e-9
        ), level
