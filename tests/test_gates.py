"""The serving-gate registry: each correctness contract, declared once.

Every registered gate runs at its smoke sizes and must pass with zero
mismatches and exactly the verdicts its documents carry.  A gate must
also be able to fail, and its raw-stream comparison must notice which
slot a dropped event left empty.
"""

from __future__ import annotations

import json

import pytest

from repro import gates
from repro.cli import main
from repro.core.localizer import LocationEstimate

VERDICTS = {
    "sharded-single": ["equal"],
    "async-lockstep": ["equal"],
    "epoch-flip": [
        "flip_streams_equal",
        "flip_survives_kill_during_prepare",
        "epoch0_bitwise_free",
        "flip_checksums_agree",
    ],
    "gait": [
        "disabled_batched_equals_sequential",
        "disabled_shard_streams_equal",
        "adaptive_cluster_consistent",
        "adaptive_changes_serving",
        "bench_gate",
        "bench_document_valid",
    ],
    "ingress-cross": ["streams_equal", "flip_checksums_agree"],
}


def test_every_gate_declares_its_verdicts():
    assert set(VERDICTS) == set(gates.GATES)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, chaos_seed",
    [pytest.param(name, None, id=name) for name in VERDICTS]
    + [pytest.param("sharded-single", 3, id="sharded-single-storm")],
)
def test_smoke_gate_passes(name, chaos_seed, tmp_path):
    result = gates.run_gate(
        name, smoke=True, chaos_seed=chaos_seed, workdir=tmp_path
    )
    assert [check["verdict"] for check in result["checks"]] == VERDICTS[name]
    assert result["passed"] is True
    assert result["mismatches"] == 0 and result["max_difference"] == 0
    assert all(check["comparisons"] > 0 for check in result["checks"])
    details = result["details"]
    if chaos_seed is not None:
        counters = details["cluster-2"]
        injected = sum(
            value
            for counter, value in counters.items()
            if counter.startswith("chaos.injected.")
        )
        assert injected + counters["chaos.skipped"] == details[
            "scheduled_faults"
        ]
        assert counters["cluster.recoveries"] == counters[
            "chaos.injected.worker-kill"
        ]
    if name == "epoch-flip":
        # The kill really forced a respawn; smoke skips the staleness sweep.
        assert details["kill_recoveries"] == 1
        assert "staleness" not in details
    if name == "gait":
        assert set(details["bench"]["mixes"]) == {"paper-walk", "mixed-gait"}
    if name == "ingress-cross":
        # The trust defense was live on both paths, not idle.
        assert details["ingress-4_masked_fixes"] > 0


def test_a_perturbed_candidate_fails_the_gate(monkeypatch, tmp_path, capsys):
    """Speed-adaptive candidate shards must read as a bitwise mismatch."""
    shard_spec = gates.shard_spec
    monkeypatch.setattr(
        gates,
        "shard_spec",
        lambda *args, **kwargs: shard_spec(*args, **{**kwargs, "gait": True}),
    )
    output = tmp_path / "gate.json"
    argv = ["gate", "sharded-single", "--smoke", "--output", str(output)]
    assert main(argv) == 1
    capsys.readouterr()
    result = json.loads(output.read_text())["gates"]["sharded-single"]
    assert result["mismatches"] > 0 and result["max_difference"] > 0
    assert result["passed"] is False


def test_a_moved_dropped_slot_is_a_mismatch(tmp_path):
    fix = LocationEstimate(
        location_id=3, probability=0.5, candidates=(), used_motion=False
    )
    run = gates.GateRun(7, True, "local", None, tmp_path)
    run.record("reference", {"user-0": [fix, None, fix]})
    run.record("candidate", {"user-0": [fix, fix, None]})
    check = gates.bitwise("equal", [("reference", "candidate")], run.checksums)
    assert (check.comparisons, check.mismatches, check.passed) == (1, 1, False)
