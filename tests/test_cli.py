"""Tests for the command-line interface.

CLI commands that need the paper-scale study are exercised through
``main()`` directly (same process) so the session fixtures stay warm.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_parses(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.seed == 7

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "3", "demo"])
        assert args.seed == 3

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_build_db_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-db"])


@pytest.mark.slow
class TestCommands:
    def test_demo_prints_table(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "6-AP moloc" in out
        assert "accuracy" in out

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "detected step times" in out

    def test_experiment_fig6(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "direction errors" in out
        assert "offset errors" in out

    def test_experiment_fig7(self, capsys):
        assert main(
            ["--training-traces", "60", "--test-traces", "6",
             "experiment", "fig7"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 7 4-AP" in out and "moloc" in out

    def test_experiment_fig8(self, capsys):
        assert main(
            ["--training-traces", "60", "--test-traces", "6",
             "experiment", "fig8"]
        ) == 0
        out = capsys.readouterr().out
        assert "twin locations" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "6-AP MoLoc" in out
        assert "EL" in out

    def test_build_db_writes_artifacts(self, capsys, tmp_path):
        assert main(["build-db", "--output", str(tmp_path), "--n-aps", "5"]) == 0
        for name in ("floorplan", "graph", "fingerprint_db", "motion_db"):
            path = tmp_path / f"{name}.json"
            assert path.exists(), f"{name}.json missing"
            payload = json.loads(path.read_text())
            assert payload["format_version"] == 1

    def test_evaluate_from_saved_databases(self, capsys, tmp_path):
        main(["build-db", "--output", str(tmp_path), "--n-aps", "5"])
        capsys.readouterr()
        assert main(
            [
                "evaluate",
                "--n-aps",
                "5",
                "--databases",
                str(tmp_path),
                "--systems",
                "moloc",
                "wifi",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "moloc" in out
        assert "wifi" in out

    def test_evaluate_without_databases(self, capsys):
        assert main(["evaluate", "--n-aps", "6", "--systems", "wifi"]) == 0
        out = capsys.readouterr().out
        assert "wifi" in out

    def test_report_writes_markdown(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(
            [
                "--training-traces",
                "60",
                "--test-traces",
                "8",
                "report",
                "--output",
                str(path),
            ]
        ) == 0
        text = path.read_text()
        assert "# MoLoc reproduction report" in text
        assert "Motion database" in text
        assert "| 6 APs |" in text

    def test_export_traces(self, capsys, tmp_path):
        from repro.io.serialize import load_json
        from repro.io.traces import traces_from_dict

        path = tmp_path / "traces.json"
        assert main(
            ["export-traces", "--output", str(path), "--count", "2"]
        ) == 0
        restored = traces_from_dict(load_json(path))
        assert len(restored) == 2
        out = capsys.readouterr().out
        assert "2 test traces" in out


def _assert_gate_defaults(name):
    args = build_parser().parse_args(["gate", name])
    assert args.command == "gate" and args.names == [name]
    assert args.all is False and args.smoke is False
    assert args.transport == "local"
    assert args.chaos_seed is None and args.output is None


def _assert_gate_transport_choices(name):
    args = build_parser().parse_args(
        ["gate", name, "--smoke", "--transport", "process"]
    )
    assert args.smoke is True and args.transport == "process"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gate", name, "--transport", "tcp"])


class TestClusterParser:
    """The ``cluster`` subcommand is now ``gate sharded-single``."""

    def test_cluster_parses_with_defaults(self):
        _assert_gate_defaults("sharded-single")

    def test_cluster_transport_choices(self):
        _assert_gate_transport_choices("sharded-single")
        args = build_parser().parse_args(
            ["gate", "sharded-single", "--chaos-seed", "3"]
        )
        assert args.chaos_seed == 3


class TestEpochsParser:
    """The ``epochs`` subcommand is now ``gate epoch-flip``."""

    def test_epochs_parses_with_defaults(self):
        _assert_gate_defaults("epoch-flip")

    def test_epochs_transport_choices(self):
        _assert_gate_transport_choices("epoch-flip")


class TestGaitParser:
    """The ``gait`` subcommand is now ``gate gait``."""

    def test_gait_parses_with_defaults(self):
        _assert_gate_defaults("gait")

    def test_gait_transport_choices(self):
        _assert_gate_transport_choices("gait")


class TestGateParser:
    def test_gate_parses_and_validates_names(self):
        args = build_parser().parse_args(["gate", "--all"])
        assert args.command == "gate" and args.all and args.names == []
        args = build_parser().parse_args(["gate", "epoch-flip", "gait"])
        assert args.names == ["epoch-flip", "gait"]
        for argv in (["gate"], ["gate", "nope"], ["gate", "gait", "--all"]):
            with pytest.raises(SystemExit):
                main(argv)


class TestMatrixCommand:
    def test_matrix_parses_with_defaults(self):
        args = build_parser().parse_args(["matrix"])
        assert args.command == "matrix"
        assert args.smoke is False
        assert args.output.name == "BENCH_matrix.json"
        assert args.specs_dir is None

    def test_matrix_smoke_writes_valid_gated_artifact(self, capsys, tmp_path):
        output = tmp_path / "BENCH_matrix.json"
        specs_dir = tmp_path / "specs"
        assert main(
            [
                "matrix",
                "--smoke",
                "--output",
                str(output),
                "--specs-dir",
                str(specs_dir),
            ]
        ) == 0
        capsys.readouterr()
        from repro.analysis.matrix import validate_matrix_document
        from repro.env.procedural import EnvironmentSpec

        document = json.loads(output.read_text())
        assert document["report"] == "matrix"
        assert document["n_cells"] >= 12
        assert validate_matrix_document(document) == []
        spec_files = sorted(specs_dir.glob("*.json"))
        assert len(spec_files) == document["n_environments"]
        for spec_file in spec_files:
            EnvironmentSpec.from_dict(json.loads(spec_file.read_text()))
