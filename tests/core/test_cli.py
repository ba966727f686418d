"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["micro", "--model", "bert", "--catalog", "10"])


class TestModelsCommand:
    def test_lists_zoo_with_bug_flags(self):
        code, output = run_cli("models")
        assert code == 0
        assert "gru4rec" in output
        assert "repeatnet" in output and "performance bug" in output


class TestMicroCommand:
    def test_reports_percentiles(self):
        code, output = run_cli(
            "micro", "--model", "stamp", "--catalog", "10000",
            "--requests", "30",
        )
        assert code == 0
        assert "p90=" in output and "stamp" in output

    def test_jit_fallback_noted(self):
        code, output = run_cli(
            "micro", "--model", "lightsans", "--catalog", "10000",
            "--requests", "20",
        )
        assert code == 0
        assert "JIT failed" in output


class TestRunCommand:
    def test_exit_zero_when_slo_met(self):
        code, output = run_cli(
            "run", "--model", "stamp", "--catalog", "10000",
            "--rps", "50", "--duration", "20",
        )
        assert code == 0
        assert "meets p90<=50ms SLO: True" in output

    def test_exit_two_when_slo_missed(self):
        code, output = run_cli(
            "run", "--model", "core", "--catalog", "1000000",
            "--rps", "500", "--replicas", "1", "--duration", "30",
        )
        assert code == 2
        assert "False" in output


class TestInfraCommand:
    def test_actix_summary(self):
        code, output = run_cli(
            "infra-test", "--server", "actix", "--rps", "300", "--duration", "30"
        )
        assert code == 0
        assert "0 errors" in output


class TestWorkloadCommand:
    def test_stdout_head(self):
        code, output = run_cli(
            "workload", "--catalog", "1000", "--clicks", "500", "--head", "5"
        )
        assert code == 0
        assert output.startswith("session_id,item_id,step")
        assert "sessions" in output

    def test_csv_file(self, tmp_path):
        target = tmp_path / "clicks.csv"
        code, output = run_cli(
            "workload", "--catalog", "1000", "--clicks", "200",
            "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "session_id,item_id,step"
        assert len(lines) >= 201

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--clicks", "0", "num_clicks must be >= 1, got 0"),
            ("--clicks", "-5", "num_clicks must be >= 1, got -5"),
            ("--catalog", "0", "catalog_size must be positive"),
            ("--alpha-clicks", "0.5", "exponents must exceed 1"),
        ],
    )
    def test_invalid_input_exits_with_the_message(self, flag, value, message):
        flags = {"--catalog": "1000", "--clicks": "100", flag: value}
        argv = [part for pair in flags.items() for part in pair]
        with pytest.raises(SystemExit, match=message):
            run_cli("workload", *argv)


class TestPlanCommand:
    def test_small_scenario_plans(self):
        code, output = run_cli(
            "plan", "--catalog", "10000", "--rps", "50",
            "--models", "stamp", "--duration", "30", "--max-replicas", "2",
        )
        assert code == 0
        assert "stamp" in output and "$108" in output
