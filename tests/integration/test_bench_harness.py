"""Integration tests for the benchmark harness, figure registry, and CLI."""

import pytest

from repro.api import DeploymentSpec
from repro.bench.cli import _build_parser, _deployment, main as cli_main
from repro.bench.experiments import FIGURES, list_figures, run_figure
from repro.bench.harness import ExperimentSpec, run_curve, run_point, peak_throughput
from repro.bench.reporting import figure_to_csv, format_figure, format_table
from repro.common.types import FaultModel


class TestExperimentSpec:
    def test_unknown_system_rejected(self):
        spec = ExperimentSpec(system="nope", fault_model=FaultModel.CRASH)
        with pytest.raises(KeyError):
            spec.build_system()

    def test_build_every_registered_system(self):
        for name in ("sharper", "ahl", "apr", "fast"):
            spec = ExperimentSpec(system=name, fault_model=FaultModel.CRASH)
            system = spec.build_system()
            assert system.route(system.make_workload().next_transaction()) >= 0


class TestHarness:
    def test_run_point_produces_stats(self):
        spec = ExperimentSpec(
            system="sharper", fault_model=FaultModel.CRASH,
            cross_shard_fraction=0.2, duration=0.08, warmup=0.02,
        )
        stats = run_point(spec, clients=8, check_consistency=True)
        assert stats.committed > 0
        assert stats.throughput > 0
        assert stats.avg_latency > 0

    def test_run_curve_and_peak(self):
        spec = ExperimentSpec(
            system="apr", fault_model=FaultModel.CRASH, duration=0.06, warmup=0.01
        )
        curve = run_curve(spec, client_counts=[2, 8], label="APR-C")
        assert len(curve.points) == 2
        assert peak_throughput(curve) == max(p.throughput for p in curve.points)
        rows = curve.as_rows()
        assert rows[0]["system"] == "APR-C"


class TestFigureRegistry:
    def test_every_paper_figure_is_defined(self):
        expected = {"fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b"}
        assert expected == set(list_figures())

    def test_figure_series_match_paper(self):
        assert [series.label for series in FIGURES["fig6a"].series] == [
            "SharPer", "AHL-C", "APR-C", "FPaxos",
        ]
        assert [series.label for series in FIGURES["fig7d"].series] == [
            "SharPer", "AHL-B", "APR-B", "FaB",
        ]
        assert [series.num_clusters for series in FIGURES["fig8a"].series] == [2, 3, 4, 5]

    def test_cross_shard_fractions_match_paper(self):
        assert FIGURES["fig6a"].cross_shard_fraction == 0.0
        assert FIGURES["fig6c"].cross_shard_fraction == 0.8
        assert FIGURES["fig7d"].cross_shard_fraction == 1.0
        assert FIGURES["fig8a"].cross_shard_fraction == pytest.approx(0.1)

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            run_figure("fig99z")


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        assert "a" in text and "22" in text
        assert format_table([]) == "(no data)"

    def test_figure_run_and_reports(self):
        result = run_figure(
            "fig6a", client_counts=[4], duration=0.05, warmup=0.01
        )
        text = format_figure(result)
        assert "fig6a" in text and "SharPer" in text
        csv_text = figure_to_csv(result)
        assert csv_text.splitlines()[0].startswith("system,")
        assert len(result.peaks()) == 4

    def test_cli_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6a" in out and "fig8b" in out


class TestScenarioFlags:
    """An unset knob keeps the default ``ProtocolTuning`` owns; the CLI restates none."""

    @staticmethod
    def resolved(*flags):
        args = _build_parser().parse_args(["--scenario", "sharper", *flags])
        return _deployment(args).resolve()

    def test_no_flags_resolve_the_default_deployment(self):
        assert self.resolved() == DeploymentSpec().resolve()

    def test_spelled_out_defaults_resolve_the_same_config(self):
        spelled = self.resolved(
            "--batch-size", "1", "--pipeline-depth", "32", "--checkpoint-interval", "0"
        )
        assert spelled == self.resolved()
