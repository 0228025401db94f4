"""Integration tests for the benchmark harness, figure registry, and CLI."""

import pytest

from repro.api import DeploymentSpec, Scenario
from repro.bench import cli
from repro.bench.cli import _build_parser, _deployment, main as cli_main
from repro.bench.experiments import FIGURES, FigureResult, list_figures, run_figure
from repro.bench.harness import run_curve
from repro.bench.reporting import figure_to_csv, format_figure, format_table
from repro.common.types import FaultModel


class TestHarness:
    def test_run_curve_and_peak(self):
        scenario = Scenario(
            deployment=DeploymentSpec(system="apr", fault_model=FaultModel.CRASH),
            name="APR-C",
            duration=0.06,
            warmup=0.01,
            verify=False,
        )
        curve = run_curve(scenario, client_counts=[2, 8])
        assert len(curve.points) == 2
        assert [point.clients for point in curve.points] == [2, 8]
        assert curve.peak().throughput == max(p.throughput for p in curve.points)
        assert curve.system == "apr"
        rows = curve.as_rows()
        assert rows[0]["system"] == "APR-C"

    def test_figure_series_are_performance_only_scenarios(self):
        figure = FIGURES["fig7b"]
        scenario = figure.scenario_for(figure.series[1], duration=0.2, warmup=0.05)
        assert scenario.name == "AHL-B"
        assert scenario.deployment.system == "ahl"
        assert scenario.deployment.fault_model is FaultModel.BYZANTINE
        assert scenario.workload.cross_shard_fraction == 0.2
        assert (scenario.workload.accounts_per_shard, scenario.workload.num_clients) == (256, 32)
        assert (scenario.duration, scenario.warmup, scenario.verify) == (0.2, 0.05, False)


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


class TestFigureMode:
    """Figure mode honours ``--seed`` and refuses the flags only scenarios read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Replace the figure runner with a recorder that measures nothing."""
        recorded = []

        def fake_run_figure(figure_id, **kwargs):
            recorded.append((figure_id, kwargs))
            return FigureResult(figure=FIGURES[figure_id])

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        return recorded

    def test_seed_is_the_first_of_the_seeds(self, calls):
        assert cli_main(["fig8a", "--quiet", "--seed", "7"]) == 0
        assert cli_main(["fig8a", "--quiet", "--seed", "7", "--seeds", "3"]) == 0
        assert cli_main(["fig8a", "--quiet"]) == 0
        assert [list(kwargs["seeds"]) for _, kwargs in calls] == [[7], [7, 8, 9], [1]]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_seeds_below_one_are_refused(self, calls, capsys, count):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["fig8a", "--seeds", count])
        assert exit_info.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--clusters", "2"],
            ["--byzantine"],
            ["--cross-shard=0.5"],
            ["--clients", "8"],
            ["--attack", "coalition"],
            ["--crash-primary-at", "0.1"],
            ["--recover-node-at", "0.2"],
            ["--batch-size", "8"],
            ["--checkpoint-interval", "16"],
            ["--archive", "run.db"],
            ["--trace"],
        ],
        ids=lambda flags: flags[0].split("=")[0],
    )
    def test_scenario_flags_are_refused(self, calls, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["fig8a", *flags])
        assert exit_info.value.code == 2
        assert flags[0].split("=")[0] in capsys.readouterr().err
        assert calls == []

    def test_csv_for_several_figures_lands_beside_the_named_file(
        self, calls, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        assert cli_main(["fig8a", "fig8b", "--quiet", "--csv", "out/points.csv"]) == 0
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
            "fig8a_points.csv",
            "fig8b_points.csv",
        ]
