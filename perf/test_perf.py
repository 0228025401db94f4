"""Checks of the benchmark itself.  Run explicitly: ``python -m pytest perf -q``.

Not part of the tier-1 suite (``testpaths`` does not list ``perf``): the
smoke runs below take about half a minute.  Every run here is ``--quick``
(one repeat, durations / 3), so the numbers only have to be well formed
and deterministic, not comparable.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import report
import run
from layers import Tracer
from measure import STALL_GAP, stall_seconds
from workloads import WORKLOADS

SPEC = run.load_spec()
END_TO_END = [row["name"] for row in SPEC["end_to_end"]]
PER_LAYER = [row["name"] for row in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SIMULATED = [name for name in END_TO_END if name.startswith("sim_")]


def quick(capsys, name: str, seed: int = 1, trace: int = 0) -> tuple[int, dict]:
    """Exit code and parsed result line of one quick driver-mode run."""
    code = run.run_workload(name, seed, seconds=0.0, trace=trace, quick=True, out=None)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"] and SPEC["command"][-1] == "perf/run.py"
    assert [row["name"] for row in SPEC["workloads"]] == list(WORKLOADS)
    names = END_TO_END + PER_LAYER + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in SPEC["workloads"]:
        assert row["why"] == WORKLOADS[row["name"]].why and len(row["why"]) <= 200
    for row in SPEC["end_to_end"]:
        assert 0 < row["bound"] <= 0.25 and row["better"] in ("higher", "lower")
    setup = next(row for row in SPEC["end_to_end"] if row["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(row["bound"] for row in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(capsys, name):
    code, result = quick(capsys, name)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    for key, row in result["metrics"].items():
        assert row["value"] > 0, key  # the contract wants metrics that are never 0


@pytest.mark.parametrize("name", ["batched_mixed", "failover_ckpt"])
def test_traced_run_emits_every_per_layer_metric(capsys, name):
    code, result = quick(capsys, name, trace=1)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == PER_LAYER
    value = {key: row["value"] for key, row in result["metrics"].items()}
    assert value["perf.accounted_share"] >= run.MIN_ACCOUNTED
    assert value["consensus.pbft.handler_calls_per_commit"] == 0
    if name == "batched_mixed":
        assert value["consensus.batching.txs_per_slot"] > 1
        assert value["consensus.view_change.completed"] == 0
    else:
        # a quick run ends before the 0.5 s view-change timer fires, so
        # only the checkpointing half of the workload shows
        assert value["consensus.batching.txs_per_slot"] == 1
        assert value["recovery.checkpoints_stable"] > 0
        assert value["storage.archive_blocks"] > 0


def test_simulated_metrics_repeat_exactly_and_follow_the_seed(capsys):
    first = quick(capsys, "intra_paxos", seed=1)[1]["metrics"]
    again = quick(capsys, "intra_paxos", seed=1)[1]["metrics"]
    other = quick(capsys, "intra_paxos", seed=2)[1]["metrics"]
    assert [first[key] for key in SIMULATED] == [again[key] for key in SIMULATED]
    assert [first[key] for key in SIMULATED] != [other[key] for key in SIMULATED]


def test_recorder_on_and_off_give_the_same_simulated_results(capsys):
    plain = quick(capsys, "intra_paxos")[1]["metrics"]
    traced = quick(capsys, "traced_intra")[1]["metrics"]
    assert [plain[key] for key in SIMULATED] == [traced[key] for key in SIMULATED]


def test_a_raising_workload_is_a_failed_result_not_a_crash(capsys, monkeypatch):
    healthy = WORKLOADS["intra_paxos"]
    broken = dataclasses.replace(
        healthy,
        scenario=dataclasses.replace(
            healthy.scenario,
            deployment=dataclasses.replace(healthy.scenario.deployment, system="no-such-system"),
        ),
    )
    monkeypatch.setitem(WORKLOADS, "intra_paxos", broken)
    code, result = quick(capsys, "intra_paxos")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1  # failed share 1


def test_stall_counts_long_gaps_and_the_gap_to_the_window_end():
    assert stall_seconds([0.1, 0.105, 0.11], 0.1, 0.11 + STALL_GAP / 2) == 0.0
    # one 0.3 s gap inside the window, then silence to its end
    stalled = stall_seconds([0.05, 0.1, 0.4, 0.41], 0.06, 1.0)
    assert stalled == pytest.approx((0.4 - 0.1) + (1.0 - 0.41) + (0.1 - 0.06))


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def spin(n):
        return sum(range(n))

    inner = tracer.wrap("b:inner", spin)
    outer = tracer.wrap("a:outer", lambda: (spin(20_000), inner(200_000)))
    outer()
    snapshot = tracer.snapshot()
    spans = snapshot["spans"]
    assert spans["a:outer"]["calls"] == spans["b:inner"]["calls"] == 1
    total = spans["a:outer"]["self_ns"] + spans["b:inner"]["self_ns"]
    assert total == snapshot["top_ns"]  # nothing counted twice, nothing lost
    assert spans["b:inner"]["self_ns"] > spans["a:outer"]["self_ns"]
    (outer_span, inner_span) = snapshot["raw_spans"]
    assert inner_span[3] == 0 and outer_span[3] == -1  # parent links


def test_noise_summary_and_comparison_verdicts():
    steady = report.summarize([100.0, 101.0, 102.0, 101.0, 100.5], bound=0.10)
    noisy = report.summarize([100.0, 140.0, 90.0, 150.0], bound=0.10)
    assert not steady["unresolved"] and noisy["unresolved"]
    assert steady["n"] == 5 and steady["min"] == 100.0

    def result(cpu, tps, spread):
        row = {"value": cpu, "unit": "refops/commit"}
        return {
            "manifest": {"git_sha": "x", "seed": 1},
            "workloads": {
                "w": {
                    "correct": True,
                    "failed_share": 0.0,
                    "end_to_end": {"host_refops_per_commit": row, "sim_tps": {"value": tps}},
                    "noise": {"host_refops_per_commit": {"spread": spread}},
                }
            },
        }

    names = ("host_refops_per_commit", "sim_tps")
    metrics = [row for row in SPEC["end_to_end"] if row["name"] in names]
    lines, ok = report.compare(result(100, 500, 0.01), result(105, 500, 0.01), metrics)
    assert ok and any("identical" in line for line in lines)
    assert any(line.endswith(" ok") for line in lines)
    lines, ok = report.compare(result(100, 500, 0.01), result(130, 500, 0.01), metrics)
    assert not ok and any("REGRESSED" in line for line in lines)
    lines, ok = report.compare(result(100, 500, 0.01), result(130, 500, 0.5), metrics)
    assert ok and any("UNRESOLVED" in line for line in lines)
    lines, ok = report.compare(result(100, 500, 0.01), result(100, 400, 0.01), metrics)
    assert not ok  # simulated throughput fell by more than its bound
