"""Integration tests for the parallel bench runner and determinism.

The tentpole guarantee: scenarios are deterministic and self-contained,
so farming them out to a ``multiprocessing`` pool must not change a
single reported number.  These tests pin that down.
"""

from __future__ import annotations

import dataclasses

from repro.api import DeploymentSpec, FaultSchedule, Scenario, run_scenarios
from repro.bench.harness import run_curve
from repro.common.metrics import RunStats
from repro.common.types import FaultModel
from repro.txn.workload import WorkloadConfig


def small_scenario(seed: int = 11, clients: int = 6) -> Scenario:
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.CRASH, num_clusters=3
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=64),
        clients=clients,
        duration=0.08,
        warmup=0.02,
        seed=seed,
    )


class TestDeterminism:
    def test_same_seed_twice_is_identical_serially(self):
        first = small_scenario().run()
        second = small_scenario().run()
        assert first.stats == second.stats
        assert first.chain_heights == second.chain_heights
        assert first.audit.problems == second.audit.problems
        assert first.total_balance == second.total_balance

    def test_serial_and_jobs2_results_are_identical(self):
        """The determinism regression test: serial vs --jobs 2."""
        churn = FaultSchedule().crash_primary(at=0.03, cluster=0).recover_node(at=0.06, node_id=0)
        scenarios = [
            small_scenario(), small_scenario(clients=12),
            dataclasses.replace(small_scenario(), faults=churn),  # journals a retry and a recovery
        ]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for serial_result, pooled_result in zip(serial, pooled):
            assert serial_result.stats == pooled_result.stats
            assert serial_result.chain_heights == pooled_result.chain_heights
            assert serial_result.audit.ok == pooled_result.audit.ok
            assert serial_result.audit.problems == pooled_result.audit.problems
            assert serial_result.total_balance == pooled_result.total_balance
            assert serial_result.expected_balance == pooled_result.expected_balance
            assert serial_result.anomalies == pooled_result.anomalies
        assert serial[2].anomalies.totals["recovered"] == 1

    def test_pooled_results_are_detached(self):
        scenarios = [small_scenario(), small_scenario(clients=12)]
        pooled = run_scenarios(scenarios, jobs=2)
        assert all(result.system is None for result in pooled)
        serial = run_scenarios(scenarios, jobs=1)
        assert all(result.system is not None for result in serial)

    def test_run_curve_jobs_matches_serial(self):
        scenario = small_scenario()
        serial = run_curve(scenario, [4, 8], jobs=1)
        pooled = run_curve(scenario, [4, 8], jobs=2)
        assert serial == pooled


class TestMultiSeedCurve:
    def test_seeds_aggregate_into_one_point(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
            ),
            duration=0.08,
            warmup=0.02,
            verify=False,
        )
        curve = run_curve(scenario, [6], seeds=[1, 2], jobs=2)
        assert len(curve.points) == 1
        pooled = curve.points[0].stats
        singles = [
            run_curve(dataclasses.replace(scenario, seed=seed), [6]).points[0].stats
            for seed in (1, 2)
        ]
        assert pooled == RunStats.aggregate(singles)
        assert pooled.committed == singles[0].committed + singles[1].committed
