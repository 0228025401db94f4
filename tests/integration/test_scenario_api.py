"""Integration tests for the Scenario API (repro.api).

Covers the declarative lifecycle (build -> run -> result), every
built-in system run through a scenario, and fault schedules executed
as simulator events.
"""

import dataclasses

import pytest

from repro.api import (
    CrashPrimary,
    DeploymentSpec,
    FaultSchedule,
    Scenario,
)
from repro.common.config import ProtocolTuning, SystemConfig
from repro.common.errors import ConfigurationError, UnknownSystemError
from repro.common.types import FaultModel
from repro.core.system import SharPerSystem
from repro.txn.workload import WorkloadConfig

QUICK = dict(duration=0.1, warmup=0.02, clients=8, seed=5)
SMALL_WORKLOAD = WorkloadConfig(
    cross_shard_fraction=0.2, accounts_per_shard=64, num_clients=16
)


class TestScenarioRoundTrip:
    def test_build_run_result(self):
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper", fault_model=FaultModel.CRASH),
            workload=SMALL_WORKLOAD,
            **QUICK,
        )
        system = scenario.build_system()
        assert isinstance(system, SharPerSystem)

        result = scenario.run()
        assert result.scenario is scenario
        assert result.stats.committed > 0
        assert result.stats.throughput > 0
        assert result.audit is not None and result.audit.ok
        assert result.balance_conserved
        assert result.ok
        result.raise_if_failed()
        # One chain height per cluster, all making progress.
        assert len(result.chain_heights) == 4
        assert all(height > 0 for height in result.chain_heights.values())
        # The drained system is handed back for inspection.
        assert result.idle_time is not None and result.idle_time >= result.end_time

    def test_runs_are_deterministic(self):
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper"), workload=SMALL_WORKLOAD, **QUICK
        )
        first = scenario.run()
        second = scenario.run()
        assert first.stats == second.stats
        assert first.chain_heights == second.chain_heights

    def test_verify_false_skips_audit(self):
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper"),
            workload=SMALL_WORKLOAD,
            verify=False,
            **QUICK,
        )
        result = scenario.run()
        assert result.audit is None
        assert result.idle_time is None
        assert result.ok  # no audit -> nothing failed
        result.raise_if_failed()

    def test_unknown_system_rejected_at_build(self):
        scenario = Scenario(deployment=DeploymentSpec(system="missing"), **QUICK)
        with pytest.raises(UnknownSystemError):
            scenario.build_system()

    @pytest.mark.parametrize(
        "field, timing",
        [
            pytest.param("duration", dict(duration=0.0, warmup=0.0), id="no-duration"),
            # Measured 0 commits and reported ok.
            pytest.param("warmup", dict(warmup=0.5, duration=0.3), id="warmup-past-end"),
            pytest.param("warmup", dict(warmup=0.3, duration=0.3), id="warmup-at-end"),
            # Reported 2,271 tps over a 1.2 s window.
            pytest.param("warmup", dict(warmup=-1.0), id="negative-warmup"),
            pytest.param("clients", dict(clients=-3), id="negative-clients"),
            # Never returned.
            pytest.param("retry_timeout", dict(retry_timeout=0.0), id="zero-retry"),
            pytest.param("retry_timeout", dict(retry_timeout=-1.0), id="negative-retry"),
            # Never drained, audited anyway.
            pytest.param("drain_grace", dict(drain_grace=-1.0), id="negative-drain"),
        ],
    )
    def test_timing_that_hangs_or_measures_nothing_is_refused(self, field, timing):
        with pytest.raises(ConfigurationError, match=field):
            Scenario(deployment=DeploymentSpec(system="sharper"), **timing)

    def test_zero_clients_is_a_valid_scenario(self):
        assert Scenario(clients=0).clients == 0

    def test_explicit_config_override(self):
        config = SystemConfig.build(2, FaultModel.CRASH, seed=3)
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper", config=config),
            workload=SMALL_WORKLOAD,
            **QUICK,
        )
        system = scenario.build_system()
        assert system.config is config
        assert len(scenario.run().chain_heights) == 2

    def test_with_clients_variation(self):
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper"), workload=SMALL_WORKLOAD, **QUICK
        )
        heavier = scenario.with_clients(16)
        assert heavier.clients == 16
        assert heavier.deployment is scenario.deployment


class TestHarnessWrappers:
    def test_every_registered_builtin_runs_through_a_scenario(self):
        for name in ("sharper", "ahl", "apr", "fast"):
            scenario = Scenario(
                deployment=DeploymentSpec(system=name, fault_model=FaultModel.CRASH),
                workload=SMALL_WORKLOAD,
                duration=0.05,
                warmup=0.01,
                clients=4,
            )
            result = scenario.run()
            assert result.stats.committed > 0, name
            assert result.ok, name


class TestFaultSchedules:
    def test_builder_keeps_events_sorted(self):
        schedule = (
            FaultSchedule()
            .heal(at=0.3)
            .crash_primary(at=0.1, cluster=0)
            .partition(at=0.2, groups=[[0], [1]])
        )
        assert len(schedule) == 3
        assert [event.time for event in schedule] == [0.1, 0.2, 0.3]
        assert isinstance(schedule.events[0], CrashPrimary)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().crash_node(at=-1.0, node_id=0)

    def test_event_past_the_run_horizon_rejected(self):
        # verify=False: nothing runs past `duration`, so a later event
        # would silently never execute — rejected up front.
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper", num_clusters=2),
            workload=SMALL_WORKLOAD,
            faults=FaultSchedule().crash_node(at=0.5, node_id=2),
            verify=False,
            **QUICK,  # duration=0.1
        )
        with pytest.raises(ConfigurationError, match="horizon"):
            scenario.run()

    def test_event_in_the_drain_window_allowed(self):
        # With verify=True the drain keeps the simulator running, so a
        # heal scheduled after `duration` (e.g. to let the audit pass)
        # is legitimate and executes.
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper", num_clusters=2),
            workload=WorkloadConfig(
                cross_shard_fraction=0.0, accounts_per_shard=64, num_clients=8
            ),
            clients=4,
            duration=0.1,
            warmup=0.02,
            seed=13,
            faults=FaultSchedule().partition(at=0.05, groups=[[0], [1]]).heal(at=0.3),
        )
        result = scenario.run()
        assert result.system.network._partition_of is None  # heal ran in drain
        assert result.audit.ok

    def test_scheduled_primary_crash_triggers_view_change_and_audit_passes(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper",
                fault_model=FaultModel.CRASH,
                num_clusters=2,
                tuning=ProtocolTuning(view_change_timeout=0.05),
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=0.0, accounts_per_shard=64, num_clients=8
            ),
            clients=4,
            duration=1.0,
            warmup=0.05,
            retry_timeout=0.1,
            seed=11,
            faults=FaultSchedule().crash_primary(at=0.05, cluster=0),
        )
        result = scenario.run()
        system = result.system
        victim = system.config.clusters[0]
        # The initial primary is down, a survivor moved to a higher view.
        assert system.replicas[int(victim.primary)].crashed
        survivors = [
            replica for replica in system.replicas_of(victim.cluster_id)
            if not replica.crashed
        ]
        assert any(replica.intra.view > 0 for replica in survivors)
        # The cluster kept committing and the audit still passes.
        assert result.chain_heights[victim.cluster_id] > 0
        assert result.audit.ok, result.audit.problems
        assert result.balance_conserved

    def test_scheduled_node_crash_and_recovery(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=0.0, accounts_per_shard=64, num_clients=8
            ),
            clients=4,
            duration=0.2,
            warmup=0.02,
            seed=7,
            faults=FaultSchedule().crash_node(at=0.05, node_id=2).recover_node(
                at=0.1, node_id=2
            ),
        )
        result = scenario.run()
        assert not result.system.replicas[2].crashed
        assert result.stats.committed > 0
        assert result.audit.ok

    def test_partition_and_heal_between_clusters(self):
        # Partition the two clusters apart: intra-shard traffic keeps
        # committing, and after healing the audit still passes.
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=0.0, accounts_per_shard=64, num_clients=8
            ),
            clients=4,
            duration=0.3,
            warmup=0.02,
            seed=13,
            faults=FaultSchedule().partition(at=0.1, groups=[[0], [1]]).heal(at=0.2),
        )
        result = scenario.run()
        assert result.stats.committed > 0
        assert result.audit.ok, result.audit.problems

    def test_crash_unknown_node_raises_before_the_run(self):
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper", num_clusters=2),
            workload=SMALL_WORKLOAD,
            faults=FaultSchedule().crash_node(at=0.01, node_id=999),
            **QUICK,
        )
        with pytest.raises(ConfigurationError):
            scenario.run()
