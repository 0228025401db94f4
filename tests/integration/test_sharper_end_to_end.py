"""End-to-end integration tests for the SharPer system (crash and Byzantine).

Each test declares a :class:`repro.api.Scenario`, runs it, and checks the
paper's safety properties on the result: per-cluster total order,
presence and consistency of cross-shard blocks in every involved
cluster, agreement among the replicas of one cluster, and conservation
of the total balance.
"""

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.config import ProtocolTuning
from repro.common.types import FaultModel
from repro.txn.workload import WorkloadConfig


def make_scenario(
    fault_model,
    cross_fraction,
    clients=12,
    duration=0.15,
    num_clusters=4,
    seed=5,
    **overrides,
):
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=fault_model, num_clusters=num_clusters
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_fraction, accounts_per_shard=64, num_clients=16
        ),
        clients=clients,
        duration=duration,
        warmup=0.02,
        seed=seed,
        **overrides,
    )


def run_system(fault_model, cross_fraction, clients=12, duration=0.15, num_clusters=4, seed=5):
    result = make_scenario(
        fault_model, cross_fraction, clients=clients, duration=duration,
        num_clusters=num_clusters, seed=seed,
    ).run()
    return result.system, result.stats


class TestCrashDeployment:
    def test_intra_shard_only(self):
        result = make_scenario(FaultModel.CRASH, cross_fraction=0.0).run()
        assert result.stats.committed > 100
        assert result.audit.ok, result.audit.problems
        assert result.audit.cross_shard_blocks == 0
        assert result.balance_conserved
        assert result.ok

    def test_mixed_workload(self):
        result = make_scenario(FaultModel.CRASH, cross_fraction=0.3).run()
        assert result.stats.committed_cross > 10
        assert result.audit.ok, result.audit.problems
        assert result.audit.cross_shard_blocks > 0
        assert result.balance_conserved

    def test_all_replicas_of_a_cluster_agree(self):
        system, _ = run_system(FaultModel.CRASH, cross_fraction=0.2)
        for cluster in system.config.clusters:
            cluster_id = cluster.cluster_id
            views = [replica.chain for replica in system.replicas_of(cluster_id)]
            heights = {view.height for view in views}
            assert len(heights) == 1, f"cluster {cluster_id} replicas diverge: {heights}"
            hashes = {view.head_hash for view in views}
            assert len(hashes) == 1

    def test_cross_blocks_present_in_all_involved_views(self):
        system, _ = run_system(FaultModel.CRASH, cross_fraction=0.5)
        views = system.views()
        checked = 0
        for view in views.values():
            for block in view.cross_shard_blocks():
                for cluster in block.involved_clusters:
                    assert views[cluster].contains_tx(block.tx_ids[0])
                checked += 1
        assert checked > 0

    def test_clients_receive_replies(self):
        system, stats = run_system(FaultModel.CRASH, cross_fraction=0.2)
        completed = sum(client.completed for client in system.clients)
        assert completed >= stats.committed
        assert all(client.failed == 0 for client in system.clients)

    def test_chain_heights_reported_per_cluster(self):
        result = make_scenario(FaultModel.CRASH, cross_fraction=0.2).run()
        assert set(result.chain_heights) == {
            cluster.cluster_id for cluster in result.system.config.clusters
        }
        assert all(height > 0 for height in result.chain_heights.values())

    def test_throughput_scales_with_clusters(self):
        # Enough clients to saturate the smaller deployment, so the extra
        # clusters show up as extra throughput (Figure 8 in miniature).
        _, two = run_system(FaultModel.CRASH, 0.1, clients=72, num_clusters=2)
        _, four = run_system(FaultModel.CRASH, 0.1, clients=72, num_clusters=4)
        assert four.throughput > 1.4 * two.throughput


class TestByzantineDeployment:
    def test_intra_shard_only(self):
        result = make_scenario(FaultModel.BYZANTINE, cross_fraction=0.0).run()
        assert result.stats.committed > 50
        assert result.audit.ok, result.audit.problems
        assert result.balance_conserved

    def test_mixed_workload(self):
        result = make_scenario(FaultModel.BYZANTINE, cross_fraction=0.3).run()
        assert result.stats.committed_cross > 5
        assert result.audit.ok, result.audit.problems
        assert result.balance_conserved

    def test_clients_need_f_plus_one_matching_replies(self):
        system, _ = run_system(FaultModel.BYZANTINE, cross_fraction=0.0, clients=4)
        assert system.required_replies == 2

    def test_replicas_of_a_cluster_agree(self):
        system, _ = run_system(FaultModel.BYZANTINE, cross_fraction=0.2)
        for cluster in system.config.clusters:
            replicas = system.replicas_of(cluster.cluster_id)
            assert len({replica.chain.head_hash for replica in replicas}) == 1


class TestFaultTolerance:
    def test_backup_crash_does_not_stop_progress_crash_model(self):
        # The backup crash is declared up front; the run needs to be
        # interleaved to compare heights, so drive the system manually
        # after building it from the scenario.
        scenario = Scenario(
            deployment=DeploymentSpec(system="sharper", fault_model=FaultModel.CRASH,
                                      num_clusters=2),
            workload=WorkloadConfig(
                cross_shard_fraction=0.0, accounts_per_shard=32, num_clients=8
            ),
            clients=6,
            seed=9,
        )
        system = scenario.build_system()
        from repro.common.metrics import MetricsCollector

        metrics = MetricsCollector()
        clients = system.spawn_clients(scenario.clients, metrics)
        system.start_clients(clients)
        # Crash one backup of cluster 0 at t=50ms (f = 1 tolerated).
        config = system.config
        FaultSchedule().crash_node(
            at=0.05, node_id=int(config.clusters[0].node_ids[-1])
        ).arm(system)
        system.sim.run(until=0.05)
        before = sum(view.height for view in system.views().values())
        system.sim.run(until=0.15)
        after = sum(view.height for view in system.views().values())
        assert after > before
        system.drain()
        assert system.audit().ok

    def test_primary_crash_triggers_view_change(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2,
                tuning=ProtocolTuning(view_change_timeout=0.05),
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=0.0, accounts_per_shard=32, num_clients=8
            ),
            clients=4,
            duration=0.8,
            warmup=0.0,
            retry_timeout=0.1,
            seed=11,
            faults=FaultSchedule().crash_primary(at=0.05, cluster=0),
            verify=False,
        )
        result = scenario.run()
        system = result.system
        cluster_id = system.config.clusters[0].cluster_id
        # A non-crashed replica of cluster 0 took over as primary.
        survivors = [
            replica
            for replica in system.replicas_of(cluster_id)
            if not replica.crashed
        ]
        assert any(replica.intra.view > 0 for replica in survivors)
        # And the cluster keeps committing new transactions after failover.
        height_after_failover = max(replica.chain.height for replica in survivors)
        system.sim.run(until=1.2)
        assert max(replica.chain.height for replica in survivors) > height_after_failover
