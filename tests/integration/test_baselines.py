"""Integration tests for the baseline systems (APR, FPaxos, FaB, AHL).

Every run goes through the declarative :class:`repro.api.Scenario`
surface with the baselines resolved by registry name, mirroring how the
benchmark harness drives them.
"""

import pytest

from repro.api import DeploymentSpec, Scenario
from repro.common.types import FaultModel
from repro.obs import TraceSpec
from repro.txn.workload import WorkloadConfig


def run_result(
    system_name, fault_model, cross_fraction, clients=12, duration=0.15, warmup=0.02, seed=5,
    trace=None,
):
    return Scenario(
        deployment=DeploymentSpec(system=system_name, fault_model=fault_model, trace=trace),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_fraction, accounts_per_shard=64, num_clients=16
        ),
        clients=clients,
        duration=duration,
        warmup=warmup,
        seed=seed,
    ).run()


def run(*args, **kwargs):
    result = run_result(*args, **kwargs)
    return result.system, result.stats


class TestActivePassive:
    @pytest.mark.parametrize("fault_model", [FaultModel.CRASH, FaultModel.BYZANTINE])
    def test_commits_and_stays_consistent(self, fault_model):
        system, stats = run("apr", fault_model, cross_fraction=0.5)
        assert stats.committed > 50
        assert system.audit().ok
        assert system.total_balance() == system.expected_total_balance()

    def test_passive_replicas_follow_the_actives(self):
        system, stats = run("apr", FaultModel.CRASH, cross_fraction=0.0)
        primary_height = system.primary().chain.height
        assert primary_height > 0
        for passive in system.passives.values():
            # Passive replicas lag by at most the in-flight window.
            assert passive.applied >= primary_height * 0.9

    def test_active_group_sizes_match_paper(self):
        crash, _ = run("apr", FaultModel.CRASH, 0.0, clients=2, duration=0.02, warmup=0.0)
        byz, _ = run("apr", FaultModel.BYZANTINE, 0.0, clients=2, duration=0.02, warmup=0.0)
        assert crash.active_cluster.size == 3 and len(crash.passives) == 9
        assert byz.active_cluster.size == 4 and len(byz.passives) == 12


class TestFastConsensus:
    @pytest.mark.parametrize("fault_model", [FaultModel.CRASH, FaultModel.BYZANTINE])
    def test_commits_and_stays_consistent(self, fault_model):
        system, stats = run("fast", fault_model, cross_fraction=0.5)
        assert stats.committed > 50
        assert system.audit().ok
        assert system.total_balance() == system.expected_total_balance()

    @pytest.mark.parametrize("fault_model", [FaultModel.CRASH, FaultModel.BYZANTINE])
    def test_traced_run_stamps_decided_and_attributes_all_latency(self, fault_model):
        """The fast engines decide through the shared helper, so a traced run
        sees ``decided`` for every commit — and tracing moves no result."""
        traced = run_result("fast", fault_model, 0.5, trace=TraceSpec(gauge_interval=0))
        _, untraced = run("fast", fault_model, cross_fraction=0.5)
        assert traced.stats.committed == untraced.committed > 50
        assert traced.stats.avg_latency == untraced.avg_latency
        phases: dict[str, dict[str, float]] = {}
        for time, tx, phase, _pid in traced.trace.events:
            phases.setdefault(tx, {}).setdefault(phase, time)
        replied = {tx: seen for tx, seen in phases.items() if "reply" in seen}
        assert len(replied) >= traced.stats.committed
        for tx, seen in replied.items():
            assert seen["submit"] <= seen["propose"] <= seen["decided"] <= seen["reply"], tx
        # Gaps between consecutive milestones sum to submit→reply exactly.
        assert traced.trace.breakdown.txs == len(replied)
        assert traced.trace.breakdown.attributed_fraction == pytest.approx(1.0, abs=1e-12)
        breakdown = traced.trace.breakdown
        decided = [s.count for s in breakdown.intra + breakdown.cross if s.phase == "decided"]
        assert sum(decided) == len(replied)

    def test_group_sizes_match_paper(self):
        crash, _ = run("fast", FaultModel.CRASH, 0.0, clients=2, duration=0.02, warmup=0.0)
        byz, _ = run("fast", FaultModel.BYZANTINE, 0.0, clients=2, duration=0.02, warmup=0.0)
        assert crash.active_cluster.size == 4 and len(crash.passives) == 8
        assert byz.active_cluster.size == 6 and len(byz.passives) == 10

    def test_fast_path_has_lower_latency_than_apr(self):
        _, fast = run("fast", FaultModel.CRASH, 0.0, clients=8)
        _, apr = run("apr", FaultModel.CRASH, 0.0, clients=8)
        assert fast.avg_latency <= apr.avg_latency * 1.05


class TestAHL:
    @pytest.mark.parametrize("fault_model", [FaultModel.CRASH, FaultModel.BYZANTINE])
    def test_commits_and_stays_consistent(self, fault_model):
        system, stats = run("ahl", fault_model, cross_fraction=0.3)
        assert stats.committed > 50
        assert stats.committed_cross > 0
        assert system.audit().ok
        assert system.total_balance() == system.expected_total_balance()

    def test_reference_committee_coordinates_cross_shard_txs(self):
        system, stats = run("ahl", FaultModel.CRASH, cross_fraction=1.0)
        coordinator = system.committee_replicas[int(system.committee.primary)]
        assert coordinator.coordinated > 0
        assert stats.committed_cross == stats.committed

    def test_cross_shard_latency_higher_than_sharper(self):
        _, ahl = run("ahl", FaultModel.CRASH, cross_fraction=1.0, clients=8)
        _, sharper = run("sharper", FaultModel.CRASH, cross_fraction=1.0, clients=8)
        assert ahl.avg_latency_cross > sharper.avg_latency_cross

    def test_intra_shard_path_matches_sharper(self):
        _, ahl = run("ahl", FaultModel.CRASH, cross_fraction=0.0, clients=16)
        _, sharper = run("sharper", FaultModel.CRASH, cross_fraction=0.0, clients=16)
        assert ahl.throughput == pytest.approx(sharper.throughput, rel=0.2)


#: (committed, avg latency ms, simulator events, messages sent) recorded at
#: commit 890a182, when each baseline host still built its own destination
#: list per multicast and assembled its own ``ClientReply``.
BASELINES_PINNED = {
    ("apr", FaultModel.CRASH): (598, 2.556422086, 24099, 12036),
    ("apr", FaultModel.BYZANTINE): (228, 6.4610659, 23808, 11890),
    ("fast", FaultModel.CRASH): (599, 2.556006706, 22844, 11408),
    ("fast", FaultModel.BYZANTINE): (284, 5.288114405, 33024, 16497),
    ("ahl", FaultModel.CRASH): (473, 3.140417081, 20825, 10393),
    ("ahl", FaultModel.BYZANTINE): (327, 4.516224733, 51324, 25640),
}


@pytest.mark.parametrize("system_name,fault_model", sorted(BASELINES_PINNED, key=repr))
def test_shared_replica_host_moves_no_baseline_result(system_name, fault_model):
    """Same destinations in the same order over the stable ``_cluster_peers``
    tuple, so every link-jitter draw — and every result — stays put."""
    system, stats = run(system_name, fault_model, cross_fraction=0.3)
    observed = (
        stats.committed,
        round(stats.avg_latency * 1e3, 9),
        system.sim.processed_events,
        system.network.messages_sent,
    )
    assert observed == BASELINES_PINNED[(system_name, fault_model)]
    hosts = list(system.replicas.values()) + list(getattr(system, "committee_replicas", {}).values())
    for host in hosts:
        assert host.pid not in host._cluster_peers
        assert set(host._cluster_peers) | {host.pid} == {int(n) for n in host.cluster.node_ids}
