"""Unit tests for the cross-replica SafetyAuditor."""

from repro import FaultModel, WorkloadConfig
from repro.adversary import MessageInterceptor, SafetyAuditor
from repro.api import DeploymentSpec, Scenario
from repro.common.types import ClusterId
from repro.ledger.block import Block


def run_scenario(**overrides):
    scenario = Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=32),
        clients=6,
        duration=0.15,
        warmup=0.02,
        **overrides,
    )
    return scenario.run()


def forged_block(view, reason="forged"):
    """A noop block appended forcibly at the view's next position."""
    return Block.noop(
        positions={view.cluster_id: view.next_index},
        proposer=view.cluster_id,
        parents={view.cluster_id: view.head_hash},
    )


class TestCleanRuns:
    def test_clean_run_is_safe(self):
        result = run_scenario()
        report = SafetyAuditor(result.system).audit()
        assert report.ok
        assert report.clusters_checked == 2
        assert report.replicas_checked == 8
        assert report.byzantine_nodes == ()
        assert report.total_balance == report.expected_balance

    def test_lagging_replica_is_not_a_fork(self):
        # A crashed replica's shorter chain is a prefix, not a violation.
        result = run_scenario()
        system = result.system
        report = SafetyAuditor(system).audit()
        assert report.ok

    def test_summary_mentions_verdict(self):
        result = run_scenario()
        report = SafetyAuditor(result.system).audit()
        assert "SAFE" in report.summary()


class TestViolationDetection:
    def test_forged_fork_is_detected(self):
        result = run_scenario()
        system = result.system
        replicas = system.replicas_of(ClusterId(0))
        # Forge divergence: one replica appends a block the others lack,
        # another appends a *different* block at the same height.
        a, b = replicas[0], replicas[1]
        a.chain.append(forged_block(a.chain))
        b.chain.append(
            Block.noop(
                positions={b.chain.cluster_id: b.chain.next_index},
                proposer=ClusterId(1),
                parents={b.chain.cluster_id: b.chain.head_hash},
            )
        )
        report = SafetyAuditor(system).audit()
        assert not report.ok
        assert any("fork" in problem for problem in report.problems)
        assert report.replicas_checked == 8

    def test_byzantine_replicas_are_excluded(self):
        result = run_scenario()
        system = result.system
        replica = system.replicas_of(ClusterId(0))[0]
        replica.chain.append(forged_block(replica.chain))
        # Divergence on a *Byzantine* node is not a safety violation.
        peer = system.replicas_of(ClusterId(0))[1]
        peer.chain.append(
            Block.noop(
                positions={peer.chain.cluster_id: peer.chain.next_index},
                proposer=ClusterId(1),
                parents={peer.chain.cluster_id: peer.chain.head_hash},
            )
        )
        replica.set_interceptor(MessageInterceptor())  # what marks a node Byzantine
        report = SafetyAuditor(system).audit()
        assert int(replica.pid) in report.byzantine_nodes
        # Remaining correct replicas may still fork against each other; at
        # minimum the flagged node itself must not be blamed.
        assert all(f"replicas {int(replica.pid)} " not in p for p in report.problems)

    def test_balance_violation_is_detected(self):
        result = run_scenario()
        system = result.system
        store = system.stores()[0]
        store.deposit(min(store.snapshot()), 13)
        report = SafetyAuditor(system).audit()
        assert not report.ok
        assert any("balance" in problem for problem in report.problems)
