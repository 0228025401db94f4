"""Unit tests for shard/cluster mapping and the super-primary rule."""

import pytest

from repro.api import DeploymentSpec, Scenario
from repro.common.config import NodeGroup
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsCollector
from repro.common.types import FaultModel
from repro.core import sharding
from repro.txn.accounts import ShardMapper
from repro.txn.transaction import Transaction
from repro.txn.workload import WorkloadConfig


@pytest.fixture
def mapper():
    return ShardMapper(num_shards=4, accounts_per_shard=10)


class TestInvolvedClusters:
    def test_intra_shard(self, mapper):
        tx = Transaction.transfer(client=1, source=1, destination=2, amount=1)
        assert sharding.involved_clusters(tx, mapper) == (0,)

    def test_cross_shard_sorted(self, mapper):
        tx = Transaction.transfer(client=1, source=35, destination=2, amount=1)
        assert sharding.involved_clusters(tx, mapper) == (0, 3)

    def test_identity_mapping(self):
        assert sharding.shard_to_cluster(2) == 2
        assert sharding.cluster_to_shard(3) == 3


class TestClassificationMemo:
    """A transaction is classified once per run: the run has one mapper."""

    def test_equal_mappers_share_the_memo(self, mapper):
        """The memo knows its mapper by identity; mappers have no value equality."""
        twin = ShardMapper(num_shards=4, accounts_per_shard=10)
        assert twin != mapper
        tx = Transaction.transfer(client=1, source=35, destination=2, amount=1)
        # the same mapper is served the same object ...
        assert sharding.involved_clusters(tx, mapper) is sharding.involved_clusters(tx, mapper)
        # ... an equal-but-distinct mapper classifies again, to an equal answer
        assert tx.involved_shards(twin) == tx.involved_shards(mapper) == frozenset({0, 3})
        assert sharding.involved_clusters(tx, twin) == sharding.involved_clusters(tx, mapper) == (0, 3)
        # a mapper that maps differently must not be served the stale answer
        other = ShardMapper(num_shards=2, accounts_per_shard=20)
        assert tx.involved_shards(other) == frozenset({0, 1})
        assert sharding.involved_clusters(tx, other) == (0, 1)
        assert sharding.involved_clusters(tx, mapper) == (0, 3)

    @pytest.mark.parametrize("system", ["sharper", "ahl", "apr", "fast"])
    def test_a_run_has_one_mapper(self, system):
        """Generators are handed the system's mapper; sharded replicas hold it too."""
        built = Scenario(
            deployment=DeploymentSpec(system=system, num_clusters=3),
            workload=WorkloadConfig(cross_shard_fraction=0.3, accounts_per_shard=64),
        ).build_system()
        clients = built.spawn_clients(3, MetricsCollector())
        assert all(client.workload.mapper is built.workload_mapper for client in clients)
        if system in ("sharper", "ahl"):
            assert all(process.mapper is built.workload_mapper for process in built.processes())
        else:  # not sharded: the replicas map the whole keyspace to one shard
            assert all(process.mapper is built.full_mapper for process in built.processes())

    def test_one_shards_of_call_per_transaction_end_to_end(self, monkeypatch):
        """Client (its generator's mapper), router and replicas (the system's) agree."""
        calls = []
        shards_of = ShardMapper.shards_of

        def counting(self, account_ids):
            calls.append(self)
            return shards_of(self, account_ids)

        monkeypatch.setattr(ShardMapper, "shards_of", counting)
        result = Scenario(
            deployment=DeploymentSpec(system="sharper", num_clusters=3),
            workload=WorkloadConfig(cross_shard_fraction=0.3, accounts_per_shard=64),
            clients=6,
            duration=0.05,
            warmup=0.01,
        ).run()
        generated = sum(client.workload.generated for client in result.system.clients)
        assert result.stats.committed > 0 and generated > 0
        assert len(calls) == generated


class TestSuperPrimary:
    def test_minimum_involved_cluster(self):
        assert sharding.super_primary_cluster([2, 1, 3]) == 1
        assert sharding.super_primary_cluster([0, 3]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sharding.super_primary_cluster([])

    def test_initiator_cluster_with_rule(self, mapper):
        tx = Transaction.transfer(client=1, source=25, destination=35, amount=1)
        assert sharding.initiator_cluster(tx, mapper) == 2

    def test_initiator_cluster_without_rule_uses_fallback(self, mapper):
        tx = Transaction.transfer(client=1, source=25, destination=35, amount=1)
        assert sharding.initiator_cluster(tx, mapper, use_super_primary=False, fallback=3) == 3
        # A fallback cluster that is not involved defers to the first involved one.
        assert sharding.initiator_cluster(tx, mapper, use_super_primary=False, fallback=0) == 2

    def test_intra_shard_ignores_rule(self, mapper):
        tx = Transaction.transfer(client=1, source=11, destination=12, amount=1)
        assert sharding.initiator_cluster(tx, mapper, use_super_primary=False) == 1


class TestGroupedSystem:
    def test_paper_example_builds_five_clusters(self):
        # Section 3.4: groups A (7 nodes, f=2) and B (16 nodes, f=1).
        groups = [NodeGroup("A", 7, 2), NodeGroup("B", 16, 1)]
        config = sharding.build_grouped_system(groups, FaultModel.BYZANTINE)
        assert config.num_clusters == 5
        sizes = sorted(cluster.size for cluster in config.clusters)
        assert sizes == [4, 4, 4, 4, 7]
        fs = sorted(cluster.f for cluster in config.clusters)
        assert fs == [1, 1, 1, 1, 2]

    def test_group_too_small_contributes_nothing(self):
        groups = [NodeGroup("small", 2, 1), NodeGroup("big", 8, 1)]
        config = sharding.build_grouped_system(groups, FaultModel.BYZANTINE)
        assert config.num_clusters == 2

    def test_all_groups_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            sharding.build_grouped_system([NodeGroup("tiny", 2, 1)], FaultModel.BYZANTINE)
