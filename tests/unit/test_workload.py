"""Unit tests for the synthetic workload generator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import TxType
from repro.txn.workload import WorkloadConfig, WorkloadGenerator


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(cross_shard_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(shards_per_cross_tx=1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(accounts_per_shard=1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(min_amount=5, max_amount=2)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_clients=0)


class TestWorkloadGenerator:
    def test_pure_intra_shard_workload(self):
        generator = WorkloadGenerator(WorkloadConfig(cross_shard_fraction=0.0), num_shards=4, seed=1)
        for tx in generator.stream(200):
            assert generator.classify(tx) is TxType.INTRA_SHARD
        assert generator.generated_cross == 0

    def test_pure_cross_shard_workload(self):
        generator = WorkloadGenerator(WorkloadConfig(cross_shard_fraction=1.0), num_shards=4, seed=1)
        for tx in generator.stream(200):
            assert generator.classify(tx) is TxType.CROSS_SHARD
            assert len(tx.involved_shards(generator.mapper)) == 2
        assert generator.generated_cross == generator.generated == 200

    def test_mixed_fraction_is_close_to_target(self):
        generator = WorkloadGenerator(
            WorkloadConfig(cross_shard_fraction=0.2), num_shards=4, seed=7
        )
        txs = list(generator.stream(2000))
        observed = sum(tx.is_cross_shard(generator.mapper) for tx in txs) / len(txs)
        assert 0.15 < observed < 0.25

    def test_cross_tx_touches_requested_number_of_shards(self):
        config = WorkloadConfig(cross_shard_fraction=1.0, shards_per_cross_tx=3)
        generator = WorkloadGenerator(config, num_shards=5, seed=3)
        for _ in range(50):
            tx = generator.next_cross_shard()
            assert len(tx.involved_shards(generator.mapper)) == 3

    def test_deterministic_given_seed(self):
        config = WorkloadConfig(cross_shard_fraction=0.3)
        a = WorkloadGenerator(config, num_shards=4, seed=11)
        b = WorkloadGenerator(config, num_shards=4, seed=11)
        for _ in range(50):
            ta, tb = a.next_transaction(), b.next_transaction()
            assert [t.accounts for t in (ta,)] == [t.accounts for t in (tb,)]
            assert ta.transfers == tb.transfers

    def test_client_owns_the_source_account(self):
        generator = WorkloadGenerator(WorkloadConfig(cross_shard_fraction=0.5), num_shards=4, seed=5)
        for tx in generator.stream(200):
            for transfer in tx.transfers:
                assert tx.client == generator.owner_of(transfer.source)

    def test_too_few_shards_for_cross_workload(self):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(WorkloadConfig(cross_shard_fraction=0.5), num_shards=1)

    def test_hot_spot_skew(self):
        config = WorkloadConfig(
            cross_shard_fraction=0.0,
            hot_account_fraction=0.01,
            hot_access_fraction=0.9,
            accounts_per_shard=1000,
        )
        generator = WorkloadGenerator(config, num_shards=2, seed=5)
        hits = 0
        total = 500
        for _ in range(total):
            tx = generator.next_intra_shard(shard=0)
            hot_limit = 10  # 1% of 1000
            hits += any(a < hot_limit for a in tx.accounts if a < 1000)
        assert hits > total * 0.5
