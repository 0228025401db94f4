"""Unit tests for the state store and shard mapper."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    InsufficientBalanceError,
    UnknownAccountError,
    ValidationError,
)
from repro.storage import StateStore
from repro.txn.accounts import ShardMapper


class TestShardMapper:
    def test_contiguous_ranges(self):
        mapper = ShardMapper(num_shards=4, accounts_per_shard=10)
        assert mapper.shard_of(0) == 0
        assert mapper.shard_of(9) == 0
        assert mapper.shard_of(10) == 1
        assert mapper.shard_of(39) == 3
        assert mapper.total_accounts == 40

    def test_out_of_range_account(self):
        mapper = ShardMapper(4, 10)
        with pytest.raises(UnknownAccountError):
            mapper.shard_of(40)
        with pytest.raises(UnknownAccountError):
            mapper.shard_of(-1)

    def test_accounts_in_shard(self):
        mapper = ShardMapper(3, 5)
        assert list(mapper.accounts_in_shard(1)) == [5, 6, 7, 8, 9]
        with pytest.raises(ConfigurationError):
            mapper.accounts_in_shard(3)

    def test_accounts_in_shard_is_progression(self):
        mapper = ShardMapper(3, 5)
        accounts = mapper.accounts_in_shard(2)
        assert (accounts.start, accounts.stop, accounts.step) == (10, 15, 1)
        assert mapper.accounts_in_shard(2) is accounts  # built once

    def test_every_account_has_exactly_one_home(self):
        mapper = ShardMapper(4, 8)
        homes = {}
        for shard in range(4):
            for account in mapper.accounts_in_shard(shard):
                assert account not in homes
                homes[account] = shard
        assert len(homes) == mapper.total_accounts
        for account, shard in homes.items():
            assert mapper.shard_of(account) == shard

    def test_shards_of_multiple_accounts(self):
        mapper = ShardMapper(4, 10)
        assert mapper.shards_of([1, 2, 3]) == frozenset({0})
        assert mapper.shards_of([1, 15, 35]) == frozenset({0, 1, 3})

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ShardMapper(0, 10)
        with pytest.raises(ConfigurationError):
            ShardMapper(2, 0)


class TestStateStore:
    def _store(self, balance=50):
        """Shard 0 of two, accounts 0..3 owned by clients 0, 1, 2, 0."""
        return StateStore.bootstrap(0, ShardMapper(2, 4), balance, num_clients=3)

    def test_bootstrap_populates_shard(self):
        mapper = ShardMapper(2, 4)
        store = StateStore.bootstrap(1, mapper, initial_balance=100, num_clients=3)
        assert len(store) == 4
        assert store.balance(4) == 100
        with pytest.raises(UnknownAccountError):
            store.balance(3)
        assert store.total_balance() == 400

    def test_negative_initial_balance_rejected(self):
        with pytest.raises(ValidationError):
            self._store(balance=-1)

    @pytest.mark.parametrize("num_clients", [0, -3])
    def test_non_positive_client_count_rejected(self, num_clients):
        with pytest.raises(ValidationError, match="num_clients"):
            StateStore.bootstrap(0, ShardMapper(2, 4), 10, num_clients=num_clients)

    def test_deposit_and_withdraw(self):
        store = self._store()
        store.deposit(1, 25)
        assert store.balance(1) == 75
        store.withdraw(1, 30)
        assert store.balance(1) == 45

    def test_owners_are_the_rule(self):
        store = self._store()
        assert [store.owner(account) for account in range(4)] == [0, 1, 2, 0]
        store.withdraw(3, 10)  # the store debits; who may is the executor's check
        assert store.balance(3) == 40

    def test_overdraft_rejected(self):
        store = self._store(balance=5)
        with pytest.raises(InsufficientBalanceError):
            store.withdraw(1, 6)
        assert store.balance(1) == 5

    def test_unknown_account(self):
        store = self._store()
        with pytest.raises(UnknownAccountError):
            store.balance(42)

    def test_negative_amounts_rejected(self):
        store = self._store()
        with pytest.raises(ValidationError):
            store.deposit(1, -1)
        with pytest.raises(ValidationError):
            store.withdraw(1, -1)

    def test_snapshot_and_restore(self):
        store = self._store()
        store.withdraw(1, 40)
        snapshot = store.snapshot()
        store.deposit(1, 100)
        store.restore(snapshot)
        assert store.balance(1) == 10
        assert store.balance(2) == 50

    def test_version_increments_on_writes(self):
        store = self._store()
        version = store.version
        store.deposit(1, 1)
        store.withdraw(1, 1)
        assert store.version == version + 2


class TestIncrementalDigest:
    """The memoised digest must pin the naive sorted-table computation."""

    def _store(self):
        mapper = ShardMapper(2, 16)
        return StateStore.bootstrap(0, mapper, initial_balance=100, num_clients=4)

    def test_digest_matches_naive_after_writes(self):
        store = self._store()
        assert store.state_digest() == store.naive_state_digest()
        store.deposit(3, 7)
        store.withdraw(5, 2)
        store.deposit(3, 1)
        assert store.state_digest() == store.naive_state_digest()

    def test_digest_memoised_between_applies(self):
        store = self._store()
        first = store.state_digest()
        assert store.state_digest() == first  # no writes: cached
        store.deposit(1, 1)
        second = store.state_digest()
        assert second != first
        assert second == store.naive_state_digest()

    def test_digest_incremental_equals_full_rebuild(self):
        import random

        rng = random.Random(42)
        store = self._store()
        fresh = self._store()
        for _ in range(200):
            account = rng.randrange(16)
            amount = rng.randint(1, 5)
            if rng.random() < 0.5 and store.balance(account) >= amount:
                store.withdraw(account, amount)
                fresh.withdraw(account, amount)
            else:
                store.deposit(account, amount)
                fresh.deposit(account, amount)
            if rng.random() < 0.2:
                assert store.state_digest() == fresh.naive_state_digest()
        assert store.state_digest() == fresh.naive_state_digest()

    def test_snapshot_digest_matches_state_digest(self):
        store = self._store()
        store.deposit(2, 9)
        assert store.snapshot_digest(store.snapshot()) == store.state_digest()

    def test_restore_resets_memo(self):
        store = self._store()
        snapshot = store.snapshot()
        digest = store.state_digest()
        store.deposit(0, 50)
        store.restore(snapshot)
        assert store.state_digest() == digest
