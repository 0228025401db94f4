"""Unit tests for the columnar state store (repro.storage.columnar)."""

import random

import pytest

from repro.common.errors import (
    InsufficientBalanceError,
    UnknownAccountError,
    ValidationError,
)
from repro.storage import ArrayAccountStore
from repro.storage.dict_store import AccountStore
from repro.txn.accounts import ShardMapper


def _columnar(num_shards=2, accounts_per_shard=16, shard=0, balance=100):
    mapper = ShardMapper(num_shards, accounts_per_shard)
    return ArrayAccountStore.bootstrap(shard, mapper, initial_balance=balance)


class TestColumnarBasics:
    def test_bootstrap_range_strategy(self):
        store = _columnar(shard=1)
        assert len(store) == 16
        assert store.total_balance() == 1600
        assert store.balance(16) == 100
        assert 15 not in store
        assert 32 not in store

    def test_deposit_withdraw_update_columns(self):
        store = _columnar()
        store.deposit(3, 25)
        assert store.balance(3) == 125
        store.withdraw(3, 5)
        assert store.balance(3) == 120
        assert store.total_balance() == 1620

    def test_owner_enforced_and_overdraft_rejected(self):
        mapper = ShardMapper(1, 8)
        store = ArrayAccountStore.bootstrap(0, mapper, 10, owner_of=lambda a: a % 4)
        with pytest.raises(ValidationError):
            store.withdraw(5, 1, requester=0)  # owner is 5 % 4 == 1
        store.withdraw(5, 1, requester=1)
        with pytest.raises(InsufficientBalanceError):
            store.withdraw(5, 100)
        with pytest.raises(UnknownAccountError):
            store.deposit(999, 1)

    def test_off_progression_accounts_use_overflow(self):
        store = _columnar()
        store.create_account(500, owner=2, balance=7)
        assert 500 in store
        assert store.balance(500) == 7
        store.deposit(500, 3)
        store.withdraw(500, 1)
        assert store.balance(500) == 9
        assert len(store) == 17
        assert store.total_balance() == 1609
        with pytest.raises(ValidationError):
            store.create_account(500, owner=2, balance=1)

    def test_account_returns_detached_record(self):
        store = _columnar()
        record = store.account(2)
        record.balance += 1_000_000
        assert store.balance(2) == 100


class TestColumnarClone:
    def test_clone_is_independent(self):
        store = _columnar()
        store.create_account(900, owner=0, balance=5)
        copy = store.clone()
        copy.deposit(0, 50)
        copy.withdraw(900, 5)
        assert store.balance(0) == 100
        assert store.balance(900) == 5
        assert copy.balance(0) == 150
        assert store.state_digest() != copy.state_digest()

    def test_clone_preserves_digest(self):
        store = _columnar()
        store.deposit(1, 9)
        digest = store.state_digest()
        store.deposit(2, 1)  # leave a pending write in flight
        copy = store.clone()
        assert copy.state_digest() == store.state_digest()
        assert copy.state_digest() == copy.naive_state_digest()
        assert digest != copy.state_digest()


class TestColumnarDigestParity:
    def test_matches_dict_backend_bit_for_bit(self):
        mapper = ShardMapper(2, 32)
        columnar = ArrayAccountStore.bootstrap(0, mapper, 50, owner_of=lambda a: a % 3)
        plain = AccountStore.bootstrap(0, mapper, 50, owner_of=lambda a: a % 3)
        assert columnar.state_digest() == plain.state_digest()
        rng = random.Random(7)
        for _ in range(300):
            account = rng.randrange(32)
            amount = rng.randint(1, 8)
            if rng.random() < 0.5 and plain.balance(account) >= amount:
                columnar.withdraw(account, amount)
                plain.withdraw(account, amount)
            else:
                columnar.deposit(account, amount)
                plain.deposit(account, amount)
        assert columnar.state_digest() == plain.state_digest()
        assert columnar.snapshot() == plain.snapshot()
        assert columnar.state_digest() == columnar.naive_state_digest()


class TestColumnarCheckpointSnapshots:
    def test_snapshot_is_lazy_until_read(self):
        store = _columnar()
        snapshot = store.checkpoint_snapshot(10)
        assert not snapshot.materialized
        store.deposit(0, 7)
        assert snapshot[0] == (0, 100)  # pre-write value at seq 10
        assert snapshot.materialized
        assert len(snapshot) == 16

    def test_snapshot_layering_oldest_preimage_wins(self):
        store = _columnar()
        early = store.checkpoint_snapshot(1)
        store.deposit(3, 10)  # epoch [1, 2): 3 -> 110
        middle = store.checkpoint_snapshot(2)
        store.deposit(3, 10)  # epoch [2, now): 3 -> 120
        store.create_account(800, owner=0, balance=1)
        assert early[3] == (3, 100)
        assert middle[3] == (3, 110)
        assert 800 not in early
        assert 800 not in middle
        assert store.balance(3) == 120

    def test_snapshot_digest_matches_store_at_checkpoint(self):
        store = _columnar()
        store.deposit(5, 5)
        digest_then = store.state_digest()
        snapshot = store.checkpoint_snapshot(4)
        store.deposit(5, 5)
        store.withdraw(6, 1)
        assert ArrayAccountStore.snapshot_digest(snapshot) == digest_then

    def test_frames_trimmed_when_no_live_snapshot_needs_them(self):
        store = _columnar()
        for seq in range(1, 8):
            store.checkpoint_snapshot(seq)
            store.deposit(seq % 16, 1)
        # No snapshot reference retained above -> the WeakSet is empty and
        # every closed frame below the newest checkpoint is released.
        assert len(store._frames) <= 1

    def test_frames_retained_for_live_snapshot(self):
        store = _columnar()
        held = store.checkpoint_snapshot(1)
        for seq in range(2, 6):
            store.deposit(0, 1)
            store.checkpoint_snapshot(seq)
        assert len(store._frames) >= 4
        assert held[0] == (0, 100)

    def test_restore_materialises_live_snapshots_first(self):
        store = _columnar()
        baseline = store.snapshot()
        snapshot = store.checkpoint_snapshot(3)
        store.deposit(0, 40)
        store.restore(baseline)
        assert snapshot.materialized
        assert snapshot[0] == (0, 100)
        assert store.balance(0) == 100
        assert store.state_digest() == store.naive_state_digest()

    def test_restore_roundtrip_via_lazy_snapshot(self):
        store = _columnar()
        store.create_account(700, owner=1, balance=3)
        snapshot = store.checkpoint_snapshot(2)
        digest = store.state_digest()
        store.deposit(700, 10)
        store.withdraw(0, 99)
        store.restore(snapshot)
        assert store.balance(700) == 3
        assert store.balance(0) == 100
        assert store.state_digest() == digest
