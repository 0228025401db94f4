"""Unit tests for the state store's columns and lazy checkpoint snapshots."""

import hashlib
import random

import pytest

from repro.common.errors import (
    InsufficientBalanceError,
    UnknownAccountError,
    ValidationError,
)
from repro.storage import StateStore
from repro.txn.accounts import ShardMapper


def _columnar(num_shards=2, accounts_per_shard=16, shard=0, balance=100):
    """Client ``i`` owns account ``i``: there are more clients than ids."""
    mapper = ShardMapper(num_shards, accounts_per_shard)
    clients = num_shards * accounts_per_shard
    return StateStore.bootstrap(shard, mapper, initial_balance=balance, num_clients=clients)


class TestColumnarBasics:
    def test_bootstrap_range_strategy(self):
        store = _columnar(shard=1)
        assert len(store) == 16
        assert store.total_balance() == 1600
        assert store.balance(16) == 100
        assert (store.owner(31), store.balance(31)) == (31, 100)

    @pytest.mark.parametrize("account", [15, 0, -1, 32])
    def test_ids_outside_the_range_are_unknown_on_both_sides(self, account):
        """Below the range the column index is negative: it must not wrap."""
        store = _columnar(shard=1)
        for call in (store.owner, store.balance, lambda a: store.deposit(a, 1),
                     lambda a: store.withdraw(a, 1)):
            with pytest.raises(UnknownAccountError, match=f"unknown account {account}"):
                call(account)
        assert store.total_balance() == 1600 and store.version == 0

    def test_deposit_withdraw_update_columns(self):
        store = _columnar()
        store.deposit(3, 25)
        assert store.balance(3) == 125
        store.withdraw(3, 5)
        assert store.balance(3) == 120
        assert store.total_balance() == 1620

    def test_owner_is_the_rule_and_overdraft_rejected(self):
        mapper = ShardMapper(1, 8)
        store = StateStore.bootstrap(0, mapper, 10, num_clients=4)
        assert store.owner(5) == 1  # 5 % 4
        store.withdraw(5, 1)
        with pytest.raises(InsufficientBalanceError):
            store.withdraw(5, 100)
        with pytest.raises(UnknownAccountError):
            store.deposit(999, 1)


class TestColumnarClone:
    def test_clone_is_independent(self):
        store = _columnar()
        copy = store.clone()
        copy.deposit(0, 50)
        copy.withdraw(9, 5)
        assert store.balance(0) == 100
        assert store.balance(9) == 100
        assert copy.balance(0) == 150
        assert copy.total_balance() == store.total_balance() + 45
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
    def test_matches_the_dict_backend_pins(self):
        """Digests, table and total recorded at e3d5edf on the dict backend."""
        mapper = ShardMapper(2, 32)
        store = StateStore.bootstrap(0, mapper, 50, num_clients=3)
        assert store.state_digest() == (
            "709b59711c981a80fea6857a68845c14c6182eb0658a2468c17dd9c104b71db9"
        )
        rng = random.Random(7)
        for _ in range(300):
            account = rng.randrange(32)
            amount = rng.randint(1, 8)
            if rng.random() < 0.5 and store.balance(account) >= amount:
                store.withdraw(account, amount)
            else:
                store.deposit(account, amount)
        assert store.state_digest() == (
            "b5584c240437c896b96765c3241d00f41d4d39ca870e44f153932ceda61db5b5"
        )
        # The table as the dict backend held it: (id, (owner, balance)) rows.
        rows = [(account, (store.owner(account), balance))
                for account, balance in sorted(store.snapshot().items())]
        table = repr(rows).encode()
        assert hashlib.sha256(table).hexdigest() == (
            "e571b99a37c1eb6ba4160612938d8547f54fd3b75bee51a4e888788882a78f02"
        )
        assert store.total_balance() == 1490
        assert store.state_digest() == store.naive_state_digest()


class TestColumnarCheckpointSnapshots:
    def test_snapshot_is_lazy_until_read(self):
        store = _columnar()
        snapshot = store.checkpoint_snapshot(10)
        assert not snapshot.materialized
        store.deposit(0, 7)
        assert snapshot[0] == 100  # pre-write value at seq 10
        assert snapshot.materialized
        assert len(snapshot) == 16

    def test_snapshot_layering_oldest_preimage_wins(self):
        store = _columnar()
        early = store.checkpoint_snapshot(1)
        store.deposit(3, 10)  # epoch [1, 2): 3 -> 110
        middle = store.checkpoint_snapshot(2)
        store.deposit(3, 10)  # epoch [2, now): 3 -> 120
        assert early[3] == 100
        assert middle[3] == 110
        assert store.balance(3) == 120

    def test_snapshot_digest_matches_store_at_checkpoint(self):
        store = _columnar()
        store.deposit(5, 5)
        digest_then = store.state_digest()
        snapshot = store.checkpoint_snapshot(4)
        store.deposit(5, 5)
        store.withdraw(6, 1)
        assert store.snapshot_digest(snapshot) == digest_then

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
        assert held[0] == 100

    def test_restore_materialises_live_snapshots_first(self):
        store = _columnar()
        baseline = store.snapshot()
        snapshot = store.checkpoint_snapshot(3)
        store.deposit(0, 40)
        store.restore(baseline)
        assert snapshot.materialized
        assert snapshot[0] == 100
        assert store.balance(0) == 100
        assert store.state_digest() == store.naive_state_digest()

    def test_restore_roundtrip_via_lazy_snapshot(self):
        store = _columnar()
        store.withdraw(7, 97)
        snapshot = store.checkpoint_snapshot(2)
        digest = store.state_digest()
        store.deposit(7, 10)
        store.withdraw(0, 99)
        store.restore(snapshot)
        assert store.balance(7) == 3
        assert store.balance(0) == 100
        assert store.total_balance() == 1600 - 97
        assert store.state_digest() == digest


class TestRestoreRefusesWhatTheStoreCannotHold:
    """A peer's snapshot must cover the store's id range exactly, non-negative."""

    class _Pairs(dict):
        """A Mapping whose ``items()`` repeats a key, as a malformed response could."""

        def __init__(self, pairs):
            super().__init__(pairs)
            self.pairs = pairs

        def items(self):
            return iter(self.pairs)

    def _state(self, store):
        return (store.snapshot(), store.total_balance(), store.version,
                store.state_digest(), store.naive_state_digest())

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda rows: rows + [(32, 1)],
             "snapshot account 32 is outside shard 1's range 16..31"),
            (lambda rows: [(15, 100)] + rows[1:],
             "snapshot account 15 is outside shard 1's range 16..31"),
            (lambda rows: [("16", 100)] + rows[1:], "snapshot account '16' is outside"),
            (lambda rows: rows[:5] + rows[6:], "snapshot is missing account 21"),
            (lambda rows: rows[:-1] + [(20, 100)], "snapshot names account 20 twice"),
            (lambda rows: rows[:3] + [(19, -1)] + rows[4:],
             "snapshot account 19 has negative balance -1"),
        ],
        ids=["above", "below", "not-an-int", "missing", "duplicated", "negative"],
    )
    def test_refused_restore_names_the_id_and_leaves_the_store_unchanged(self, tamper, message):
        store = _columnar(shard=1)
        store.deposit(20, 5)
        lazy = store.checkpoint_snapshot(4)
        store.withdraw(20, 2)
        before = self._state(store)
        rows = sorted(store.snapshot().items())
        with pytest.raises(ValidationError, match=message):
            store.restore(self._Pairs(tamper(rows)))
        assert self._state(store) == before
        assert not lazy.materialized  # its undo frames still stand
        assert lazy[20] == 105

    def test_a_snapshot_of_the_range_in_any_order_is_accepted(self):
        store = _columnar(shard=1)
        rows = sorted(store.snapshot().items(), reverse=True)
        store.restore(dict(rows))
        assert store.state_digest() == store.naive_state_digest()
        assert store.snapshot() == dict(sorted(rows))


class TestPerfPinnedNames:
    """``perf/layers.py`` wraps methods found in a class's own ``__dict__``.

    The two names it still imports must be empty subclasses of the one
    store: an alias, or a subclass that redefines a method, would make
    the profiler wrap ``deposit`` / ``withdraw`` twice or miss one.
    """

    @pytest.fixture(params=["AccountStore", "ArrayAccountStore"])
    def pinned(self, request):
        import repro.storage
        import repro.storage.dict_store

        module = repro.storage.dict_store if request.param == "AccountStore" else repro.storage
        return getattr(module, request.param)

    def test_is_an_empty_subclass_of_the_one_store(self, pinned):
        assert pinned is not StateStore
        assert pinned.__bases__ == (StateStore,)
        assert {name for name in vars(pinned) if not name.startswith("__")} == set()
        mapper = ShardMapper(2, 16)
        store = pinned.bootstrap(1, mapper, initial_balance=100, num_clients=5)
        reference = StateStore.bootstrap(1, mapper, initial_balance=100, num_clients=5)
        for each in (store, reference):
            each.deposit(17, 9)
            each.withdraw(30, 4)
        assert store.snapshot() == reference.snapshot()
        assert store.state_digest() == reference.state_digest() == reference.naive_state_digest()
