"""The digest work the replicas of a cluster share: prototype scan and leaf memo.

Every replica's store is a ``clone()`` of one bootstrap prototype per
shard, so the genesis table scan belongs to the prototype (done lazily,
once, at the first digest any clone asks for) and a clone folds in only
its own writes.  Whatever path a store took to its digest — inherited,
fallen back to the full scan, restored, state-transferred — the value
must equal ``naive_state_digest()``.
"""

import pytest

from repro.storage import base
from repro.storage.base import StateStore, leaf_hash
from repro.txn.accounts import ShardMapper

ACCOUNTS = 64


def _prototype(shard=1):
    return StateStore.bootstrap(shard, ShardMapper(4, ACCOUNTS), 1000, num_clients=5)


def _first(store):
    return min(store.snapshot())


def _with_balance(store, balance):
    return dict.fromkeys(store.snapshot(), balance)


@pytest.fixture
def leaf_calls(monkeypatch):
    """Number of real leaf computations: every leaf a table scan hashes,
    and every incremental leaf (memo hits do not count)."""
    calls = [0]
    scan = base._leaf_sum

    def counting(entries):
        entries = list(entries)
        calls[0] += len(entries)
        return scan(entries)

    monkeypatch.setattr(base, "_leaf_sum", counting)
    monkeypatch.setattr(base, "_memo_leaf_hash", leaf_hash)  # unmemoised, counted by the scan
    return calls


class TestCloneDigest:
    def test_untouched_clone(self):
        clone = _prototype().clone()
        assert clone.state_digest() == clone.naive_state_digest()
        assert clone._cloned_from is None  # link dropped at the first digest

    def test_clone_written_before_its_first_digest(self):
        prototype = _prototype()
        clone = prototype.clone()
        account = _first(clone)
        clone.withdraw(account, 7)
        clone.deposit(account + 1, 7)
        assert clone.state_digest() == clone.naive_state_digest()
        assert prototype.state_digest() == prototype.naive_state_digest()
        assert clone.state_digest() != prototype.state_digest()

    def test_prototype_written_after_cloning_takes_the_full_scan(self):
        prototype = _prototype()
        clone = prototype.clone()
        prototype.deposit(_first(prototype), 5)
        assert clone.state_digest() == clone.naive_state_digest()
        assert prototype._digest_acc is None  # never asked: the clone scanned itself
        assert clone.state_digest() != prototype.state_digest()

    def test_prototype_restored_after_cloning_takes_the_full_scan(self):
        prototype = _prototype()
        clone = prototype.clone()
        prototype.restore(_with_balance(prototype, 1))
        assert clone.state_digest() == clone.naive_state_digest()
        assert clone.state_digest() != prototype.state_digest()

    def test_restored_clone(self):
        prototype = _prototype()
        clone = prototype.clone()
        clone.restore(_with_balance(prototype, 3))
        assert clone._cloned_from is None
        assert clone.state_digest() == clone.naive_state_digest()
        assert clone.state_digest() != prototype.state_digest()

    def test_state_transferred_clone(self):
        """A joiner installs a helper's checkpoint snapshot, then applies the suffix."""
        prototype = _prototype()
        helper, joiner = prototype.clone(), prototype.clone()
        account = _first(helper)
        helper.withdraw(account, 9)
        checkpoint_digest = helper.state_digest()
        snapshot = helper.checkpoint_snapshot(64)
        helper.deposit(account + 1, 9)
        joiner.deposit(account + 2, 1)  # stale local state, overwritten by the transfer
        assert joiner.snapshot_digest(snapshot) == checkpoint_digest
        joiner.restore(snapshot)
        assert joiner.state_digest() == checkpoint_digest
        joiner.deposit(account + 1, 9)
        assert joiner.state_digest() == helper.state_digest() == joiner.naive_state_digest()

    def test_clone_of_an_undigested_clone(self):
        middle = _prototype().clone()
        middle.deposit(_first(middle), 4)
        leaf = middle.clone()
        leaf.deposit(_first(leaf), 1)
        assert leaf.state_digest() == leaf.naive_state_digest()
        assert middle.state_digest() == middle.naive_state_digest()

    def test_prototype_is_scanned_once_for_all_its_clones(self, leaf_calls):
        prototype = _prototype()
        clones = [prototype.clone() for _ in range(3)]
        writes = 0
        for clone in clones:
            clone.withdraw(_first(clone), 2)
            clone.deposit(_first(clone) + 1, 2)
            writes += 2
        clones[0].state_digest()
        after_first = leaf_calls[0]
        assert after_first <= ACCOUNTS + 2 * 2  # the scan + pre/post image of 2 writes
        for clone in clones[1:]:
            clone.state_digest()
        assert leaf_calls[0] - after_first <= 2 * 2 * 2  # no second scan
        assert leaf_calls[0] <= ACCOUNTS + 2 * writes
        assert len({clone.state_digest() for clone in clones}) == 1
        assert clones[0].state_digest() == clones[0].naive_state_digest()

    def test_digested_prototype_hands_its_accumulator_over(self, leaf_calls):
        prototype = _prototype()
        prototype.state_digest()
        prototype.deposit(_first(prototype), 1)  # a pre-image in flight
        scanned = leaf_calls[0]
        clone = prototype.clone()
        assert clone._cloned_from is None
        assert clone.state_digest() == prototype.state_digest() == clone.naive_state_digest()
        assert leaf_calls[0] - scanned <= 4 + 2 * ACCOUNTS  # incremental + the naive pass


@pytest.mark.parametrize("accounts", [1_000, 10_000, 50_000])
def test_incremental_digest_hashes_two_leaves_per_write(accounts, leaf_calls):
    """O(writes), not O(accounts): the same 2W leaf hashes at every population.

    Each written account folds its pre-image out and its post-image in.  A
    clone's first digest is held to the same bound by
    ``TestCloneDigest.test_prototype_is_scanned_once_for_all_its_clones``.
    """
    writes = 100
    mapper = ShardMapper(1, accounts)
    store = StateStore.bootstrap(0, mapper, 1000, num_clients=64)
    store.state_digest()  # the genesis scan
    leaf_calls[0] = 0
    for account_id in mapper.accounts_in_shard(0)[:: accounts // writes]:
        store.deposit(account_id, 1)
    store.state_digest()
    assert leaf_calls[0] == 2 * writes


class TestLeafMemo:
    def test_leaf_hash_values_are_those_of_the_parent_commit(self):
        """Recorded at 829c2e3, before the memo existed."""
        assert leaf_hash(0, 0, 1000) == int(
            "a1e66aff2d9ca757e8f91df4233b245d02ce7b1f36cc2f2501c1532025d4e387", 16
        )
        assert leaf_hash(16385, 1, 0) == int(
            "2f5310f5be6460d9458aad731c66bed8c4a5f3650071e3b82575b85f9f3126e8", 16
        )
        assert base._memo_leaf_hash(7, 3, 12345678901234567890) == int(
            "2fe751382624be67fdc13d6c2af9b55497dae2163eca05c28cf5229875c78715", 16
        )
        assert _prototype().state_digest() == (
            "c8ed143ba2bc900e5b797a2689b89a3086fa64366ad8c0bea21e4577721e34b0"
        )

    def test_full_scans_leave_the_memo_alone(self):
        memo = base._memo_leaf_hash
        memo.cache_clear()
        store = _prototype()
        store.state_digest()  # genesis scan
        store.naive_state_digest()
        store.restore(store.snapshot())
        store.state_digest()  # scan after restore
        assert memo.cache_info().currsize == 0
        store.deposit(_first(store), 1)
        store.state_digest()  # incremental: pre-image + post-image
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (2, 2)

    def test_replicas_of_a_cluster_hash_each_written_leaf_once(self):
        memo = base._memo_leaf_hash
        memo.cache_clear()
        replicas = [_prototype().clone() for _ in range(3)]
        for replica in replicas:
            replica.state_digest()
        account = _first(replicas[0])
        for checkpoint in range(2):
            for replica in replicas:
                replica.withdraw(account, 1)
                replica.deposit(account + 1, 1)
                replica.state_digest()
        info = memo.cache_info()
        # 2 accounts x (pre, post) the first time; the second checkpoint's
        # pre-images are the first one's post-images.
        assert info.misses == 4 + 2
        assert info.hits == 3 * 2 * 4 - info.misses
        assert memo.cache_info().maxsize == 4096
