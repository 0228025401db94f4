"""Unit tests for the recovery subsystem's building blocks.

Covers the compaction primitives (:meth:`OrderingLog.truncate`,
:meth:`ClusterView.prune`), the state-transfer install primitives
(:meth:`OrderingLog.install_checkpoint`,
:meth:`ClusterView.install_anchor`), checkpoint digest determinism, and
the stale-message guards at the low-water mark.
"""

import pytest

from repro.api import DeploymentSpec
from repro.common.errors import ConsensusError
from repro.common.types import AccountId, ClientId, ClusterId, FaultModel
from repro.consensus.log import EntryStatus, OrderingLog, item_digest
from repro.consensus.messages import CrossAcceptB, CrossCommitB
from repro.core.system import SharPerSystem
from repro.ledger.block import Block
from repro.ledger.view import ClusterView
from repro.recovery import checkpoint_digest
from repro.storage import StateStore
from repro.txn.accounts import ShardMapper
from repro.txn.workload import WorkloadConfig

from helpers import simple_transfer


def _decide_and_apply(log: OrderingLog, upto: int) -> None:
    for slot in range(log.next_apply, upto + 1):
        item = simple_transfer(source=slot % 8, destination=(slot + 1) % 8)
        log.decide(slot, item_digest(item), item)
    log.pop_applicable()


class TestOrderingLogTruncation:
    def test_truncate_drops_applied_entries_and_indexes(self):
        log = OrderingLog(ClusterId(0))
        items = {}
        for slot in range(1, 11):
            item = simple_transfer(source=slot % 8, destination=(slot + 1) % 8)
            items[slot] = item
            log.decide(slot, item_digest(item), item)
        log.pop_applicable()
        removed = log.truncate(6)
        assert removed == 6
        assert log.low_water_mark == 6
        assert log.entry_count == 4
        assert log.entry(3) is None
        assert log.entry(7) is not None
        # Dedup index rows below the mark are gone; above it they remain.
        assert log.decided_slot_of(item_digest(items[3])) is None
        assert log.decided_slot_of(item_digest(items[8])) == 8
        assert log.truncated_entries == 6

    def test_truncate_clamps_to_applied_prefix(self):
        log = OrderingLog(ClusterId(0))
        _decide_and_apply(log, 5)
        item = simple_transfer(source=2, destination=3)
        log.decide(7, item_digest(item), item)  # blocked: slot 6 missing
        assert log.truncate(100) == 5
        assert log.low_water_mark == 5
        assert log.entry(7) is not None
        assert log.blocked_decisions == 1

    def test_truncate_is_idempotent(self):
        log = OrderingLog(ClusterId(0))
        _decide_and_apply(log, 4)
        assert log.truncate(4) == 4
        assert log.truncate(4) == 0
        assert log.truncate(2) == 0

    def test_stale_messages_below_low_water_are_ignored(self):
        log = OrderingLog(ClusterId(0))
        _decide_and_apply(log, 5)
        log.truncate(5)
        stale = simple_transfer(source=4, destination=5)
        # Neither a late proposal nor a late decision resurrects slot 2.
        assert log.record_pending(2, item_digest(stale), stale) is None
        assert log.decide(2, item_digest(stale), stale) is None
        assert log.entry(2) is None
        assert log.blocked_decisions == 0

    def test_peak_entry_count_tracks_high_water_mark(self):
        log = OrderingLog(ClusterId(0))
        _decide_and_apply(log, 8)
        assert log.peak_entry_count == 8
        log.truncate(8)
        assert log.entry_count == 0
        assert log.peak_entry_count == 8  # peak survives truncation

    def test_install_checkpoint_jumps_the_apply_cursor(self):
        log = OrderingLog(ClusterId(0))
        _decide_and_apply(log, 3)
        log.install_checkpoint(10)
        assert log.next_apply == 11
        assert log.next_slot == 11
        assert log.low_water_mark == 10
        assert log.entry_count == 0
        # Suffix replay decides and applies above the checkpoint.
        item = simple_transfer(source=1, destination=2)
        log.decide(11, item_digest(item), item)
        assert [entry.slot for entry in log.pop_applicable()] == [11]


def _chain_with_blocks(cluster: ClusterId, count: int) -> ClusterView:
    view = ClusterView(cluster)
    for position in range(1, count + 1):
        transaction = simple_transfer(source=position % 8, destination=(position + 1) % 8)
        block = Block.create(
            transaction, {cluster: position}, proposer=cluster,
            parents={cluster: view.head_hash},
        )
        view.append(block)
    return view


class TestClusterViewPruning:
    def test_prune_keeps_height_and_appends_continue(self):
        cluster = ClusterId(0)
        view = _chain_with_blocks(cluster, 10)
        tx_ids = [block.transactions[0].tx_id for block in view.blocks()]
        dropped = view.prune(7)
        assert dropped == 7
        assert view.height == 10
        assert view.pruned_height == 7
        assert len(view.blocks()) == 3
        # The anchor (position 7) is retained for hash chaining.
        assert view.block_at(7).position_for(cluster) == 7
        with pytest.raises(Exception):
            view.block_at(3)
        # The transaction index survives pruning (at-most-once checks).
        for tx_id in tx_ids:
            assert view.contains_tx(tx_id)
        # Appending continues seamlessly at position 11.
        transaction = simple_transfer(source=3, destination=4)
        view.append(Block.create(
            transaction, {cluster: 11}, proposer=cluster, parents={cluster: view.head_hash}
        ))
        assert view.height == 11
        view.verify()

    def test_prune_is_idempotent_and_clamped(self):
        view = _chain_with_blocks(ClusterId(0), 5)
        assert view.prune(3) == 3
        assert view.prune(3) == 0
        assert view.prune(2) == 0
        assert view.prune(99) == 2  # clamped to the current height

    def test_install_anchor_resets_onto_remote_checkpoint(self):
        cluster = ClusterId(0)
        helper = _chain_with_blocks(cluster, 6)
        helper.prune(4)
        anchor = helper.block_at(4)
        joiner = ClusterView(cluster)
        joiner.install_anchor(anchor, dict(helper.tx_index_upto(4)))
        assert joiner.height == 4
        assert joiner.head_hash == anchor.block_hash
        assert joiner.next_index == 5
        # Replaying position 5 appends the block every peer holds.
        joiner.append(helper.block_at(5))
        assert joiner.head_hash == helper.block_at(5).block_hash
        joiner.verify()

    def test_tx_index_upto_filters_by_position(self):
        view = _chain_with_blocks(ClusterId(0), 6)
        pairs = dict(view.tx_index_upto(4))
        assert set(pairs.values()) == {1, 2, 3, 4}


class TestCheckpointDigest:
    def test_store_digest_is_construction_independent(self):
        mapper = ShardMapper(num_shards=1, accounts_per_shard=8)
        store = StateStore.bootstrap(shard=0, mapper=mapper, initial_balance=100)
        store.withdraw(AccountId(1), 30)
        store.deposit(AccountId(5), 30)
        clone = StateStore.bootstrap(shard=0, mapper=mapper, initial_balance=7)
        clone.restore(store.snapshot())
        assert store.state_digest() == clone.state_digest()
        clone.deposit(AccountId(2), 1)
        assert store.state_digest() != clone.state_digest()

    def test_checkpoint_digest_binds_seq_chain_and_store(self):
        digest = checkpoint_digest(10, "head", "store")
        assert digest != checkpoint_digest(11, "head", "store")
        assert digest != checkpoint_digest(10, "other", "store")
        assert digest != checkpoint_digest(10, "head", "other")
        assert digest == checkpoint_digest(10, "head", "store")


class TestDecideConflictsStillRaise:
    def test_fork_above_low_water_still_raises(self):
        log = OrderingLog(ClusterId(0))
        _decide_and_apply(log, 3)
        log.truncate(3)
        item = simple_transfer(source=1, destination=2)
        other = simple_transfer(source=2, destination=3)
        log.decide(5, item_digest(item), item)
        with pytest.raises(ConsensusError):
            log.decide(5, item_digest(other), other)


class TestByzantineCrossShardCompaction:
    """Late votes never pin state: nothing is resurrected, orphans are swept."""

    @staticmethod
    def _backup_engine():
        config = DeploymentSpec(
            system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
        ).resolve(seed=3)
        system = SharPerSystem(config, WorkloadConfig(accounts_per_shard=64), seed=3)
        backup = system.replicas[1]  # cluster 0: nodes 0-3 (0 leads), cluster 1: 4-7
        return backup, backup.cross

    def test_votes_for_a_compacted_own_cluster_position_resurrect_nothing(self):
        backup, engine = self._backup_engine()
        backup.log.install_checkpoint(10)
        assert backup.log.low_water_mark == 10
        mine, remote = ClusterId(0), ClusterId(1)
        engine._on_accept(CrossAcceptB("old", mine, 0, 10), 0)
        engine._on_commit(CrossCommitB("old", remote, 5, ((mine, 9), (remote, 4))), 5)
        assert engine._states == {}
        # Above the mark — or with the own-cluster position still unknown —
        # the vote may be running ahead of its propose and is kept.
        engine._on_accept(CrossAcceptB("new", mine, 0, 11), 0)
        engine._on_commit(CrossCommitB("newer", remote, 5, ((mine, 12), (remote, 5))), 5)
        engine._on_accept(CrossAcceptB("unknown", remote, 5, 3), 5)
        assert sorted(engine._states) == ["new", "newer", "unknown"]

    def test_request_less_state_is_swept_once_a_checkpoint_has_outlived_it(self):
        _, engine = self._backup_engine()
        remote = ClusterId(1)
        engine._on_accept(CrossAcceptB("orphan", remote, 5, 3), 5)
        engine._on_accept(CrossAcceptB("proposed-later", remote, 5, 4), 5)
        engine.compact_below(16)
        assert sorted(engine._states) == ["orphan", "proposed-later"]  # seen once: kept
        engine._states["proposed-later"].request = object()  # its propose arrived
        engine._on_accept(CrossAcceptB("fresh", remote, 6, 5), 6)
        engine.compact_below(32)
        assert sorted(engine._states) == ["fresh", "proposed-later"]
        engine.compact_below(48)
        assert sorted(engine._states) == ["proposed-later"]

    def test_decided_state_is_compacted_by_own_cluster_slot_on_a_backup(self):
        _, engine = self._backup_engine()
        mine, remote = ClusterId(0), ClusterId(1)
        for digest, own, decided in (("low", 8, True), ("high", 20, True), ("open", 7, False)):
            state = engine._state(digest)
            state.request = object()
            state.positions = {mine: own, remote: 1}
            state.decided = decided
        assert engine._assigned_slots == {}  # a backup never fills the primary's index
        engine.compact_below(16)
        assert sorted(engine._states) == ["high", "open"]
