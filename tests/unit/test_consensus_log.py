"""Unit tests for the ordering log and quorum tracker."""

import pytest

from repro.common.errors import ConsensusError
from repro.consensus.base import QuorumTracker
from repro.consensus.log import EntryStatus, Noop, OrderingLog, item_digest

from helpers import simple_transfer

#: voter pid -> tally bit for the bare trackers below.
MEMBERS = {pid: 1 << pid for pid in range(4)}


class TestQuorumTracker:
    def test_fires_once_at_threshold(self):
        tracker = QuorumTracker(2, MEMBERS)
        assert not tracker.vote("k", 1)
        assert tracker.vote("k", 2)
        assert not tracker.vote("k", 3)
        assert tracker.reached("k")
        assert tracker.count("k") == 2

    def test_duplicate_votes_ignored(self):
        tracker = QuorumTracker(2, MEMBERS)
        assert not tracker.vote("k", 1)
        assert not tracker.vote("k", 1)
        assert tracker.count("k") == 1

    def test_keys_are_independent(self):
        tracker = QuorumTracker(1, MEMBERS)
        assert tracker.vote("a", 1)
        assert tracker.vote("b", 1)
        assert tracker.voters("a") == frozenset({1})

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            QuorumTracker(0, MEMBERS)

    def test_clear(self):
        tracker = QuorumTracker(1, MEMBERS)
        tracker.vote("a", 1)
        tracker.clear()
        assert not tracker.reached("a")


class TestItemDigest:
    def test_transaction_digest_matches_payload_digest(self):
        tx = simple_transfer()
        assert item_digest(tx) == tx.payload_digest()

    def test_noop_digest_is_stable(self):
        assert item_digest(Noop("x")) == item_digest(Noop("x"))
        assert item_digest(Noop("x")) != item_digest(Noop("y"))


class TestOrderingLog:
    def test_allocation_is_sequential(self):
        log = OrderingLog(0)
        assert log.allocate() == 1
        assert log.allocate() == 2
        log.observe(10)
        assert log.allocate() == 11

    def test_pending_then_decide_then_apply(self):
        log = OrderingLog(0)
        tx = simple_transfer()
        digest = item_digest(tx)
        log.record_pending(1, digest, tx)
        assert log.pop_applicable() == []
        log.decide(1, digest, tx)
        [entry] = log.pop_applicable()
        assert entry.slot == 1 and entry.status is EntryStatus.APPLIED
        assert log.decided_slot_of(digest) == 1

    def test_apply_strictly_in_order(self):
        log = OrderingLog(0)
        tx1, tx2 = simple_transfer(1, 2), simple_transfer(3, 4)
        log.decide(2, item_digest(tx2), tx2)
        assert log.pop_applicable() == []
        log.decide(1, item_digest(tx1), tx1)
        entries = log.pop_applicable()
        assert [entry.slot for entry in entries] == [1, 2]

    def test_conflicting_pending_digest_rejected(self):
        log = OrderingLog(0)
        tx1, tx2 = simple_transfer(1, 2), simple_transfer(3, 4)
        log.record_pending(1, item_digest(tx1), tx1)
        with pytest.raises(ConsensusError):
            log.record_pending(1, item_digest(tx2), tx2)
        # Same digest is idempotent.
        log.record_pending(1, item_digest(tx1), tx1)

    def test_decide_overrides_pending_conflict(self):
        log = OrderingLog(0)
        tx1, tx2 = simple_transfer(1, 2), simple_transfer(3, 4)
        log.record_pending(1, item_digest(tx1), tx1)
        entry = log.decide(1, item_digest(tx2), tx2)
        assert entry.digest == item_digest(tx2)

    def test_conflicting_decides_raise(self):
        log = OrderingLog(0)
        tx1, tx2 = simple_transfer(1, 2), simple_transfer(3, 4)
        log.decide(1, item_digest(tx1), tx1)
        with pytest.raises(ConsensusError):
            log.decide(1, item_digest(tx2), tx2)
        # Re-deciding the same digest is idempotent.
        log.decide(1, item_digest(tx1), tx1)

    def test_positions_default_to_own_cluster(self):
        # An intra-shard entry carries no vector; every reader derives the
        # own-cluster one, {cluster: slot}, from the log and the slot.
        log = OrderingLog(3)
        tx = simple_transfer()
        pending = log.record_pending(4, "pending", tx)
        entry = log.decide(5, item_digest(tx), tx)
        assert entry.positions is None and pending.positions is None
        assert entry.vector(log.cluster_id) == {3: 5}
        assert log.decide(6, "empty", tx, positions={}).positions is None

    def test_cross_positions_preserved(self):
        log = OrderingLog(0)
        tx = simple_transfer()
        entry = log.decide(1, item_digest(tx), tx, positions={0: 1, 2: 9}, proposer=0)
        assert entry.positions == {0: 1, 2: 9} and entry.vector(0) == {0: 1, 2: 9}
