"""Vote tallies as voter bitmasks, and who may vote for a cluster.

Every "distinct voters per key" tally is one int: the OR of the voters'
bits, each member's bit being its index in its cluster
(``ClusterConfig.voter_bits``).  These tests pin :class:`~repro.consensus.base.QuorumTracker`'s
contract on that representation, then check the rule every tally now
applies first: a vote counts only if its sender is a member of the
cluster it speaks for.  Each refusal below is a vote that counted before
membership was checked (cross-shard accepts and commits, PBFT prepares,
Paxos accepted, view-change votes, AHL's committee votes).  The last test records a
hole that is still open: a forged position vector in one early commit.
"""

from dataclasses import replace

import pytest

from repro.api import DeploymentSpec
from repro.baselines.ahl import AHLSystem, AHLVote
from repro.common.config import ProtocolTuning
from repro.common.types import ClusterId, FaultModel, NodeId
from repro.consensus.base import QuorumTracker
from repro.consensus.log import item_digest
from repro.consensus.messages import (
    ClientRequest,
    CrossAccept,
    CrossAcceptB,
    CrossCommitB,
    CrossProposeB,
    PaxosAccepted,
    Prepare,
    ViewChange,
)
from repro.consensus.paxos import PaxosEngine
from repro.consensus.pbft import PBFTEngine
from repro.consensus.view_change import sign_view_change
from repro.core.system import SharPerSystem
from repro.txn.transaction import Transaction, Transfer
from repro.txn.workload import WorkloadConfig

from helpers import FakeHost, byzantine_cluster, crash_cluster

ACCOUNTS = 64
C0, C1 = ClusterId(0), ClusterId(1)


def members(*pids):
    """A member map as ``ClusterConfig.voter_bits`` builds it: pid -> 1 << index."""
    return {pid: 1 << index for index, pid in enumerate(pids)}


class TestQuorumTrackerContract:
    def test_duplicate_voter_counts_once(self):
        tracker = QuorumTracker(3, members(4, 5, 6, 7))
        assert not tracker.vote("k", 5)
        assert not tracker.vote("k", 5)
        assert tracker.count("k") == 1 and tracker.voters("k") == frozenset({5})

    def test_fires_exactly_once_and_late_votes_leave_the_count(self):
        tracker = QuorumTracker(2, members(1, 2, 3, 4))
        fired = [tracker.vote("k", voter) for voter in (1, 2, 3, 4, 2)]
        assert fired == [False, True, False, False, False]
        assert tracker.count("k") == 2 and tracker.reached("k")
        assert tracker.voters("k") == frozenset({1, 2})

    @pytest.mark.parametrize("pids", [(63, 64), (64, 300), (0, 63, 300)])
    def test_large_pids_are_distinct_bits(self, pids):
        tracker = QuorumTracker(len(pids), members(*pids))
        fired = [tracker.vote("k", pid) for pid in pids]
        assert fired[-1] and not any(fired[:-1])
        assert tracker.voters("k") == frozenset(pids)
        assert tracker.count("k") == len(pids)

    def test_cluster_member_bits_are_small(self):
        # A cluster of pids 300-303 tallies in four bits, not 304.
        cluster = byzantine_cluster(75)
        tracker = QuorumTracker(3, cluster.voter_bits)
        for pid in cluster.node_ids:
            tracker.vote("k", int(pid))
        assert tracker._votes["k"] == 0b111
        assert tracker.voters("k") == frozenset(int(pid) for pid in cluster.node_ids[:3])

    def test_drop_and_unknown_keys(self):
        tracker = QuorumTracker(2, members(7))
        for slot in (1, 2, 3):
            tracker.vote((0, slot, "d"), 7)
        tracker.drop(lambda key: key[1] <= 2)
        assert [tracker.count((0, slot, "d")) for slot in (1, 2, 3)] == [0, 0, 1]
        assert tracker.voters("never") == frozenset() and not tracker.reached("never")

    def test_non_members_are_refused_and_counted(self):
        tracker = QuorumTracker(2, members={0: 1, 1: 2, 2: 4})
        assert not tracker.vote("k", 3) and not tracker.vote("k", 64)
        assert tracker.count("k") == 0 and tracker.foreign_votes == 2
        assert not tracker.vote("k", 0) and tracker.vote("k", 2)


# ----------------------------------------------------------------------
# intra-shard engines: votes from another cluster's nodes
# ----------------------------------------------------------------------
def test_pbft_refuses_prepares_from_another_cluster():
    cluster = byzantine_cluster(0)
    engine = PBFTEngine(FakeHost(1, cluster))
    key = (0, 1, "d")
    for outsider in byzantine_cluster(1).node_ids[:2]:  # pids 4 and 5
        engine.handle(Prepare(view=0, slot=1, digest="d", node=outsider), src=int(outsider))
    assert engine._prepares.count(key) == 0  # 2 before membership was checked
    assert engine._prepares.foreign_votes == 2


def test_paxos_primary_refuses_accepted_from_another_cluster():
    host = FakeHost(0, crash_cluster(0))
    engine = PaxosEngine(host)
    engine.submit("item")
    outsider = crash_cluster(1).node_ids[0]
    engine.handle(PaxosAccepted(view=0, slot=1, digest=item_digest("item"), node=outsider),
                  src=int(outsider))
    assert host.log.decided_slot_of(item_digest("item")) is None
    assert engine._accepted.foreign_votes == 1


def test_view_change_refuses_a_validly_signed_vote_from_another_cluster():
    host = FakeHost(1, byzantine_cluster(0))
    engine = PBFTEngine(host)
    manager = engine.view_change
    outsider = NodeId(5)
    unsigned = ViewChange(new_view=1, node=outsider, decided=(), accepted=(), checkpoint=0)
    vote = replace(unsigned, signature=sign_view_change(unsigned))
    manager.handle_view_change(vote, src=int(outsider))
    assert manager.rejected_votes == 1
    assert manager._tracker.count(("vc", 1)) == 0 and not manager._reports


# ----------------------------------------------------------------------
# cross-shard engines and AHL's committee
# ----------------------------------------------------------------------
def build(fault_model, system="sharper"):
    tuning = ProtocolTuning(conflict_retry_delay=20e-3, max_conflict_retries=3)
    config = DeploymentSpec(
        system=system, fault_model=fault_model, num_clusters=2, tuning=tuning
    ).resolve(seed=11)
    workload = WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=ACCOUNTS)
    return (AHLSystem if system == "ahl" else SharPerSystem)(config, workload, seed=11)


def cross_request(system, index=0):
    """A transfer from shard 0 to shard 1."""
    transaction = Transaction.multi_transfer(
        client=system.owner_of(index),
        transfers=[Transfer(source=index, destination=ACCOUNTS + index, amount=1)],
        tx_id=f"foreign-{index}",
    )
    return ClientRequest(transaction=transaction, client=transaction.client, timestamp=0.0)


def byzantine_round(engine, request, *, accepts, commits, initiator_slot=1):
    """Propose from pid 0, then the given (src, cluster, slot / positions) votes."""
    digest = item_digest(request)
    engine.handle(CrossProposeB(digest, request, (C0, C1), C0, initiator_slot), src=0)
    for src, cluster, slot in accepts:
        engine.handle(CrossAcceptB(digest, cluster, NodeId(src), slot), src=src)
    for src, cluster, positions in commits:
        engine.handle(CrossCommitB(digest, cluster, NodeId(src), positions), src=src)
    return digest


def test_byzantine_cross_votes_count_only_for_the_senders_cluster():
    # Backup 1 of cluster 0 (pids 0-3; cluster 1 is 4-7, quorum 3 each).
    # Cluster 1 has two honest votes per phase; pid 3 (cluster 0) claims
    # to speak for cluster 1.  Before membership was checked this decided.
    system = build(FaultModel.BYZANTINE)
    engine = system.replicas[1].cross
    vector = ((C0, 1), (C1, 1))
    digest = byzantine_round(
        engine, cross_request(system),
        accepts=[(0, C0, 1), (2, C0, 1), (4, C1, 1), (5, C1, 1), (3, C1, 1)],
        commits=[(0, C0, vector), (2, C0, vector), (4, C1, vector), (5, C1, vector),
                 (3, C1, vector)],
    )
    state = engine._states[digest]
    assert not state.decided and not state.commit_sent
    assert system.replicas[1].log.decided_slot_of(digest) is None
    assert engine.foreign_votes == 2
    assert state.commit_votes[C1].bit_count() == 2


def test_crash_initiator_refuses_an_accept_from_outside_the_cluster():
    # Initiator 0 (cluster 0 = pids 0-2, cluster 1 = 3-5, quorum 2 each):
    # one real cluster-1 accept plus one from pid 2 claiming cluster 1.
    system = build(FaultModel.CRASH)
    engine = system.replicas[0].cross
    request = cross_request(system)
    digest = item_digest(request)
    engine.start(request)
    engine.handle(CrossAccept(digest, C0, NodeId(1), 1), src=1)
    engine.handle(CrossAccept(digest, C1, NodeId(3), 1), src=3)
    engine.handle(CrossAccept(digest, C1, NodeId(2), 1), src=2)
    assert not engine._states[digest].decided and engine.foreign_votes == 1
    assert system.replicas[0].log.decided_slot_of(digest) is None


def test_ahl_committee_refuses_a_vote_from_outside_the_cluster():
    system = build(FaultModel.CRASH, system="ahl")
    committee = system.committee_replicas[int(system.committee.primary)]
    request = cross_request(system)
    committee._on_client_request(request, src=-1)
    digest = item_digest(request)
    state = committee._states[digest]
    # pid 3 is cluster 1's primary; pid 0 (cluster 0) claims to be it.
    committee._on_vote(AHLVote(digest=digest, cluster=C1, vote=True), src=0)
    assert state.votes == set() and committee.foreign_votes == 1
    committee._on_vote(AHLVote(digest=digest, cluster=C1, vote=True), src=3)
    assert state.votes == {C1}


# ----------------------------------------------------------------------
# recorded, not fixed: a forged position vector in one early commit
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="commit quorums do not compare position vectors, and _on_commit adopts "
    "positions from any single commit (ROADMAP item 1 residue)",
)
def test_one_member_cannot_move_its_own_clusters_decision():
    # Cluster 0 agrees on slot 9.  Before anything else, its Byzantine
    # member 2 sends honest backup 1 a commit whose vector says 99.
    system = build(FaultModel.BYZANTINE)
    engine = system.replicas[1].cross
    request = cross_request(system)
    digest = item_digest(request)
    engine.handle(CrossCommitB(digest, C0, NodeId(2), ((C0, 99), (C1, 1))), src=2)
    honest = ((C0, 9), (C1, 1))
    byzantine_round(
        engine, request, initiator_slot=9,
        accepts=[(0, C0, 9), (3, C0, 9), (4, C1, 1), (5, C1, 1), (6, C1, 1)],
        commits=[(0, C0, honest), (3, C0, honest), (4, C1, honest), (5, C1, honest),
                 (6, C1, honest)],
    )
    assert engine._states[digest].decided
    assert system.replicas[1].log.decided_slot_of(digest) == 9
