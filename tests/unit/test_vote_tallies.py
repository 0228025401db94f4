"""Vote tallies as voter bitmasks, and who may vote for a cluster.

Every "distinct voters per key" tally is one int: the OR of the voters'
bits, each member's bit being its index in its cluster
(``ClusterConfig.voter_bits``).  These tests pin :class:`~repro.consensus.base.QuorumTracker`'s
contract on that representation, then check the rule every tally now
applies first: a vote counts only if its sender is a member of the
cluster it speaks for.  Each refusal below is a vote that counted before
membership was checked (cross-shard accepts and commits, PBFT prepares,
Paxos accepted, view-change votes, AHL's committee votes, checkpoint
votes, state-transfer snapshots, entries and view claims, termination
replies from outside the involved clusters).  A Byzantine
cross-shard vote whose slot or position vector is not well formed is
refused, a journal row, before it touches any state.  The last test records a
hole that is still open: a forged position vector in one early commit.
"""

from dataclasses import replace

import pytest

from repro.api import DeploymentSpec
from repro.baselines.ahl import AHLSystem, AHLVote
from repro.common.config import ProtocolTuning
from repro.common.types import ClusterId, FaultModel, NodeId
from repro.consensus.base import QuorumTracker, attested
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
from repro.core.client import CLIENT_PID_BASE
from repro.core.system import SharPerSystem
from repro.recovery import checkpoint_digest
from repro.recovery.messages import Checkpoint, StateRequest, StateResponse, TerminationReply
from repro.txn.transaction import Transaction, Transfer
from repro.txn.workload import WorkloadConfig

from helpers import FakeHost, byzantine_cluster, crash_cluster, journal

ACCOUNTS = 64
C0, C1 = ClusterId(0), ClusterId(1)


def members(*pids):
    """A member map as ``ClusterConfig.voter_bits`` builds it: pid -> 1 << index."""
    return {pid: 1 << index for index, pid in enumerate(pids)}


class TestQuorumTrackerContract:
    def test_duplicate_voter_counts_once(self):
        tracker = QuorumTracker(3, members(4, 5, 6, 7), journal())
        assert not tracker.vote("k", 5)
        assert not tracker.vote("k", 5)
        assert tracker.count("k") == 1 and tracker.voters("k") == frozenset({5})

    def test_fires_exactly_once_and_late_votes_leave_the_count(self):
        tracker = QuorumTracker(2, members(1, 2, 3, 4), journal())
        fired = [tracker.vote("k", voter) for voter in (1, 2, 3, 4, 2)]
        assert fired == [False, True, False, False, False]
        assert tracker.count("k") == 2 and tracker.reached("k")
        assert tracker.voters("k") == frozenset({1, 2})

    @pytest.mark.parametrize("pids", [(63, 64), (64, 300), (0, 63, 300)])
    def test_large_pids_are_distinct_bits(self, pids):
        tracker = QuorumTracker(len(pids), members(*pids), journal())
        fired = [tracker.vote("k", pid) for pid in pids]
        assert fired[-1] and not any(fired[:-1])
        assert tracker.voters("k") == frozenset(pids)
        assert tracker.count("k") == len(pids)

    def test_cluster_member_bits_are_small(self):
        # A cluster of pids 300-303 tallies in four bits, not 304.
        cluster = byzantine_cluster(75)
        tracker = QuorumTracker(3, cluster.voter_bits, journal())
        for pid in cluster.node_ids:
            tracker.vote("k", int(pid))
        assert tracker._votes["k"] == 0b111
        assert tracker.voters("k") == frozenset(int(pid) for pid in cluster.node_ids[:3])

    def test_drop_and_unknown_keys(self):
        tracker = QuorumTracker(2, members(7), journal())
        for slot in (1, 2, 3):
            tracker.vote((0, slot, "d"), 7)
        tracker.drop(lambda key: key[1] <= 2)
        assert [tracker.count((0, slot, "d")) for slot in (1, 2, 3)] == [0, 0, 1]
        assert tracker.voters("never") == frozenset() and not tracker.reached("never")

    def test_non_members_are_refused_and_counted(self):
        tracker = QuorumTracker(2, {0: 1, 1: 2, 2: 4}, journal())
        assert not tracker.vote("k", 3) and not tracker.vote("k", 64)
        assert tracker.count("k") == 0 and tracker.journal.totals["foreign_vote"] == 2
        assert not tracker.vote("k", 0) and tracker.vote("k", 2)


@pytest.mark.parametrize(
    "claims, k, expected",
    [
        ((), 1, 0),
        ((5,), 1, 5),
        ((5,), 2, 0),        # fewer claims than k attest nothing
        ((99, 2), 2, 2),     # one inflated claim cannot raise the floor
        ((3, 3, 1), 2, 3),
        ((1, 7, 4, 9), 3, 4),
        ((0, 0, 0), 3, 0),
    ],
)
def test_attested_is_the_kth_largest_claim(claims, k, expected):
    assert attested(claims, k) == expected
    assert attested(iter(claims), k) == expected


# ----------------------------------------------------------------------
# intra-shard engines: votes from another cluster's nodes
# ----------------------------------------------------------------------
def test_pbft_refuses_prepares_from_another_cluster():
    cluster = byzantine_cluster(0)
    engine = PBFTEngine(FakeHost(1, cluster))
    key = (0, 1, "d")
    for outsider in byzantine_cluster(1).node_ids[:2]:  # pids 4 and 5
        engine.handle(Prepare(view=0, slot=1, digest="d", node=outsider), src=int(outsider))
    assert engine._votes.count(key) == 0  # 2 before membership was checked
    assert engine.host.journal.totals["foreign_vote"] == 2


def test_paxos_primary_refuses_accepted_from_another_cluster():
    host = FakeHost(0, crash_cluster(0))
    engine = PaxosEngine(host)
    engine.submit("item")
    outsider = crash_cluster(1).node_ids[0]
    engine.handle(PaxosAccepted(view=0, slot=1, digest=item_digest("item"), node=outsider),
                  src=int(outsider))
    assert host.log.decided_slot_of(item_digest("item")) is None
    assert engine.host.journal.totals["foreign_vote"] == 1


def test_view_change_refuses_a_validly_signed_vote_from_another_cluster():
    host = FakeHost(1, byzantine_cluster(0))
    engine = PBFTEngine(host)
    manager = engine.view_change
    outsider = NodeId(5)
    unsigned = ViewChange(new_view=1, node=outsider, decided=(), accepted=(), checkpoint=0)
    vote = replace(unsigned, signature=sign_view_change(unsigned))
    manager.handle_view_change(vote, src=int(outsider))
    assert host.journal.totals["view_change_vote_rejected"] == 1
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
    assert engine.host.journal.totals["foreign_vote"] == 2
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
    assert not engine._states[digest].decided and engine.host.journal.totals["foreign_vote"] == 1
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
    assert state.votes == set() and committee.journal.totals["foreign_vote"] == 1
    committee._on_vote(AHLVote(digest=digest, cluster=C1, vote=True), src=3)
    assert state.votes == {C1}


# ----------------------------------------------------------------------
# recovery: checkpoints, state transfer and termination rounds
# ----------------------------------------------------------------------
def four_clusters(checkpoint_interval=0):
    """A Byzantine deployment of clusters 0-3 (pids 0-3, 4-7, 8-11, 12-15)."""
    config = DeploymentSpec(
        system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=4,
        checkpoint_interval=checkpoint_interval,
    ).resolve(seed=11)
    workload = WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=ACCOUNTS)
    return SharPerSystem(config, workload, seed=11)


def test_foreign_checkpoint_votes_neither_stabilise_nor_trigger_catch_up():
    # Node 0 took checkpoint 8; nodes 4, 8 and 12 (no member of cluster 0)
    # match it.  With node 0's own vote that was a 2f + 1 = 3 quorum.
    replica = four_clusters(checkpoint_interval=8).replicas[0]
    checkpoints = replica.checkpoints
    checkpoints.take(8)
    digest = checkpoints._records[8].digest
    for src in (4, 8, 12):
        checkpoints.handle(Checkpoint(seq=8, digest=digest, node=NodeId(src)), src=src)
    assert checkpoints.stable is None and checkpoints.stabilized == 0
    assert checkpoints._votes.count((8, digest)) == 1
    # A foreign checkpoint a full interval ahead starts no state transfer.
    checkpoints.handle(Checkpoint(seq=40, digest="d", node=NodeId(4)), src=4)
    totals = replica.journal.totals
    assert totals["state_transfer_requested"] == 0 and totals["foreign_vote"] == 4


def test_a_foreign_forged_snapshot_is_not_installed():
    # Nodes 4 and 8 answer node 0's round with the same self-consistent
    # forged snapshot: its digest is recomputed over a +1,000,000 balance.
    replica = four_clusters().replicas[0]
    transfer, store = replica.state_transfer, replica.store
    transfer.request_catch_up()
    forged = dict(store.snapshot())
    forged[0] += 1_000_000
    anchor = replica.chain.head
    digest = checkpoint_digest(8, anchor.block_hash, store.snapshot_digest(forged))
    before = store.total_balance()
    for src in (4, 8):
        transfer.handle(StateResponse(
            checkpoint_seq=8, checkpoint_digest=digest, node=NodeId(src), view=0,
            anchor=anchor, snapshot=forged, tx_index=(), entries=(),
        ), src=src)
    totals = replica.journal.totals
    assert (totals["snapshot_installed"], totals["foreign_vote"]) == (0, 2)
    assert store.total_balance() == before and replica.log.next_apply == 1


def test_a_foreign_view_claim_does_not_move_a_joiner():
    # Quorum f + 1 = 2: one member's claim of view 3 plus node 4's is one short.
    replica = four_clusters().replicas[1]
    transfer = replica.state_transfer
    transfer.request_catch_up()
    for src in (2, 4):
        transfer.handle(StateResponse(
            checkpoint_seq=0, checkpoint_digest="", node=NodeId(src), view=3,
            anchor=None, snapshot=None, tx_index=(), entries=(),
        ), src=src)
    assert replica.intra.view == 0 and transfer._view_claims == {2: 3}
    assert replica.journal.totals["foreign_vote"] == 1


@pytest.mark.parametrize("src", [4, CLIENT_PID_BASE])
def test_state_requests_are_answered_for_members_only(src):
    # Any pid used to draw every decided entry above the have_seq it named.
    replica = four_clusters().replicas[1]
    sent = []
    replica.send = lambda dst, message: sent.append((dst, message))
    replica.state_transfer.handle(StateRequest(node=NodeId(src), have_seq=0), src=src)
    assert sent == [] and replica.journal.totals["state_request_refused"] == 1
    replica.state_transfer.handle(StateRequest(node=NodeId(0), have_seq=0), src=0)
    assert [(dst, type(message)) for dst, message in sent] == [(0, StateResponse)]


def test_termination_counts_only_the_involved_clusters():
    # Node 0 terminates a 0<->1 instance; nodes 8 and 12 (clusters 2 and 3)
    # report it decided with a forged vector.  f + 1 = 2 replies used to decide slot 5.
    system = four_clusters()
    replica = system.replicas[0]
    request = cross_request(system)
    digest = item_digest(request)
    replica.terminator.begin(5, request, view=1)
    reply = TerminationReply(
        digest=digest, decided=True, slot=5, positions=((C0, 5), (C1, 77)),
        proposer=C0, item=request, node=NodeId(8),
    )
    for src in (8, 12):
        replica.terminator.handle(replace(reply, node=NodeId(src)), src=src)
    state = replica.terminator._states[digest]
    assert not state.resolved and state.evidence == {}
    assert replica.log.decided_slot_of(digest) is None
    assert replica.journal.totals["foreign_vote"] == 2
    # One node of each involved cluster is f + 1 over their union (a recorded residue).
    for src in (1, 4):
        replica.terminator.handle(replace(reply, node=NodeId(src)), src=src)
    assert replica.log.decided_slot_of(digest) == 5 and state.evidence[reply.positions].node == 1


# ----------------------------------------------------------------------
# a malformed vote is refused and journaled, never raised or adopted
# ----------------------------------------------------------------------
MALFORMED = {
    "pair-too-short": CrossCommitB("d", C0, NodeId(2), ((C0,),)),
    "pair-too-long": CrossCommitB("d", C0, NodeId(2), ((C0, 9, 1),)),
    "no-vector": CrossCommitB("d", C0, NodeId(2), None),
    "slot-not-int": CrossCommitB("d", C0, NodeId(2), ((C0, "x"), (C1, 1))),
    "accept-slot-not-int": CrossAcceptB("d", C0, NodeId(2), "x"),
    "cluster-twice": CrossCommitB("d", C0, NodeId(2), ((C0, 9), (C0, 10))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_byzantine_vote_is_refused_before_any_state(name):
    # Unchecked, every case but ``cluster-twice`` raises out of ``handle``
    # and aborts the run; ``cluster-twice`` is adopted as ``involved == (0, 0)``.
    system = build(FaultModel.BYZANTINE)
    replica = system.replicas[1]
    engine = replica.cross
    sent = []
    replica.multicast = lambda destinations, message: sent.append(message)
    replica.send = lambda dst, message: sent.append(message)
    engine.handle(MALFORMED[name], src=2)
    assert replica.journal.totals == {"malformed_vote": 1}
    assert engine._states == {} and sent == []
    assert list(replica.log.entries()) == [] and replica.log.next_slot == 1


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
    assert system.replicas[1].log.decided_slot_of(digest) is not None
    assert system.replicas[1].log.decided_slot_of(digest) == 9
