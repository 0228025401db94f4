"""Unit tests for the intra-shard consensus engines, driven without a network.

A :class:`helpers.FakeHost` captures outgoing messages so the tests can
hand-deliver them between engine instances and inspect the protocol flow
message by message.
"""

import pytest

from repro.consensus.log import EntryStatus, item_digest
from repro.consensus.messages import (
    PaxosAccept,
    PaxosAccepted,
    PaxosCommit,
    PBFTCommit,
    Prepare,
    PrePrepare,
)
from repro.consensus.paxos import PaxosEngine
from repro.consensus.pbft import PBFTEngine

from helpers import FakeHost, byzantine_cluster, crash_cluster, simple_transfer


def make_paxos_cluster():
    cluster = crash_cluster()
    hosts = {node: FakeHost(node, cluster) for node in cluster.node_ids}
    engines = {node: PaxosEngine(hosts[node]) for node in cluster.node_ids}
    return cluster, hosts, engines


def make_pbft_cluster():
    cluster = byzantine_cluster()
    hosts = {node: FakeHost(node, cluster) for node in cluster.node_ids}
    engines = {node: PBFTEngine(hosts[node]) for node in cluster.node_ids}
    return cluster, hosts, engines


class TestPaxosNormalCase:
    def test_only_primary_submits(self):
        cluster, hosts, engines = make_paxos_cluster()
        assert engines[0].is_primary
        assert engines[1].submit(simple_transfer()) is None
        assert engines[0].submit(simple_transfer()) == 1

    def test_full_round_decides_everywhere(self):
        cluster, hosts, engines = make_paxos_cluster()
        tx = simple_transfer()
        engines[0].submit(tx)
        [accept] = hosts[0].messages_of_type(PaxosAccept)
        # Backups accept and answer the primary.
        for backup in (1, 2):
            engines[backup].handle(accept, src=0)
            [accepted] = hosts[backup].messages_of_type(PaxosAccepted)
            engines[0].handle(accepted, src=backup)
        # The primary decided after the first accepted (f + 1 with itself).
        assert hosts[0].log.decided_slot_of(item_digest(tx)) == 1
        [commit] = hosts[0].messages_of_type(PaxosCommit)
        for backup in (1, 2):
            engines[backup].handle(commit, src=0)
            assert hosts[backup].log.decided_slot_of(item_digest(tx)) == 1

    def test_accept_from_non_primary_ignored(self):
        cluster, hosts, engines = make_paxos_cluster()
        tx = simple_transfer()
        accept = PaxosAccept(view=0, slot=1, digest=item_digest(tx), item=tx)
        engines[1].handle(accept, src=2)  # node 2 is not the primary of view 0
        assert hosts[1].log.entry(1) is None

    def test_pipelining_multiple_slots(self):
        cluster, hosts, engines = make_paxos_cluster()
        txs = [simple_transfer(i, i + 1) for i in range(1, 6)]
        for tx in txs:
            engines[0].submit(tx)
        accepts = hosts[0].messages_of_type(PaxosAccept)
        assert [accept.slot for accept in accepts] == [1, 2, 3, 4, 5]


class TestPBFTNormalCase:
    def test_three_phase_commit(self):
        cluster, hosts, engines = make_pbft_cluster()
        tx = simple_transfer()
        engines[0].submit(tx)
        [pre_prepare] = hosts[0].messages_of_type(PrePrepare)
        # Backups prepare.
        for backup in (1, 2, 3):
            engines[backup].handle(pre_prepare, src=0)
        prepares = {node: hosts[node].messages_of_type(Prepare) for node in (1, 2, 3)}
        assert all(len(messages) == 1 for messages in prepares.values())
        # Deliver every prepare to every engine.
        for sender, messages in prepares.items():
            for node, engine in engines.items():
                if node != sender:
                    engine.handle(messages[0], src=sender)
        # All replicas reach the commit phase.
        commits = {node: hosts[node].messages_of_type(PBFTCommit) for node in engines}
        assert all(len(messages) == 1 for messages in commits.values())
        for sender, messages in commits.items():
            for node, engine in engines.items():
                if node != sender:
                    engine.handle(messages[0], src=sender)
        for node, host in hosts.items():
            assert host.log.decided_slot_of(item_digest(tx)) == 1
            assert host.decide_notifications >= 1

    def test_pre_prepare_from_impostor_ignored(self):
        cluster, hosts, engines = make_pbft_cluster()
        tx = simple_transfer()
        fake = PrePrepare(view=0, slot=1, digest=item_digest(tx), item=tx)
        engines[1].handle(fake, src=3)
        assert hosts[1].log.entry(1) is None

    def test_quorum_requires_2f_plus_1(self):
        cluster, hosts, engines = make_pbft_cluster()
        tx = simple_transfer()
        engines[0].submit(tx)
        [pre_prepare] = hosts[0].messages_of_type(PrePrepare)
        engines[1].handle(pre_prepare, src=0)
        # Only one prepare delivered to node 1: not enough for the commit phase.
        engines[1].handle(Prepare(view=0, slot=1, digest=item_digest(tx), node=2), src=2)
        assert hosts[1].log.decided_slot_of(item_digest(tx)) is None


def proposal(model, tx, slot=1):
    message = PaxosAccept if model == "crash" else PrePrepare
    return message(view=0, slot=slot, digest=item_digest(tx), item=tx)


def make_cluster(model):
    return make_paxos_cluster() if model == "crash" else make_pbft_cluster()


@pytest.mark.parametrize("model", ["crash", "byzantine"])
class TestPendingConflictMeansNoVote:
    """Both models route a backup's proposal through ``log.try_record_pending``."""

    votes = {"crash": PaxosAccepted, "byzantine": Prepare}

    def test_conflicting_digest_at_an_occupied_slot_casts_no_vote(self, model):
        cluster, hosts, engines = make_cluster(model)
        first, second = simple_transfer(1, 2), simple_transfer(3, 4)
        engines[1].handle(proposal(model, first), src=0)
        assert len(hosts[1].messages_of_type(self.votes[model])) == 1
        hosts[1].sent.clear()
        engines[1].handle(proposal(model, second), src=0)
        assert hosts[1].sent == []
        assert hosts[1].log.entry(1).digest == item_digest(first)

    def test_any_other_failure_inside_the_log_propagates(self, model):
        """Only ``ConsensusError`` means "conflict"; a bug in the log is not a vote withheld."""
        cluster, hosts, engines = make_cluster(model)

        def broken(*args, **kwargs):
            raise RuntimeError("log bug")

        hosts[1].log.record_pending = broken
        with pytest.raises(RuntimeError, match="log bug"):
            engines[1].handle(proposal(model, simple_transfer()), src=0)
        assert hosts[1].sent == []
