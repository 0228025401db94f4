"""What a decided instance keeps: its log entry, and nothing in the cross-shard engines.

The benchmark's fault-free workloads run with checkpoints off, so
whatever a node keeps per decided instance it keeps for the whole run.
A Byzantine node's accept tally is released (replaced by an immutable
empty mapping) once its commit is sent.  The state object itself leaves
the engine once the log records the decision: the log's decided index
is the one record of "decided", and a late propose, accept or commit
for a decided digest finds it there and allocates nothing.  Two
states outlive their decision because something can still act on them:
a decision the log did not record (the client's retry re-runs the
instance through it) and a Byzantine node's own accept that is still
unsent (its primary's late accept makes it send one).  Intra-shard log
entries carry no position vector; state transfer still ships
``((cluster, slot),)`` for them.
"""

import tracemalloc
from types import MappingProxyType

import pytest

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.common.config import ProtocolTuning
from repro.common.crypto import digest
from repro.common.types import ClusterId, NodeId
from repro.consensus.log import EntryStatus, Noop, item_digest
from repro.consensus.messages import (
    ClientRequest,
    CrossAccept,
    CrossAcceptB,
    CrossCommitB,
    CrossProposeB,
)
from repro.core.system import SharPerSystem
from repro.recovery.messages import StateRequest
from repro.txn.transaction import Transaction, Transfer

ACCOUNTS = 64
C0, C1 = ClusterId(0), ClusterId(1)


def _scenario(fault_model, cross=0.8, clients=24, duration=0.15, verify=True, clusters=4):
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=fault_model, num_clusters=clusters, f=1
        ),
        workload=WorkloadConfig(cross_shard_fraction=cross, accounts_per_shard=128),
        clients=clients,
        duration=duration,
        warmup=0.03,
        seed=1,
        verify=verify,
    )


def _is_released(tally):
    return isinstance(tally, MappingProxyType) and len(tally) == 0


def _survives(replica, key, state):
    """The two reasons a decided state may stay: the log lacks it, or this node's accept is unsent."""
    return replica.log.decided_slot_of(key) is None or not getattr(state, "accept_sent", True)


def _log_rows(replica):
    return [(e.slot, e.digest, e.status) for e in replica.log.entries()]


# ----------------------------------------------------------------------
# a faultless run: decided instances leave the engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault_model", [FaultModel.BYZANTINE, FaultModel.CRASH])
def test_a_faultless_run_leaves_no_decided_state_but_the_survivors(fault_model):
    system = _scenario(fault_model, verify=False).run().system
    engines = [(replica, replica.cross) for replica in system.replicas.values()]
    assert sum(engine.committed for _, engine in engines) > 500
    undecided = []
    for replica, engine in engines:
        for key, state in engine._states.items():
            if state.decided:
                assert _survives(replica, key, state), key
            else:
                undecided.append(state)
    assert undecided  # the run is cut off with instances in flight
    if fault_model is FaultModel.BYZANTINE:
        # Accept tallies go once this node's commit is out; commit tallies still count.
        for state in undecided:
            assert isinstance(state.commit_votes, dict)
            assert _is_released(state.accept_votes) == state.commit_sent


def _late_byzantine_messages(replica, entry):
    """A late propose, own-primary accept and remote commit for a decided entry."""
    positions = entry.positions
    initiator = entry.proposer
    mine = replica.cluster_id
    remote = next(cluster for cluster in positions if cluster != mine)
    primary, remote_primary = replica.primary_pid_of(mine), replica.primary_pid_of(remote)
    vector = tuple(sorted(positions.items()))
    return {
        "propose": (
            CrossProposeB(entry.digest, entry.item, tuple(sorted(positions)), initiator,
                          positions[initiator]),
            replica.primary_pid_of(initiator),
        ),
        "accept": (CrossAcceptB(entry.digest, mine, NodeId(primary), positions[mine]), primary),
        "commit": (CrossCommitB(entry.digest, remote, NodeId(remote_primary), vector),
                   remote_primary),
    }


@pytest.mark.parametrize("kind", ["propose", "accept", "commit"])
def test_a_late_byzantine_message_for_a_decided_digest_allocates_nothing(kind):
    system = _scenario(FaultModel.BYZANTINE).run().system
    replica = system.replicas[1]  # a backup of cluster 0
    engine = replica.cross
    decided = [e for e in replica.log.entries() if e.positions is not None][:5]
    assert len(decided) == 5
    before = (system.network.messages_sent, _log_rows(replica), dict(engine._states))
    for entry in decided:
        message, src = _late_byzantine_messages(replica, entry)[kind]
        engine.handle(message, src=src)
        assert entry.digest not in engine._states
    assert (system.network.messages_sent, _log_rows(replica), engine._states) == before
    assert engine.host.journal.totals["malformed_vote"] == engine.host.journal.totals["foreign_vote"] == 0


def test_a_late_crash_accept_for_a_decided_digest_allocates_nothing():
    system = _scenario(FaultModel.CRASH).run().system
    initiator = system.replicas[int(system.config.cluster(C0).primary)]
    engine = initiator.cross
    mine = [e for e in initiator.log.entries() if e.positions and e.proposer == C0][:5]
    assert len(mine) == 5
    before = (system.network.messages_sent, _log_rows(initiator), dict(engine._states))
    for entry in mine:
        remote = next(cluster for cluster in entry.positions if cluster != C0)
        voter = initiator.primary_pid_of(remote)
        accept = CrossAccept(entry.digest, remote, NodeId(voter), entry.positions[remote])
        engine.handle(accept, src=voter)
        assert entry.digest not in engine._states
    assert (system.network.messages_sent, _log_rows(initiator), engine._states) == before


# ----------------------------------------------------------------------
# the two states that outlive their decision
# ----------------------------------------------------------------------
def _system(fault_model):
    tuning = ProtocolTuning(conflict_retry_delay=20e-3, max_conflict_retries=3)
    config = DeploymentSpec(
        system="sharper", fault_model=fault_model, num_clusters=2, tuning=tuning
    ).resolve(seed=11)
    workload = WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=ACCOUNTS)
    return SharPerSystem(config, workload, seed=11)


def _cross_request(system):
    """A transfer from shard 0 to shard 1."""
    transaction = Transaction.multi_transfer(
        client=system.owner_of(0),
        transfers=[Transfer(source=0, destination=ACCOUNTS, amount=1)],
        tx_id="late-0",
    )
    return ClientRequest(transaction=transaction, client=transaction.client, timestamp=0.0)


def _byzantine_commits(engine, key, vector, pids):
    for pid in pids:
        cluster = C0 if pid < 4 else C1  # cluster 0 is pids 0-3, cluster 1 is 4-7
        engine.handle(CrossCommitB(key, cluster, NodeId(pid), vector), src=pid)


@pytest.mark.parametrize("fault_model", [FaultModel.BYZANTINE, FaultModel.CRASH])
def test_a_decision_the_log_did_not_record_keeps_its_state(fault_model):
    # A view change no-op filled slot 1 before the commit for it arrived:
    # the late commit is dropped and counted, and the state stays for the
    # client's retry.
    system = _system(fault_model)
    request = _cross_request(system)
    key = item_digest(request)
    noop = Noop(reason="view-change fill")
    if fault_model is FaultModel.BYZANTINE:
        replica = system.replicas[1]  # a backup of cluster 0 (pids 0-3)
        engine = replica.cross
        replica.log.decide(1, item_digest(noop), noop)
        engine.handle(CrossProposeB(key, request, (C0, C1), C0, 1), src=0)
        _byzantine_commits(engine, key, ((C0, 1), (C1, 1)), (0, 2, 3, 4, 5, 6))
    else:
        replica = system.replicas[0]  # cluster 0's primary (pids 0-2; cluster 1 is 3-5)
        engine = replica.cross
        engine.start(request)
        replica.log.decide(1, item_digest(noop), noop)
        for pid, cluster, slot in ((1, C0, None), (3, C1, 1), (4, C1, None)):
            engine.handle(CrossAccept(key, cluster, NodeId(pid), slot), src=pid)
    assert engine.committed == engine.late_commits == 1
    assert replica.log.decided_slot_of(key) is None and replica.log.entry(1).is_noop
    state = engine._states[key]
    assert state.decided and state.request is request


def test_a_byzantine_decision_before_this_nodes_own_accept_keeps_its_state_until_sent():
    # Backup 5 of cluster 1 learns its cluster's slot from its primary's
    # accept.  Here every commit outruns that accept: the node decides
    # without having voted, and the primary's late accept still makes it
    # send its own.
    system = _system(FaultModel.BYZANTINE)
    replica = system.replicas[5]
    engine = replica.cross
    request = _cross_request(system)
    key = item_digest(request)
    engine.handle(CrossProposeB(key, request, (C0, C1), C0, 1), src=0)
    _byzantine_commits(engine, key, ((C0, 1), (C1, 1)), (0, 1, 2, 4, 6, 7))
    assert replica.log.decided_slot_of(key) == 1
    state = engine._states[key]
    assert state.decided and not state.accept_sent
    sent = []
    replica.multicast = lambda destinations, message: sent.append(message)
    engine.handle(CrossAcceptB(key, C1, NodeId(4), 1), src=4)
    [accept] = sent
    assert (type(accept), accept.node, accept.slot) == (CrossAcceptB, 5, 1)
    assert key not in engine._states  # the accept was all it still owed
    engine.handle(CrossAcceptB(key, C1, NodeId(4), 1), src=4)
    assert len(sent) == 1 and key not in engine._states


def test_a_decision_reached_inside_this_nodes_own_accept_leaves_no_state():
    # Every commit outruns the propose at backup 1 of cluster 0: once the
    # propose arrives, its own accept confirms the last slot, its commit
    # completes the last quorum and the instance decides inside the accept.
    system = _system(FaultModel.BYZANTINE)
    replica = system.replicas[1]
    engine = replica.cross
    request = _cross_request(system)
    key = item_digest(request)
    _byzantine_commits(engine, key, ((C0, 1), (C1, 1)), (0, 2, 3, 4, 5, 6))
    assert not engine._states[key].decided  # the request is still unknown
    sent = []
    replica.multicast = lambda destinations, message: sent.append(message)
    engine.handle(CrossProposeB(key, request, (C0, C1), C0, 1), src=0)
    assert [type(message) for message in sent] == [CrossAcceptB, CrossCommitB]
    assert replica.log.decided_slot_of(key) == 1 and key not in engine._states


# ----------------------------------------------------------------------
# what it costs
# ----------------------------------------------------------------------
def test_live_cross_shard_bytes_per_decided_instance_stay_under_64():
    # ~2 KiB per (instance, replica) when vote sets lived until the next
    # checkpoint, ~0.35 KiB while each decided state stayed as a
    # tombstone; what is left is the slot assignment a primary made.
    tracemalloc.start()
    try:
        system = _scenario(FaultModel.BYZANTINE).run().system
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, "*core/cross_shard.py")])
    live = sum(stat.size for stat in mine.statistics("filename"))
    decided = sum(replica.cross.committed for replica in system.replicas.values())
    assert decided > 1000
    assert live / decided <= 64, f"{live / decided:.0f} bytes per decided (instance, replica)"


#: ``digest`` of a cluster-0 replica's ``StateResponse.entries`` after
#: the scenario below, recorded when intra entries still stored
#: ``{cluster: slot}``: the wire format must not notice they no longer do.
STATE_RESPONSE_PINNED = {
    FaultModel.CRASH: "2ab96279390ddedd74bee94b33946cb43dd0a6fff28d13f06cfe07eab1850d05",
    FaultModel.BYZANTINE: "a6a5932aabf8291a6b09a37d9ea1abea86c90c6fb01885cc829e8a7622976b02",
}


@pytest.mark.parametrize("fault_model", sorted(STATE_RESPONSE_PINNED, key=repr))
def test_state_response_entries_are_byte_identical_for_intra_slots(fault_model):
    system = _scenario(fault_model, cross=0.2, clients=8, duration=0.06, clusters=2).run().system
    replica = system.replicas[1]
    sent = []
    replica.send = lambda dst, message: sent.append(message)
    replica.state_transfer.handle(StateRequest(node=0, have_seq=0), src=0)
    [response] = sent
    decided = [e for e in replica.log.entries() if e.status is not EntryStatus.PENDING]
    assert len(response.entries) == len(decided)
    intra = [e for e in decided if e.positions is None]
    assert intra and len(intra) < len(decided)
    shipped = {slot: positions for slot, _, _, positions, _, _ in response.entries}
    assert all(shipped[e.slot] == ((replica.cluster_id, e.slot),) for e in intra)
    assert digest(response.entries) == STATE_RESPONSE_PINNED[fault_model]
