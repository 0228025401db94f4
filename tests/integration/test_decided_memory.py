"""What a decided instance keeps: tallies released at decision, not at the next checkpoint.

The benchmark's fault-free workloads run with checkpoints off, so before
this contract a node kept every cross-shard instance's vote sets for the
whole run.  Now each tally goes at its last read — a Byzantine node's
accept tallies when its commit is sent, commit tallies and the
``unconfirmed`` / ``uncommitted`` sets at decision, a crash initiator's
votes at commit — and is replaced by an immutable empty object, so a
write after release raises instead of silently sharing state.  What
stays is the tombstone (``decided``, ``confirmed_slots``, ``request``)
that makes late votes no-ops.  Intra-shard log entries carry no position
vector; state transfer still ships ``((cluster, slot),)`` for them.
"""

import tracemalloc
from types import MappingProxyType

import pytest

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.common.crypto import digest
from repro.consensus.log import EntryStatus
from repro.consensus.messages import CrossAcceptB, CrossCommitB
from repro.recovery.messages import StateRequest


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


def _states(system):
    return [state for node in system.replicas.values() for state in node.cross._states.values()]


def _is_released(tally):
    return isinstance(tally, (MappingProxyType, frozenset)) and len(tally) == 0


def test_byzantine_states_release_their_tallies_at_decision():
    system = _scenario(FaultModel.BYZANTINE, verify=False).run().system
    states = _states(system)
    decided = [state for state in states if state.decided]
    undecided = [state for state in states if not state.decided]
    assert decided and undecided  # the run is cut off with instances in flight
    for state in decided:
        tallies = (state.accept_votes, state.commit_votes, state.unconfirmed, state.uncommitted)
        assert all(_is_released(tally) for tally in tallies)
        assert state.request is not None and state.confirmed_slots
    # Accept tallies go once this node's commit is out; commit tallies still count.
    for state in undecided:
        assert isinstance(state.commit_votes, dict)
        assert _is_released(state.accept_votes) == state.commit_sent
    # A write after release raises instead of landing in shared state.
    with pytest.raises(TypeError):
        decided[0].commit_votes[0] = 1
    with pytest.raises(AttributeError):
        decided[0].uncommitted.discard(0)


def test_a_late_vote_for_a_decided_instance_is_a_no_op():
    system = _scenario(FaultModel.BYZANTINE).run().system
    replica = system.replicas[1]
    key, state = next((key, state) for key, state in replica.cross._states.items() if state.decided)
    vector = tuple(sorted(state.confirmed_slots.items()))
    before = (system.network.messages_sent, replica.log.decided_slot_of(key))
    for peer in (0, 2, 3):  # members of cluster 0, like replica 1
        replica.cross.handle(CrossAcceptB(key, replica.cluster_id, peer, 1), src=peer)
        replica.cross.handle(CrossCommitB(key, replica.cluster_id, peer, vector), src=peer)
    assert (system.network.messages_sent, replica.log.decided_slot_of(key)) == before
    assert _is_released(state.accept_votes) and _is_released(state.commit_votes)


def test_crash_initiators_release_votes_at_commit():
    system = _scenario(FaultModel.CRASH).run().system
    committed = [state for state in _states(system) if state.decided]
    assert committed
    assert all(_is_released(state.votes) and _is_released(state.waiting) for state in committed)


def test_live_cross_shard_bytes_per_decided_instance_stay_under_a_kilobyte():
    # ~2 KiB per (instance, replica) when vote sets lived until the next
    # checkpoint; ~0.35 KiB (the state, its confirmed slots, the slot
    # assignment) now.  The bound leaves room for 3.10-3.12 size drift.
    tracemalloc.start()
    try:
        system = _scenario(FaultModel.BYZANTINE).run().system
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, "*core/cross_shard.py")])
    live = sum(stat.size for stat in mine.statistics("filename"))
    decided = sum(1 for state in _states(system) if state.decided)
    assert decided > 1000
    assert live / decided <= 1024, f"{live / decided:.0f} bytes per decided (instance, replica)"


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
    replica.send_to = lambda dst, message: sent.append(message)
    replica.state_transfer.handle(StateRequest(node=0, have_seq=0), src=0)
    [response] = sent
    decided = [e for e in replica.log.entries() if e.status is not EntryStatus.PENDING]
    assert len(response.entries) == len(decided)
    intra = [e for e in decided if e.positions is None]
    assert intra and len(intra) < len(decided)
    shipped = {slot: positions for slot, _, _, positions, _, _ in response.entries}
    assert all(shipped[e.slot] == ((replica.cluster_id, e.slot),) for e in intra)
    assert digest(response.entries) == STATE_RESPONSE_PINNED[fault_model]
