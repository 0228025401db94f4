"""Cross-shard termination rounds (repro.recovery.CrossShardTerminator).

Reconstructs the residual atomicity window deterministically: a
cross-shard commit quorum forms in a remote involved cluster just before
the local cluster's view change, so the new local primary sees only a
*pending* slot.  The termination round must adopt the remote decision
(instead of racing it with a no-op fill), and must no-op-fill only when
no decision evidence exists anywhere.
"""

from repro.api import DeploymentSpec
from repro.common.types import ClusterId, FaultModel
from repro.consensus.log import EntryStatus, item_digest
from repro.consensus.messages import ClientRequest
from repro.core.system import SharPerSystem
from repro.txn.transaction import Transaction
from repro.txn.workload import WorkloadConfig


def build_system(fault_model=FaultModel.BYZANTINE):
    config = DeploymentSpec(
        system="sharper", fault_model=fault_model, num_clusters=2
    ).resolve(seed=9)
    workload = WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=64)
    return SharPerSystem(config, workload, seed=9)


def cross_request(system) -> ClientRequest:
    # Accounts 0 (shard 0) and 64 (shard 1) under accounts_per_shard=64.
    transaction = Transaction.transfer(
        client=system.owner_of(0), source=0, destination=64, amount=1
    )
    return ClientRequest(transaction=transaction, client=transaction.client, timestamp=0.0)


class TestTerminationAdoption:
    def test_new_primary_adopts_remote_commit_quorum(self):
        system = build_system()
        request = cross_request(system)
        digest = item_digest(request)
        positions = {ClusterId(0): 1, ClusterId(1): 1}

        # The commit quorum landed everywhere in cluster 1 ...
        for replica in system.replicas_of(ClusterId(1)):
            replica.log.decide(
                1, digest, request, positions=positions, proposer=ClusterId(0)
            )
            replica.after_decide()
        # ... but cluster 0 only ever accepted the proposal.
        for replica in system.replicas_of(ClusterId(0)):
            replica.log.record_pending(1, digest, request, proposer=ClusterId(0))

        primary = system.replicas_of(ClusterId(0))[0]
        primary.terminator.begin(1, request, view=0)
        system.sim.run(until=0.5)

        for replica in system.replicas_of(ClusterId(0)):
            entry = replica.log.entry(1)
            assert entry is not None and entry.status is EntryStatus.APPLIED
            assert entry.positions == positions
            assert replica.chain.contains_tx(request.transaction.tx_id)
        assert primary.journal.totals["termination_adopted"] == 1
        assert primary.journal.totals["termination_noop"] == 0
        # The adopted decision is the same block cluster 1 committed.
        block_0 = system.replicas_of(ClusterId(0))[0].chain.block_at(1)
        block_1 = system.replicas_of(ClusterId(1))[0].chain.block_at(1)
        assert block_0.block_hash == block_1.block_hash
        report = system.safety_audit()
        assert report.ok, report.problems

    def test_crash_model_adopts_from_a_single_reply(self):
        system = build_system(FaultModel.CRASH)
        request = cross_request(system)
        digest = item_digest(request)
        positions = {ClusterId(0): 1, ClusterId(1): 1}
        for replica in system.replicas_of(ClusterId(1)):
            replica.log.decide(
                1, digest, request, positions=positions, proposer=ClusterId(0)
            )
            replica.after_decide()
        primary = system.replicas_of(ClusterId(0))[0]
        primary.log.record_pending(1, digest, request, proposer=ClusterId(0))
        primary.terminator.begin(1, request, view=0)
        system.sim.run(until=0.5)
        assert primary.journal.totals["termination_adopted"] == 1
        entry = primary.log.entry(1)
        assert entry is not None and entry.positions == positions


class TestTerminationAfterCompaction:
    def test_adopts_a_decision_already_checkpointed_away(self):
        """Helpers answer from the ledger once the log entry is compacted.

        The remote cluster decided, applied, and garbage-collected the
        instance (its digest index no longer knows it); the retained
        block's position vector and the transaction index must still
        terminate the asking primary's slot with the real decision, not
        a no-op.
        """
        system = build_system()
        request = cross_request(system)
        digest = item_digest(request)
        positions = {ClusterId(0): 1, ClusterId(1): 1}
        for replica in system.replicas_of(ClusterId(1)):
            replica.log.decide(
                1, digest, request, positions=positions, proposer=ClusterId(0)
            )
            replica.after_decide()
            replica.log.truncate(1)
            assert replica.log.decided_slot_of(digest) is None
        primary = system.replicas_of(ClusterId(0))[0]
        primary.log.record_pending(1, digest, request, proposer=ClusterId(0))
        primary.terminator.begin(1, request, view=0)
        system.sim.run(until=0.5)
        assert primary.journal.totals["termination_adopted"] == 1
        assert primary.journal.totals["termination_noop"] == 0
        entry = primary.log.entry(1)
        assert entry is not None and entry.positions == positions
        assert primary.chain.contains_tx(request.transaction.tx_id)


class TestTerminationNoopFill:
    def test_no_evidence_falls_back_to_noop_fill(self):
        system = build_system()
        request = cross_request(system)
        digest = item_digest(request)
        # Nobody decided: the instance died with the old primary, and
        # the cluster has since installed view 1 (as the real flow does
        # before the terminator runs — the no-op must supersede the
        # stale pending digest, which only a higher view may do).
        for replica in system.replicas_of(ClusterId(0)):
            replica.log.record_pending(1, digest, request, proposer=ClusterId(0))
            replica.intra.view = 1

        primary = system.replicas_of(ClusterId(0))[1]  # primary of view 1
        assert primary.intra.is_primary
        primary.terminator.begin(1, request, view=1)
        system.sim.run(until=0.5)

        assert primary.journal.totals["termination_adopted"] == 0
        assert primary.journal.totals["termination_noop"] == 1
        # The no-op went through ordinary intra-shard consensus, so the
        # whole cluster filled the slot identically.
        for replica in system.replicas_of(ClusterId(0)):
            entry = replica.log.entry(1)
            assert entry is not None and entry.status is EntryStatus.APPLIED
            assert entry.is_noop
        report = system.safety_audit()
        assert report.ok, report.problems

    def test_commit_landing_mid_round_resolves_in_flight(self):
        system = build_system()
        request = cross_request(system)
        digest = item_digest(request)
        positions = {ClusterId(0): 1, ClusterId(1): 1}
        primary = system.replicas_of(ClusterId(0))[0]
        primary.log.record_pending(1, digest, request, proposer=ClusterId(0))
        primary.terminator.begin(1, request, view=0)
        # The late commit arrives before any reply can form a quorum.
        primary.log.decide(1, digest, request, positions=positions, proposer=ClusterId(0))
        primary.after_decide()
        system.sim.run(until=0.5)
        assert primary.journal.totals["termination_noop"] == 0
        assert primary.journal.totals["termination_resolved"] + primary.journal.totals["termination_adopted"] >= 1
        entry = primary.log.entry(1)
        assert entry is not None and entry.status is EntryStatus.APPLIED
        assert not entry.is_noop
