"""Intra-shard consensus for crash-only clusters (Paxos, Figure 3(a)).

The cluster primary receives client requests, assigns the next sequence
number (the role the hash of the previous block plays in the paper),
multicasts an ``accept`` to its backups, waits for ``f`` matching
``accepted`` replies (``f + 1`` votes counting itself — a majority of the
``2f + 1`` cluster), and multicasts a ``commit``.  Backups execute and
append once they receive the commit.

Consensus instances are pipelined over sequence numbers (Multi-Paxos
style); the ledger layer applies decided slots strictly in order, so the
chain every replica materialises is identical to the one the paper's
hash-chained formulation produces.
"""

from __future__ import annotations

from .base import ConsensusEngine, ConsensusHost, QuorumTracker
from .log import item_digest
from .messages import NewView, PaxosAccept, PaxosAccepted, PaxosCommit, ViewChange
from .view_change import ViewChangeManager

__all__ = ["PaxosEngine"]


class PaxosEngine(ConsensusEngine):
    """Multi-Paxos ordering engine for one crash-only cluster."""

    HANDLERS = {
        PaxosAccept: "_on_accept",
        PaxosAccepted: "_on_accepted",
        PaxosCommit: "_on_commit",
        ViewChange: "_on_view_change_message",
        NewView: "_on_new_view_message",
    }

    def __init__(self, host: ConsensusHost) -> None:
        super().__init__(host)
        # f + 1 votes (counting the primary itself) decide a slot.
        self._accepted = QuorumTracker(host.cluster.f + 1, host.cluster.voter_bits)
        self.view_change = ViewChangeManager(self, quorum=host.cluster.f + 1)

    # ------------------------------------------------------------------
    # primary side
    # ------------------------------------------------------------------
    def propose_at(self, slot: int, item: object) -> None:
        """Propose ``item`` at an explicit slot (used by view changes too)."""
        digest = item_digest(item)
        self.host.log.record_pending(slot, digest, item, view=self.view, proposer=self.cluster_id)
        message = PaxosAccept(view=self.view, slot=slot, digest=digest, item=item)
        self.host.multicast_cluster(message)
        # The primary's own vote counts toward the f + 1 majority.
        fired = self._accepted.vote((self.view, slot, digest), self.host.node_id)
        self._open_slot(slot, item)
        host = self.host
        host.recorder.quorum_vote(host, "accept", (self.view, slot, digest), host.node_id, fired)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_accept(self, message: PaxosAccept, src: int) -> None:
        view = message.view
        if view != self.view:
            if view < self.view or src != self.host.cluster.primary_for_view(view):
                return
            # The cluster moved on without us; adopt the newer view.
            self.view = view
        elif src != self.primary:
            return
        if not self.host.log.try_record_pending(
            message.slot, message.digest, message.item, view=view,
            proposer=self.cluster_id,
        ):
            # The slot already holds a different digest; do not vote.
            return
        self._open_slot(message.slot)
        reply = PaxosAccepted(
            view=view, slot=message.slot, digest=message.digest, node=self.host.node_id
        )
        self.host.send_to(self.primary, reply)

    def _on_accepted(self, message: PaxosAccepted, src: int) -> None:
        if not self.is_primary or message.view != self.view:
            return
        key = (message.view, message.slot, message.digest)
        fired = self._accepted.vote(key, src)
        self.host.recorder.quorum_vote(self.host, "accept", key, src, fired)
        if not fired:
            return
        entry = self.host.log.entry(message.slot)
        item = entry.item if entry is not None else None
        if item is None:
            return
        self._decide(message.slot, message.digest, item, message.view)
        commit = PaxosCommit(
            view=message.view, slot=message.slot, digest=message.digest, item=item
        )
        self.host.multicast_cluster(commit)
        self.host.after_decide()

    def _on_commit(self, message: PaxosCommit, src: int) -> None:
        view = message.view  # may trail or lead this replica's
        primary = self.primary if view == self.view else self.host.cluster.primary_for_view(view)
        if src != primary:
            return
        self._decide(message.slot, message.digest, message.item, message.view)
        self.host.after_decide()

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """Drop accepted-vote bookkeeping covered by a stable checkpoint."""
        self._accepted.drop(lambda key: key[1] <= slot)
