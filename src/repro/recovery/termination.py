"""Termination rounds for in-flight cross-shard instances at view changes.

The residual atomicity window the ROADMAP flags: a cross-shard commit
quorum can form just before a view change, and the new primary — seeing
only a *pending* local slot — used to fill it with a no-op immediately,
racing the in-flight commit (the engines dropped the loser, a
``late_commit`` journal row).  The termination round closes the window:

1. the new primary defers the fill and multicasts a
   :class:`~repro.recovery.messages.TerminationRequest` to every node of
   every involved cluster;
2. nodes that decided the instance reply with the full position vector,
   proposer, and item; undecided nodes reply ``decided=False``;
3. on ``f + 1`` matching decided replies from the involved clusters'
   nodes (one in the crash model) the primary *adopts* the decision —
   deciding its local slot with the full position vector, so the
   transaction executes atomically — and shares a
   :class:`~repro.recovery.messages.TerminationDecision` with its backups;
4. if the termination timer expires with no decision evidence (and the
   slot is still undecided locally), the primary no-op-fills the slot
   through ordinary intra-shard consensus, exactly as before.

View changes are anchored on stable checkpoints
(:class:`~repro.recovery.checkpoint.CheckpointManager`), so termination
only ever runs for slots above the cluster's low-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consensus.base import HandlerTable, Host, QuorumTracker, TimerHandle
from ..consensus.log import EntryStatus, Noop, item_digest
from .messages import TerminationDecision, TerminationReply, TerminationRequest

__all__ = ["CrossShardTerminator"]


@dataclass
class _TerminationState:
    """Asking-primary bookkeeping for one in-flight instance."""

    digest: str
    slot: int
    view: int
    item: object
    #: positions-vector key → the involved clusters' nodes reporting that decision.
    votes: QuorumTracker
    #: one representative decided reply per positions-vector key, from a node that counted.
    evidence: dict[tuple, TerminationReply] = field(default_factory=dict)
    resolved: bool = False
    timer: TimerHandle | None = None


class CrossShardTerminator(HandlerTable):
    """Runs checkpoint-anchored termination rounds for one replica."""

    HANDLERS = {
        TerminationRequest: "_on_request",
        TerminationReply: "_on_reply",
        TerminationDecision: "_on_decision",
    }

    def __init__(self, host: Host) -> None:
        self.host = host
        self._build_handlers()
        self.quorum = host.cluster.reply_quorum
        self._states: dict[str, _TerminationState] = {}

    # ------------------------------------------------------------------
    # asking side (the new primary)
    # ------------------------------------------------------------------
    def begin(self, slot: int, item: object, view: int) -> None:
        """Open a termination round for the instance pending at ``slot``."""
        host = self.host
        digest = item_digest(item)
        if host.log.decided_slot_of(digest) is not None:
            return
        state = self._states.get(digest)
        if state is not None and not state.resolved:
            return
        nodes = host.nodes_of_clusters(host.involved_clusters_of(item.transaction))
        bits = {pid: 1 << index for index, pid in enumerate(nodes)}
        votes = QuorumTracker(self.quorum, bits, host.journal)
        state = self._states[digest] = _TerminationState(digest, slot, view, item, votes)
        host.journal.note("termination_started", slot, digest, f"view {view}")
        host.multicast(
            nodes,
            TerminationRequest(
                digest=digest, tx_id=item.transaction.tx_id, slot=slot, view=view,
                cluster=host.cluster_id, node=host.node_id,
            ),
        )
        state.timer = host.set_timer(
            host.tuning.conflict_retry_delay, self._on_timeout, digest
        )

    def _on_timeout(self, digest: str) -> None:
        state = self._states.get(digest)
        if state is None or state.resolved:
            return
        state.resolved = True
        host = self.host
        entry = host.log.entry(state.slot)
        if (
            host.log.decided_slot_of(digest) is not None
            or (entry is not None and entry.status is not EntryStatus.PENDING)
        ):
            # A late commit (or an adopted decision) landed during the
            # round; nothing to fill.
            host.journal.note("termination_resolved", state.slot, digest)
            return
        # No decision evidence anywhere: the undecided instance dies and
        # the client's retry runs a fresh, fully-positioned one.
        host.journal.note("termination_noop", state.slot, digest)
        host.log.observe(state.slot)
        host.intra.propose_at(
            state.slot, Noop(reason=f"termination-v{state.view}-slot-{state.slot}")
        )

    # ------------------------------------------------------------------
    # answering side (any involved node)
    # ------------------------------------------------------------------
    def _on_request(self, message: TerminationRequest, src: int) -> None:
        host = self.host
        slot = host.log.decided_slot_of(message.digest)
        entry = host.log.entry(slot) if slot is not None else None
        if entry is not None:
            reply = TerminationReply(
                digest=message.digest, decided=True, slot=message.slot,
                positions=tuple(sorted(entry.vector(host.cluster_id).items())),
                proposer=entry.proposer, item=entry.item, node=host.node_id,
            )
        else:
            # The decision may have been checkpointed and compacted out
            # of the log already; the ledger's retained transaction
            # index (and, while the block object is still retained, its
            # position vector) keeps the evidence.  Only once the block
            # itself is pruned — which takes at least a full checkpoint
            # interval, far beyond the view-change race window that
            # termination exists for — does the reply degrade to
            # ``decided=False``.
            reply = self._reply_from_ledger(message)
        host.send(src, reply)

    def _reply_from_ledger(self, message: TerminationRequest) -> TerminationReply:
        host = self.host
        chain = host.chain
        if chain.contains_tx(message.tx_id):
            position = chain.position_of_tx(message.tx_id)
            if position > chain.pruned_height:
                block = chain.block_at(position)
                return TerminationReply(
                    digest=message.digest, decided=True, slot=message.slot,
                    positions=block.positions, proposer=block.proposer,
                    item=None, node=host.node_id,
                )
        return TerminationReply(
            digest=message.digest, decided=False, slot=message.slot,
            positions=(), proposer=None, item=None, node=host.node_id,
        )

    # ------------------------------------------------------------------
    # collecting evidence
    # ------------------------------------------------------------------
    def _on_reply(self, message: TerminationReply, src: int) -> None:
        state = self._states.get(message.digest)
        if state is None or state.resolved:
            return
        if not message.decided:
            return
        # Ledger-derived evidence carries no request object (the block
        # stores only the transaction); the asker's own pending item is
        # the instance's request by construction (it produced the
        # digest).  Evidence that does carry an item must match.
        if message.item is not None and item_digest(message.item) != message.digest:
            return
        if len(message.positions) < 2:
            # A decided single-cluster vector cannot terminate a
            # cross-shard instance atomically; ignore it.
            return
        key = message.positions
        if src in state.votes.members:
            state.evidence.setdefault(key, message)
        if state.votes.vote(key, src):
            self._adopt(state, state.evidence[key])

    def _adopt(self, state: _TerminationState, evidence: TerminationReply) -> None:
        state.resolved = True
        if state.timer is not None:
            state.timer.cancel()
        host = self.host
        positions = dict(evidence.positions)
        my_slot = positions.get(host.cluster_id)
        if my_slot is None:
            return
        proposer = evidence.proposer if evidence.proposer is not None else host.cluster_id
        item = evidence.item if evidence.item is not None else state.item
        if not host.log.decide_unless_noop(my_slot, state.digest, item, positions, proposer):
            host.journal.note("termination_conflicted", my_slot, state.digest)
            return
        host.journal.note("termination_adopted", my_slot, state.digest)
        host.multicast(
            host.peers,
            TerminationDecision(
                digest=state.digest,
                positions=evidence.positions,
                proposer=proposer,
                item=item,
                view=state.view,
                node=host.node_id,
            ),
        )
        host.after_decide()

    def _on_decision(self, message: TerminationDecision, src: int) -> None:
        host = self.host
        if src != host.primary_pid_of(host.cluster_id):
            return
        if item_digest(message.item) != message.digest:
            return
        positions = dict(message.positions)
        my_slot = positions.get(host.cluster_id)
        if my_slot is None:
            return
        if host.log.decide_unless_noop(
            my_slot, message.digest, message.item, positions, message.proposer
        ):
            host.after_decide()
        else:
            host.journal.note("termination_conflicted", my_slot, message.digest, f"from {src}")
