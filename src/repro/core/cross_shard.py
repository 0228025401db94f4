"""The flattened cross-shard consensus protocols (Algorithms 1 and 2).

Cross-shard transactions are ordered directly among all — and only — the
involved clusters, with no reference committee and no commit protocol
layered on top of intra-shard consensus.  Two variants exist:

* :class:`CrashCrossShardEngine` (Algorithm 1): the initiator primary
  multicasts a ``propose``; every node of every involved cluster replies
  with an ``accept``; the initiator collects ``f + 1`` matching accepts
  per involved cluster and multicasts a ``commit``.
* :class:`ByzantineCrossShardEngine` (Algorithm 2): same three phases, but
  accepts and commits are multicast all-to-all among the involved nodes
  and quorums are ``2f + 1`` per cluster.

Instances are pipelined over per-cluster sequence numbers, not chained
on the previous block's hash: each cluster's primary assigns the
position and its single slot assigner plays the super-primary's role
(docs/architecture.md, "Substitutions and interpretations").

With ``ProtocolTuning.batch_size > 1`` the ordered item may be a
:class:`~repro.consensus.messages.RequestBatch` instead of a bare
request: one propose/accept/commit exchange, one position vector,
and one signature then order many client transactions at once.  The
engines stay item-agnostic — only the duplicate checks and the
Byzantine-client screen iterate batch members (see
:mod:`repro.consensus.batching`).

Both engines extend one module-private skeleton, ``_CrossShardEngine``,
which holds what they share; the engine classes keep what the paper
says differs — who votes to whom, and which quorum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

from ..common.errors import ConsensusError
from ..common.types import ClusterId
from ..consensus.base import HandlerTable
from ..consensus.batching import members_all_committed
from ..consensus.log import item_digest
from ..consensus.messages import (
    ClientRequest,
    CrossAccept,
    CrossAcceptB,
    CrossCommit,
    CrossCommitB,
    CrossPropose,
    CrossProposeB,
)
from ..sim.simulator import Timer
from .guard import ADMIT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .replica import SharPerReplica

__all__ = ["CrashCrossShardEngine", "ByzantineCrossShardEngine"]

#: a released tally: empty and immutable, so a write after release raises.
_RELEASED_VOTES = MappingProxyType({})
#: (quorum, voter bits) of a cluster this deployment does not know: nobody votes for it.
_NOBODY = (1, _RELEASED_VOTES)


# ----------------------------------------------------------------------
# the skeleton both algorithms share
# ----------------------------------------------------------------------
class _CrossShardEngine(HandlerTable):
    """One cross-shard instance's life around its votes: reserve → decide → report.

    Subclasses provide ``start`` (initiator side), the propose / accept /
    commit handlers, and a per-instance state object with ``request``,
    ``digest``, ``attempt``, ``decided`` and ``timer`` fields.
    """

    def __init__(self, host: "SharPerReplica") -> None:
        self.host = host
        self._build_handlers()
        self._states: dict = {}
        #: local position this node reserved (as its cluster's slot
        #: assigner) per instance digest.
        self._assigned_slots: dict[str, int] = {}
        #: per cluster, resolved once: (vote quorum: f + 1 crash, 2f + 1 Byzantine; voter bits).
        self._voting = {c.cluster_id: (c.cross_quorum, c.voter_bits) for c in host.config.clusters}
        #: votes refused: the sender is not a member of the cluster it speaks for.
        self.foreign_votes = 0
        #: votes refused: a slot or position vector that is not well formed.
        self.malformed_votes = 0
        self.initiated = 0
        self.committed = 0
        self.retries = 0
        self.aborted = 0
        #: commits dropped because the local slot was resolved otherwise.
        self.late_commits = 0

    # ------------------------------------------------------------------
    # admission and reservation
    # ------------------------------------------------------------------
    def _rejects(self, request: object) -> bool:
        """Byzantine-client screen, applied at every involved cluster.

        A forged, replayed or ownership-violating request (or a batch
        carrying one) must not gather accept votes anywhere — not even
        at clusters that never saw the original client submission — so
        its quorum can never form.
        """
        return self.host.request_guard.screen_item(request) != ADMIT

    def _settled_slot(self, digest: str, item: object) -> int | None:
        """Local position of an already-committed item, if any.

        The log's digest index is truncated below the low-water mark, so
        a (very) stale duplicate of a checkpointed transaction must be
        caught through the ledger's retained transaction index instead —
        re-running the instance would double-commit it.  A batch counts
        as committed only when *every* member did (a partially settled
        batch must stay orderable; apply-time skips handle the rest),
        and answers with the representative member's position.
        """
        slot = self.host.log.decided_slot_of(digest)
        if slot is None:
            chain = self.host.chain
            if members_all_committed(chain, item):
                slot = chain.position_of_tx(item.transaction.tx_id)
        return slot

    def _reserve_slot(self, digest: str, item: object) -> int:
        """The local position this node assigns the instance (once per digest)."""
        slot = self._assigned_slots.get(digest)
        if slot is None:
            slot = self._assigned_slots[digest] = self.host.log.allocate()
        # A slot already taken by a different digest is not an error
        # here: the commit resolves the final assignment.
        self.host.log.try_record_pending(slot, digest, item, proposer=self.host.cluster_id)
        return slot

    # ------------------------------------------------------------------
    # retry / abort (initiator side)
    # ------------------------------------------------------------------
    def _arm_retry_timer(self, state) -> None:
        if state.timer is not None:
            state.timer.cancel()
        state.timer = self.host.set_timer(
            self.host.tuning.conflict_retry_delay * (state.attempt + 1),
            self._on_retry_timeout,
            state.digest,
        )

    def _may_retry(self, state) -> bool:
        """Whether this node still drives the instance when its timer fires."""
        return True

    def _on_retry_timeout(self, digest: str) -> None:
        state = self._states.get(digest)
        if state is None or state.decided or not self._may_retry(state):
            return
        if state.attempt >= self.host.tuning.max_conflict_retries:
            self.aborted += 1
            self.host.on_cross_shard_abort(state.request)
            return
        state.attempt += 1
        self.retries += 1
        self.start(state.request)

    # ------------------------------------------------------------------
    # decide and report
    # ------------------------------------------------------------------
    def _finish(self, state) -> None:
        """The instance gathered its quorums: stop retrying it."""
        state.decided = True
        if state.timer is not None:
            state.timer.cancel()
        self.committed += 1

    def _decide_local(self, slot: int, digest: str, item, positions, proposer, forget=False) -> None:
        """This cluster's slot of the instance is decided here: log, stamp, apply.

        The one place a cross-shard engine calls ``log.decide``.  One
        conflict is tolerated: the local slot was no-op filled by a view
        change that outran this commit.  The late commit is dropped and
        counted instead of crashing; the client's retry re-runs the
        instance at a fresh position.  A conflicting *real* decision is
        a genuine fork (two decisions for one slot) and keeps raising.
        ``forget`` drops the state once the log, its only record, holds it.
        """
        host = self.host
        try:
            logged = host.log.decide(slot, digest, item, positions=positions, proposer=proposer)
        except ConsensusError:
            entry = host.log.entry(slot)
            if entry is None or not entry.is_noop:
                raise
            self.late_commits += 1
            return
        if forget and logged is not None:
            del self._states[digest]
        host.recorder.milestone(host, item, "decided")
        host.after_decide()

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """Drop bookkeeping for instances decided at or below ``slot``.

        Slot assignments at or below the checkpoint go, and with them
        the few decided states that outlived their decision (stale
        proposals are answered through the ledger's transaction index).
        Undecided instances stay — their retry timers are still live.
        """
        states, assigned = self._states, self._assigned_slots
        for digest in [d for d, s in assigned.items() if s <= slot]:
            del assigned[digest]
            state = states.get(digest)
            if state is not None and state.decided:
                del states[digest]


# ----------------------------------------------------------------------
# crash-only clusters — Algorithm 1
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _CrashState:
    """Initiator-side bookkeeping for one cross-shard transaction.

    Tally invariant: ``waiting`` holds exactly the involved clusters that
    still lack an accept quorum or a reserved position, so the instance
    commits the moment it empties — no re-scan of the clusters per vote.
    It leaves at commit once the log holds the decision, else stays for the retry.
    """

    request: ClientRequest
    digest: str
    involved: tuple[ClusterId, ...]
    attempt: int = 0
    #: accept voter mask per involved cluster.
    votes: dict[ClusterId, int] = field(init=False)
    #: position each cluster reserved.
    slots: dict[ClusterId, int] = field(default_factory=dict)
    waiting: set[ClusterId] = field(init=False)
    decided: bool = False
    timer: Timer | None = None

    def __post_init__(self) -> None:
        self.votes = dict.fromkeys(self.involved, 0)
        self.waiting = set(self.involved)


class CrashCrossShardEngine(_CrossShardEngine):
    """Algorithm 1: flattened cross-shard consensus for crash-only nodes."""

    HANDLERS = {
        CrossPropose: "_on_propose",
        CrossAccept: "_on_accept",
        CrossCommit: "_on_commit",
    }

    # ------------------------------------------------------------------
    # initiator side
    # ------------------------------------------------------------------
    def start(self, request: ClientRequest) -> None:
        """Initiate (or, from the retry timer, re-propose) a cross-shard transaction."""
        digest = item_digest(request)
        if self._settled_slot(digest, request) is not None:
            # Duplicate submission of an already-committed transaction.
            return
        host = self.host
        state = self._states.get(digest)
        if state is None:
            slot = self._reserve_slot(digest, request)
            state = _CrashState(request, digest, host.involved_clusters_of(request.transaction))
            self._tally(state, host.cluster_id, host.node_id, slot)
            self._states[digest] = state
            self.initiated += 1
            host.recorder.milestone(host, request, "cross_start")
            # The initiator's own vote (counted above) never fires the
            # quorum by itself: every involved cluster needs a full
            # cross_quorum, so decided is always False here.
            host.recorder.quorum_vote(host, "cross_accept", digest, host.node_id, False)
        message = CrossPropose(
            digest=digest,
            request=state.request,
            involved=state.involved,
            initiator_cluster=host.cluster_id,
            initiator_slot=state.slots[host.cluster_id],
            attempt=state.attempt,
        )
        host.multicast(host.nodes_of_clusters(state.involved), message)
        self._arm_retry_timer(state)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_propose(self, message: CrossPropose, src: int) -> None:
        if self._rejects(message.request):
            return
        host = self.host
        digest = message.digest
        # Already committed here: answer idempotently with the decided
        # position so a retrying initiator can complete.
        slot = self._settled_slot(digest, message.request)
        if slot is None:
            if message.initiator_cluster == host.cluster_id:
                # Backup of the initiator cluster: the initiator already
                # fixed the local position.
                slot = message.initiator_slot
                host.log.try_record_pending(
                    slot, digest, message.request, proposer=host.cluster_id
                )
            elif host.is_cluster_primary:
                slot = self._reserve_slot(digest, message.request)
            # else: backup of a remote involved cluster — it agrees with
            # whatever position its own primary reserves (learned at
            # commit time) and votes without one.
        reply = CrossAccept(
            digest=digest,
            cluster=host.cluster_id,
            node=host.node_id,
            slot=slot,
            attempt=message.attempt,
        )
        host.send_to(src, reply)

    def _on_accept(self, message: CrossAccept, src: int) -> None:
        state = self._states.get(message.digest)
        if state is None or state.decided:
            return
        self._tally(state, message.cluster, src, message.slot)
        if not state.waiting:
            self._commit(state)
        host = self.host
        host.recorder.quorum_vote(host, "cross_accept", message.digest, src, state.decided)

    def _tally(self, state: _CrashState, cluster: ClusterId, voter: int, slot: int | None) -> None:
        """Count one accept; votes of clusters that are not involved are ignored."""
        voters = state.votes.get(cluster)
        if voters is None:
            return
        quorum, bits = self._voting[cluster]
        bit = bits.get(voter)
        if bit is None:
            self.foreign_votes += 1
            return
        voters = state.votes[cluster] = voters | bit
        if slot is not None:
            state.slots.setdefault(cluster, slot)
        if voters.bit_count() >= quorum and cluster in state.slots:
            state.waiting.discard(cluster)

    def _commit(self, state: _CrashState) -> None:
        self._finish(state)
        host = self.host
        host.recorder.milestone(host, state.request, "cross_prepared")
        positions = dict(state.slots)
        commit = CrossCommit(
            digest=state.digest,
            request=state.request,
            positions=tuple(sorted(positions.items())),
            proposer=host.cluster_id,
            attempt=state.attempt,
        )
        host.multicast(host.nodes_of_clusters(state.involved), commit)
        self._decide_local(
            positions[host.cluster_id], state.digest, state.request, positions, host.cluster_id,
            forget=True,
        )

    def _on_commit(self, message: CrossCommit, src: int) -> None:
        positions = dict(message.positions)
        my_slot = positions.get(self.host.cluster_id)
        if my_slot is not None:
            self._decide_local(
                my_slot, message.digest, message.request, positions, message.proposer
            )


# ----------------------------------------------------------------------
# Byzantine clusters — Algorithm 2
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _ByzState:
    """Per-node bookkeeping for one cross-shard transaction (Algorithm 2).

    Tally invariant: once ``involved`` is known, ``unconfirmed`` holds
    exactly the involved clusters without a confirmed slot and
    ``uncommitted`` those without a commit quorum, so "may I commit /
    decide?" is an emptiness check.  Votes may arrive before the propose
    does; until then both are ``None`` and the votes just accumulate.
    The accept tally goes once this node's commit is sent; the state at
    decision, unless the log lacks it or this node's own accept is unsent.
    """

    digest: str
    request: ClientRequest | None = None
    involved: tuple[ClusterId, ...] = ()
    initiator_cluster: ClusterId | None = None
    attempt: int = 0
    #: accept voter mask per (cluster, slot).
    accept_votes: dict[tuple[ClusterId, int], int] = field(default_factory=dict)
    #: slot confirmed (2f+1 accepts) per cluster.
    confirmed_slots: dict[ClusterId, int] = field(default_factory=dict)
    #: slot of this node's own cluster, as announced by its primary
    #: (trusted provisionally).
    my_slot: int | None = None
    #: commit voter mask per cluster.
    commit_votes: dict[ClusterId, int] = field(default_factory=dict)
    unconfirmed: set[ClusterId] | None = None
    uncommitted: set[ClusterId] | None = None
    accept_sent: bool = False
    commit_sent: bool = False
    decided: bool = False
    timer: Timer | None = None


class ByzantineCrossShardEngine(_CrossShardEngine):
    """Algorithm 2: flattened cross-shard consensus for Byzantine nodes."""

    HANDLERS = {
        CrossProposeB: "_on_propose",
        CrossAcceptB: "_on_accept",
        CrossCommitB: "_on_commit",
    }

    def __init__(self, host: "SharPerReplica") -> None:
        super().__init__(host)
        #: digests whose state was request-less at the last compaction.
        self._orphans: set[str] = set()

    # ------------------------------------------------------------------
    # initiator side
    # ------------------------------------------------------------------
    def start(self, request: ClientRequest) -> None:
        """Initiate (or, from the retry timer, re-propose) a cross-shard transaction."""
        digest = item_digest(request)
        if self._settled_slot(digest, request) is not None:
            return
        host = self.host
        involved = host.involved_clusters_of(request.transaction)
        state = self._state(digest)
        if state.request is None:
            state.request = request
            self._set_involved(state, involved)
            state.initiator_cluster = host.cluster_id
            state.my_slot = self._reserve_slot(digest, request)
            self.initiated += 1
            host.recorder.milestone(host, request, "cross_start")
        propose = CrossProposeB(
            digest=digest,
            request=request,
            involved=involved,
            initiator_cluster=host.cluster_id,
            initiator_slot=state.my_slot,
            attempt=state.attempt,
        )
        host.multicast(host.nodes_of_clusters(involved), propose)
        self._send_accept(state)
        self._arm_retry_timer(state)

    def _state(self, digest: str, own_slot: int | None = None) -> _ByzState | None:
        """The digest's state; ``None`` once the log decided it or checkpointed ``own_slot``."""
        state = self._states.get(digest)
        if state is None:
            log = self.host.log
            compacted = own_slot is not None and own_slot <= log.low_water_mark
            if compacted or log.decided_slot_of(digest) is not None:
                return None  # a late message resurrects nothing
            state = self._states[digest] = _ByzState(digest)
        return state

    def _well_formed(self, positions: object) -> bool:
        """``((cluster, slot), ...)``: known clusters in ascending order, slots ints >= 1."""
        if type(positions) is not tuple or not positions:
            return False
        last = -1
        try:
            for cluster, slot in positions:
                if type(cluster) is not int or cluster <= last or cluster not in self._voting:
                    return False
                if type(slot) is not int or slot < 1:
                    return False
                last = cluster
        except (TypeError, ValueError):  # an item that is no pair
            return False
        return True

    def _set_involved(self, state: _ByzState, involved: tuple[ClusterId, ...]) -> None:
        """Fix the involved set and derive both tallies from the votes already held."""
        state.involved = involved
        state.unconfirmed = {c for c in involved if c not in state.confirmed_slots}
        votes, voting = state.commit_votes, self._voting
        state.uncommitted = {
            c for c in involved if votes.get(c, 0).bit_count() < voting.get(c, _NOBODY)[0]
        }

    def _may_retry(self, state: _ByzState) -> bool:
        # Every node holds state here, and a primary may have lost its
        # seat: only the initiator cluster's current primary re-proposes.
        return (
            state.request is not None
            and state.initiator_cluster == self.host.cluster_id
            and self.host.is_cluster_primary
        )

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_propose(self, message: CrossProposeB, src: int) -> None:
        if src != self.host.primary_pid_of(message.initiator_cluster):
            return  # only the initiator cluster's primary may propose
        if self._rejects(message.request):
            return
        state = self._state(message.digest)
        if state is None:
            return
        state.request = message.request
        if message.involved != state.involved:
            self._set_involved(state, message.involved)
        state.initiator_cluster = message.initiator_cluster
        state.attempt = max(state.attempt, message.attempt)
        my_cluster = self.host.cluster_id
        if my_cluster == message.initiator_cluster:
            state.my_slot = message.initiator_slot
        if self._settled_slot(message.digest, message.request) is not None:
            return
        if my_cluster == message.initiator_cluster:
            self.host.log.try_record_pending(
                message.initiator_slot, message.digest, message.request, proposer=my_cluster
            )
        elif self.host.is_cluster_primary and state.my_slot is None:
            state.my_slot = self._reserve_slot(message.digest, message.request)
        self._send_accept(state)

    def _send_accept(self, state: _ByzState) -> None:
        """Multicast this node's accept once it knows its cluster's slot."""
        if state.accept_sent or state.request is None:
            return
        slot = state.my_slot
        if slot is None:
            # Backups wait until their cluster primary announces the slot
            # (via its own accept message).
            return
        state.accept_sent = True
        host = self.host
        host.log.try_record_pending(slot, state.digest, state.request, proposer=host.cluster_id)
        accept = CrossAcceptB(
            digest=state.digest,
            cluster=host.cluster_id,
            node=host.node_id,
            slot=slot,
            attempt=state.attempt,
        )
        host.multicast(host.nodes_of_clusters(state.involved), accept)
        self._register_accept(state, host.cluster_id, slot, host.node_id)
        if state.decided and host.log.decided_slot_of(state.digest) is not None:
            self._states.pop(state.digest, None)  # gone already if this accept decided it

    def _on_accept(self, message: CrossAcceptB, src: int) -> None:
        slot = message.slot
        if type(slot) is not int or slot < 1:  # a bool is no slot either
            self.malformed_votes += 1
            return
        own = message.cluster == self.host.cluster_id
        state = self._states.get(message.digest) or self._state(message.digest, slot if own else None)
        if state is None:
            return
        # Backups learn their cluster's slot from their primary's accept
        # (nothing left to learn once this node's own accept is out).
        if own and not state.accept_sent and src == self.host.primary_pid_of(message.cluster):
            if state.my_slot is None:
                state.my_slot = slot
            self._send_accept(state)
        self._register_accept(state, message.cluster, slot, src)

    def _register_accept(
        self, state: _ByzState, cluster: ClusterId, slot: int, voter: int
    ) -> None:
        # Once this node committed (or decided on others' commits) every
        # involved slot is confirmed: a late accept can change nothing.
        if not (state.commit_sent or state.decided):
            quorum, bits = self._voting.get(cluster, _NOBODY)
            bit = bits.get(voter)
            if bit is None:
                self.foreign_votes += 1
                return
            key = (cluster, slot)
            voters = state.accept_votes[key] = state.accept_votes.get(key, 0) | bit
            if voters.bit_count() >= quorum and cluster not in state.confirmed_slots:
                state.confirmed_slots[cluster] = slot
                if state.unconfirmed:
                    state.unconfirmed.discard(cluster)
            if state.involved and not state.unconfirmed and state.request is not None:
                self._send_commit(state)
        host = self.host
        host.recorder.quorum_vote(host, "cross_accept", state.digest, voter, state.commit_sent)

    def _send_commit(self, state: _ByzState) -> None:
        state.commit_sent = True
        state.accept_votes = _RELEASED_VOTES
        host = self.host
        host.recorder.milestone(host, state.request, "cross_prepared")
        commit = CrossCommitB(
            digest=state.digest,
            cluster=host.cluster_id,
            node=host.node_id,
            positions=tuple(sorted({c: state.confirmed_slots[c] for c in state.involved}.items())),
            attempt=state.attempt,
        )
        host.multicast(host.nodes_of_clusters(state.involved), commit)
        self._register_commit(state, host.cluster_id, host.node_id)

    def _on_commit(self, message: CrossCommitB, src: int) -> None:
        if not self._well_formed(message.positions):
            self.malformed_votes += 1
            return
        state = self._states.get(message.digest) or self._state(
            message.digest, dict(message.positions).get(self.host.cluster_id)
        )
        if state is None:
            return
        if not state.decided:
            if src not in self._voting.get(message.cluster, _NOBODY)[1]:
                self.foreign_votes += 1
                return
            confirmed = state.confirmed_slots
            for cluster, slot in message.positions:
                confirmed.setdefault(cluster, slot)
            if not state.involved:
                self._set_involved(state, tuple(cluster for cluster, _ in message.positions))
            elif state.unconfirmed:
                state.unconfirmed.difference_update(confirmed)
        self._register_commit(state, message.cluster, src)

    def _register_commit(self, state: _ByzState, cluster: ClusterId, voter: int) -> None:
        if not state.decided:
            quorum, bits = self._voting[cluster]
            voters = state.commit_votes[cluster] = state.commit_votes.get(cluster, 0) | bits[voter]
            if voters.bit_count() >= quorum and state.uncommitted:
                state.uncommitted.discard(cluster)
            proposed = state.involved and state.request is not None
            if proposed and not state.uncommitted and not state.unconfirmed:
                self._decide(state)
        host = self.host
        host.recorder.quorum_vote(host, "cross_commit", state.digest, voter, state.decided)

    def _decide(self, state: _ByzState) -> None:
        self._finish(state)
        mine = self.host.cluster_id
        positions = {cluster: state.confirmed_slots[cluster] for cluster in state.involved}
        if mine not in positions:
            return
        proposer = mine if state.initiator_cluster is None else state.initiator_cluster
        self._decide_local(
            positions[mine], state.digest, state.request, positions, proposer,
            forget=state.accept_sent,  # else its primary's late accept still makes it send one
        )

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """The shared sweep, then the state only this engine keeps at every node.

        The decided states left (decisions the log did not record, or
        still owing this node's accept) go by the position the instance
        took in this node's cluster: ``_assigned_slots`` only knows a
        primary's.  Request-less states — votes for a digest nobody
        proposed here, typically a remote cluster's late accept for an
        instance already compacted — go once a checkpoint has outlived
        them: seen request-less by two consecutive compactions.
        """
        super().compact_below(slot)
        states = self._states
        mine = self.host.cluster_id
        outlived, self._orphans = self._orphans, set()
        for digest, state in list(states.items()):
            if state.decided:
                if state.confirmed_slots.get(mine, 0) <= slot:
                    del states[digest]
            elif state.request is None:
                if digest in outlived:
                    del states[digest]
                else:
                    self._orphans.add(digest)
