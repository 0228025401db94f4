"""The flattened cross-shard consensus protocols (Algorithms 1 and 2).

Transactions are ordered among all — and only — the involved clusters,
with no reference committee.  Both algorithms run three phases: the
initiator primary multicasts a ``propose``, every involved node answers
with an ``accept``, and a ``commit`` fixes the position vector once every
involved cluster has its quorum (``cross_quorum``: ``f + 1`` crash,
``2f + 1`` Byzantine).  One engine runs both; a :data:`PHASE_TABLE` row
per fault model says what differs.  Each cluster's primary assigns its
position (docs/architecture.md, "Substitutions and interpretations").  An
item may be a :class:`~repro.consensus.messages.RequestBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from ..common.types import ClusterId, FaultModel
from ..consensus.base import HandlerTable, Host, TimerHandle
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
from .guard import ADMIT

__all__ = ["PHASE_TABLE", "CrashCrossShardEngine", "ByzantineCrossShardEngine"]

#: a released tally: empty and immutable, so a write after release raises.
_RELEASED_VOTES = MappingProxyType({})
#: (quorum, voter bits) of a cluster this deployment does not know: nobody votes for it.
_NOBODY = (1, _RELEASED_VOTES)


class _Phases(NamedTuple):
    """What one algorithm does differently in the three shared phases."""

    propose: type
    accept: type
    commit: type
    #: a propose counts only from the initiator cluster's current primary.
    checked_propose: bool
    #: accepts are multicast to every involved node, not sent back to the initiator.
    accepts_to_all: bool
    #: every involved node keeps per-instance state, not the initiator alone.
    every_node_keeps_state: bool
    #: commits are votes (a quorum per cluster decides), not one initiator message.
    voted_commit: bool
    #: only the initiator cluster's current primary re-proposes, not the initiator always.
    retry_needs_primary: bool
    #: a position needs a quorum of accepts naming it, not :func:`_first_vote_position`.
    matching_accepts: bool


#: the phase table, one row per fault model (Algorithm 1 crash, Algorithm 2 Byzantine).
PHASE_TABLE = {
    FaultModel.CRASH: _Phases(
        CrossPropose, CrossAccept, CrossCommit, False, False, False, False, False, False
    ),
    FaultModel.BYZANTINE: _Phases(
        CrossProposeB, CrossAcceptB, CrossCommitB, True, True, True, True, True, True
    ),
}


def _first_vote_position(positions: dict, cluster: ClusterId, slot: int) -> None:
    """The position rule: a cluster's position is the first one a vote names.

    Algorithm 1's initiator reads it off the first accept with a slot,
    Algorithm 2 off the first commit vector; neither checks the votes that
    follow, so one stale or forged vote fixes a position.  That is the hole
    of ROADMAP 2(a) and 9(b); 9(b) makes it a quorum of matching votes.
    """
    positions.setdefault(cluster, slot)


@dataclass(slots=True)
class _Instance:
    """One node's bookkeeping for one cross-shard transaction.

    Tally invariant: once ``involved`` is known, ``unconfirmed`` holds
    exactly the involved clusters without a position and ``uncommitted``
    those without a commit quorum, so "may I commit / decide?" is an
    emptiness check; until then (votes before the propose) both are
    ``None``.  The accept tally goes once this node's commit is sent; the
    state at decision, unless the log lacks it or this node's accept is unsent.
    """

    digest: str
    request: ClientRequest | None = None
    involved: tuple[ClusterId, ...] = ()
    initiator_cluster: ClusterId | None = None
    attempt: int = 0
    #: accept voter mask per cluster (Algorithm 1) or per (cluster, slot) (Algorithm 2).
    accept_votes: dict = field(default_factory=dict)
    #: the position each cluster takes.
    positions: dict[ClusterId, int] = field(default_factory=dict)
    #: slot of this node's own cluster: reserved here, or announced by its primary.
    my_slot: int | None = None
    #: commit voter mask per cluster (Algorithm 2).
    commit_votes: dict[ClusterId, int] = field(default_factory=dict)
    unconfirmed: set[ClusterId] | None = None
    uncommitted: set[ClusterId] | None = None
    accept_sent: bool = False
    commit_sent: bool = False
    decided: bool = False
    timer: TimerHandle | None = None


class _CrossShardEngine(HandlerTable):
    """One cross-shard instance's life: propose → accept → commit → decide.

    Subclasses name their message handlers (``HANDLERS``) and their row
    of :data:`PHASE_TABLE` (``PHASES``), resolved once here.
    """

    PHASES: _Phases

    def __init__(self, host: Host) -> None:
        self.host = host
        self._build_handlers()
        self._phases = self.PHASES
        self._states: dict[str, _Instance] = {}
        #: local position this node reserved, as its cluster's slot assigner, per digest.
        self._assigned_slots: dict[str, int] = {}
        #: digests whose state was request-less at the last compaction.
        self._orphans: set[str] = set()
        #: per cluster: (vote quorum: f + 1 crash, 2f + 1 Byzantine; voter bits).
        self._voting = host.voting
        self.initiated = self.committed = 0

    # Retries, aborts and late commits are rows of the host's journal; these are their totals.
    retries = property(lambda self: self.host.journal.totals["cross_retry"])
    aborted = property(lambda self: self.host.journal.totals["cross_abort"])
    late_commits = property(lambda self: self.host.journal.totals["late_commit"])

    # --- admission, reservation and per-instance state ---
    def _rejects(self, request: object) -> bool:
        """Byzantine-client screen at every involved cluster: a bad request gathers no votes."""
        return self.host.request_guard.screen_item(request) != ADMIT

    def _settled_slot(self, digest: str, item: object) -> int | None:
        """Local position of an already-committed item (a batch: of *every* member), if any.

        Below the low-water mark only the ledger's transaction index knows it.
        """
        slot = self.host.log.decided_slot_of(digest)
        if slot is None:
            chain = self.host.chain
            if members_all_committed(chain, item):
                slot = chain.position_of_tx(item.transaction.tx_id)
        return slot

    def _reserve_slot(self, digest: str, item: object) -> int:
        """The local position this node assigns the instance (once per digest).

        A slot taken by another digest is not refused: the node still votes.
        """
        slot = self._assigned_slots.get(digest)
        if slot is None:
            slot = self._assigned_slots[digest] = self.host.log.allocate()
        self.host.log.try_record_pending(slot, digest, item, proposer=self.host.cluster_id)
        return slot

    def _state(self, digest: str, own_slot: int | None = None) -> _Instance | None:
        """The digest's state; ``None`` once the log decided it or checkpointed ``own_slot``."""
        state = self._states.get(digest)
        if state is None:
            log = self.host.log
            compacted = own_slot is not None and own_slot <= log.low_water_mark
            if compacted or log.decided_slot_of(digest) is not None:
                return None  # a late message resurrects nothing
            state = self._states[digest] = _Instance(digest)
        return state

    def _set_involved(self, state: _Instance, involved: tuple[ClusterId, ...]) -> None:
        """Fix the involved set and derive both tallies from the votes already held."""
        state.involved = involved
        state.unconfirmed = {c for c in involved if c not in state.positions}
        votes, voting = state.commit_votes, self._voting
        state.uncommitted = {
            c for c in involved if votes.get(c, 0).bit_count() < voting.get(c, _NOBODY)[0]
        }

    # --- propose (initiator side), retry and abort ---
    def start(self, request: ClientRequest) -> None:
        """Initiate (or, from the retry timer, re-propose) a cross-shard transaction."""
        digest = item_digest(request)
        if self._settled_slot(digest, request) is not None:
            return  # a duplicate submission of an already-committed transaction
        host, phases = self.host, self._phases
        involved = host.involved_clusters_of(request.transaction)
        state = self._state(digest)
        if state.request is None:
            state.request = request
            self._set_involved(state, involved)
            state.initiator_cluster = host.cluster_id
            state.my_slot = self._reserve_slot(digest, request)
            self.initiated += 1
            host.recorder.milestone(host, request, "cross_start")
            if not phases.accepts_to_all:
                # Algorithm 1 counts the initiator's own accept before it proposes.
                self._send_accept(state)
        propose = phases.propose(
            digest, request, involved, host.cluster_id, state.my_slot, state.attempt
        )
        host.multicast(host.nodes_of_clusters(involved), propose)
        self._send_accept(state)  # Algorithm 2's own accept follows it; a no-op once cast
        if state.timer is not None:
            state.timer.cancel()
        state.timer = host.set_timer(
            host.tuning.conflict_retry_delay * (state.attempt + 1), self._on_retry_timeout, digest
        )

    def _on_retry_timeout(self, digest: str) -> None:
        state = self._states.get(digest)
        if state is None or state.decided:
            return
        host = self.host
        driving = state.initiator_cluster == host.cluster_id and host.intra.is_primary
        if self._phases.retry_needs_primary and not driving:
            return  # every node holds state, and a primary may have lost its seat
        if state.attempt >= host.tuning.max_conflict_retries:
            host.journal.note("cross_abort", state.my_slot, digest, f"{state.attempt} retries")
            host.on_cross_shard_abort(state.request)
            return
        state.attempt += 1
        host.journal.note("cross_retry", state.my_slot, digest, f"attempt {state.attempt}")
        self.start(state.request)

    # --- accept (handlers are table-driven; see HandlerTable.handle) ---
    def _on_propose(self, message: CrossPropose | CrossProposeB, src: int) -> None:
        host, phases = self.host, self._phases
        if phases.checked_propose and src != host.primary_pid_of(message.initiator_cluster):
            return  # only the initiator cluster's primary may propose
        digest, request = message.digest, message.request
        if self._rejects(request):
            return
        mine = host.cluster_id
        initiator_side = message.initiator_cluster == mine
        state = None
        if phases.every_node_keeps_state:
            state = self._state(digest)
            if state is None:
                return
            state.request = request
            if message.involved != state.involved:
                self._set_involved(state, message.involved)
            state.initiator_cluster = message.initiator_cluster
            state.attempt = max(state.attempt, message.attempt)
            if initiator_side:
                state.my_slot = message.initiator_slot
        slot = self._settled_slot(digest, request)
        if slot is not None:
            # Committed here: Algorithm 1 answers with the decided position
            # so a retrying initiator can complete; Algorithm 2 casts no vote.
            if state is not None:
                return
        elif initiator_side:
            # The initiator fixed the local position; a refused record still votes.
            slot = message.initiator_slot
            host.log.try_record_pending(slot, digest, request, proposer=mine)
        elif host.intra.is_primary and (state is None or state.my_slot is None):
            slot = self._reserve_slot(digest, request)
            if state is not None:
                state.my_slot = slot
        # else: a remote backup.  Algorithm 1's votes without a slot; Algorithm
        # 2's waits for its primary's accept to announce one.
        if state is None:
            host.send(src, phases.accept(digest, mine, host.node_id, slot, message.attempt))
        else:
            self._send_accept(state)

    def _send_accept(self, state: _Instance) -> None:
        """Cast this node's accept once it knows its cluster's slot."""
        if state.accept_sent or state.request is None:
            return
        slot = state.my_slot
        if slot is None:
            return  # a backup waits until its primary's accept announces the slot
        state.accept_sent = True
        host, digest, mine = self.host, state.digest, self.host.cluster_id
        if self._phases.accepts_to_all:
            host.log.try_record_pending(slot, digest, state.request, proposer=mine)
            accept = self._phases.accept(digest, mine, host.node_id, slot, state.attempt)
            host.multicast(host.nodes_of_clusters(state.involved), accept)
        self._register_accept(state, mine, slot, host.node_id)
        if state.decided and host.log.decided_slot_of(digest) is not None:
            self._states.pop(digest, None)  # gone already if this accept decided it

    def _on_accept(self, message: CrossAccept | CrossAcceptB, src: int) -> None:
        slot, cluster = message.slot, message.cluster
        if not self._phases.every_node_keeps_state:
            state = self._states.get(message.digest)  # the initiator's, the only one kept
            if state is not None and not state.decided:
                self._register_accept(state, cluster, slot, src)
            return
        if type(slot) is not int or slot < 1:  # a bool is no slot either
            self.host.journal.note("malformed_vote", None, message.digest, f"accept from {src}")
            return
        own = cluster == self.host.cluster_id
        state = self._states.get(message.digest) or self._state(message.digest, slot if own else None)
        if state is None:
            return
        # Backups learn their cluster's slot from their primary's accept, until their own is out.
        if own and not state.accept_sent and src == self.host.primary_pid_of(cluster):
            if state.my_slot is None:
                state.my_slot = slot
            self._send_accept(state)
        self._register_accept(state, cluster, slot, src)

    def _register_accept(self, state: _Instance, cluster: ClusterId, slot, voter: int) -> None:
        """The accept tally: a cluster's position, then the commit once every cluster has one."""
        # Once this node committed or decided, a late accept can change nothing.
        if not (state.commit_sent or state.decided):
            quorum, bits = self._voting.get(cluster, _NOBODY)
            bit = bits.get(voter)
            if bit is None:
                self.host.journal.note("foreign_vote", slot, state.digest, f"accept from {voter}")
                return
            positions, votes = state.positions, state.accept_votes
            matching = self._phases.matching_accepts
            key = (cluster, slot) if matching else cluster
            if not matching and slot is not None:
                _first_vote_position(positions, cluster, slot)
            voters = votes[key] = votes.get(key, 0) | bit
            if voters.bit_count() >= quorum:
                if matching:
                    positions.setdefault(cluster, slot)  # the first quorum of matching accepts
                if state.unconfirmed and cluster in positions:
                    state.unconfirmed.discard(cluster)
            if state.involved and not state.unconfirmed and state.request is not None:
                self._send_commit(state)
        host = self.host
        host.recorder.quorum_vote(host, "cross_accept", state.digest, voter, state.commit_sent)

    # --- commit and decide ---
    def _send_commit(self, state: _Instance) -> None:
        """Every involved cluster has its position: multicast the vector."""
        state.commit_sent = True
        state.accept_votes = _RELEASED_VOTES
        host, phases, mine = self.host, self._phases, self.host.cluster_id
        host.recorder.milestone(host, state.request, "cross_prepared")
        vector = tuple(sorted({c: state.positions[c] for c in state.involved}.items()))
        if phases.voted_commit:
            commit = phases.commit(state.digest, mine, host.node_id, vector, state.attempt)
        else:
            commit = phases.commit(state.digest, state.request, vector, mine, state.attempt)
        host.multicast(host.nodes_of_clusters(state.involved), commit)
        if phases.voted_commit:
            self._register_commit(state, mine, host.node_id)
        else:
            self._decide(state)  # Algorithm 1's initiator decides with its commit

    def _on_commit(self, message: CrossCommit | CrossCommitB, src: int) -> None:
        mine = self.host.cluster_id
        if not self._phases.voted_commit:
            # Algorithm 1: the initiator's one commit decides this cluster's slot.
            positions = dict(message.positions)
            my_slot = positions.get(mine)
            if my_slot is not None:
                digest, request = message.digest, message.request
                self._decide_local(my_slot, digest, request, positions, message.proposer)
            return
        if not self._well_formed(message.positions):
            self.host.journal.note("malformed_vote", None, message.digest, f"commit from {src}")
            return
        state = self._states.get(message.digest) or self._state(
            message.digest, dict(message.positions).get(mine)
        )
        if state is None:
            return
        if not state.decided:
            if src not in self._voting.get(message.cluster, _NOBODY)[1]:
                self.host.journal.note("foreign_vote", None, message.digest, f"commit from {src}")
                return
            positions = state.positions
            for cluster, slot in message.positions:
                _first_vote_position(positions, cluster, slot)
            if not state.involved:
                self._set_involved(state, tuple(cluster for cluster, _ in message.positions))
            elif state.unconfirmed:
                state.unconfirmed.difference_update(positions)
        self._register_commit(state, message.cluster, src)

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

    def _register_commit(self, state: _Instance, cluster: ClusterId, voter: int) -> None:
        """The commit tally (Algorithm 2): decide once every cluster has its quorum."""
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

    def _decide(self, state: _Instance) -> None:
        """The instance gathered its quorums: stop retrying it and decide the local slot."""
        state.decided = True
        if state.timer is not None:
            state.timer.cancel()
        self.committed += 1
        mine = self.host.cluster_id
        positions = {cluster: state.positions[cluster] for cluster in state.involved}
        if mine not in positions:
            return
        proposer = mine if state.initiator_cluster is None else state.initiator_cluster
        self._decide_local(
            positions[mine], state.digest, state.request, positions, proposer,
            forget=state.accept_sent,  # else its primary's late accept still makes it send one
        )

    def _decide_local(self, slot: int, digest: str, item, positions, proposer, forget=False) -> None:
        """This cluster's slot of the instance is decided here: log, stamp, apply.

        A late commit onto a slot a view change no-op filled is dropped, a
        ``late_commit`` row (:meth:`~repro.consensus.log.OrderingLog.decide_unless_noop`).
        ``forget`` drops the state once the log, its only record, holds it.
        """
        host = self.host
        log = host.log
        if not log.decide_unless_noop(slot, digest, item, positions, proposer):
            host.journal.note("late_commit", slot, digest)
            return
        if forget and slot > log.low_water_mark:
            del self._states[digest]
        host.recorder.milestone(host, item, "decided")
        host.after_decide()

    # --- checkpoint compaction (repro.recovery) ---
    def compact_below(self, slot: int) -> None:
        """Drop bookkeeping for instances decided at or below ``slot``.

        Slot assignments at or below the checkpoint go, and so do decided
        states that outlived their decision, also by this node's cluster
        position (``_assigned_slots`` only knows a primary's).  Request-less
        states go once seen by two consecutive compactions.  Undecided
        instances stay: their retry timers are still live.
        """
        states, assigned = self._states, self._assigned_slots
        for digest in [d for d, s in assigned.items() if s <= slot]:
            del assigned[digest]
            state = states.get(digest)
            if state is not None and state.decided:
                del states[digest]
        mine = self.host.cluster_id
        outlived, self._orphans = self._orphans, set()
        for digest, state in list(states.items()):
            if state.decided:
                if state.positions.get(mine, 0) <= slot:
                    del states[digest]
            elif state.request is None:
                if digest in outlived:
                    del states[digest]
                else:
                    self._orphans.add(digest)


def _handlers(phases: _Phases) -> dict[type, str]:
    """An engine's ``HANDLERS``: its row's three message classes to the shared handlers."""
    return dict(zip(phases[:3], ("_on_propose", "_on_accept", "_on_commit")))


class CrashCrossShardEngine(_CrossShardEngine):
    """Algorithm 1: flattened cross-shard consensus for crash-only nodes."""

    PHASES = PHASE_TABLE[FaultModel.CRASH]
    HANDLERS = _handlers(PHASES)


class ByzantineCrossShardEngine(_CrossShardEngine):
    """Algorithm 2: flattened cross-shard consensus for Byzantine nodes."""

    PHASES = PHASE_TABLE[FaultModel.BYZANTINE]
    HANDLERS = _handlers(PHASES)
