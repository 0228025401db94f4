"""Shared infrastructure for the consensus engines, and the intra-shard engine.

Engines (the intra-shard engine here, the cross-shard protocols in
:mod:`repro.core`) are plain state machines: they do not own a network
socket or a ledger, they talk to a *host* — the replica process — through
the one narrow :class:`Host` surface.  This keeps the protocols
testable without the simulator and lets SharPer plug either intra-shard
protocol into the same replica ("the intra-shard consensus protocol in
SharPer is pluggable", Section 3.1): Paxos, PBFT and the Fast Paxos / FaB
baselines are four :class:`_Phases` rows of one :class:`ConsensusEngine`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, ClassVar, Hashable, Iterable, Mapping, NamedTuple, Protocol,
    runtime_checkable,
)

from ..common.config import ClusterConfig, ProtocolTuning
from ..common.types import ClusterId, NodeId
from .log import OrderingLog, item_digest
from .messages import NewView, ViewChange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ledger.view import ClusterView

__all__ = ["Host", "TimerHandle", "QuorumTracker", "attested", "ConsensusEngine", "HandlerTable"]


@runtime_checkable
class TimerHandle(Protocol):
    """What :meth:`Host.set_timer` returns: ``active`` while pending, and ``cancel()``."""

    active: bool

    def cancel(self) -> None: ...


@runtime_checkable
class Host(Protocol):
    """Everything the engines see of their node, one name per fact.

    The intra-shard engine, its view-change manager, the batcher, the
    cross-shard engine and the termination rounds read their node through
    these members only, and import nothing from the simulator or the
    replica.  :class:`repro.core.replica.ReplicaHost` implements it for
    every replica kind (inert where a kind runs no cross-shard part), and
    the tests' ``BagHost`` does without a simulator.
    """

    #: this node, its cluster (members, ``f``, quorums, the primary of a view) and the cluster's id.
    node_id: NodeId
    cluster: ClusterConfig
    cluster_id: ClusterId
    #: the cluster's other members, one stable tuple (a multicast's destinations).
    peers: tuple[int, ...]
    #: per cluster of the deployment: (cross-shard quorum, member pid → voter bit).
    voting: Mapping[ClusterId, tuple[int, Mapping[int, int]]]
    #: the ordering log both engines share, the ledger view it applies to, and the timeouts.
    log: OrderingLog
    chain: ClusterView
    tuning: ProtocolTuning
    #: simulated time at the node, its flight recorder (``repro.obs.INERT_RECORDER`` untraced)
    #: and its anomaly journal (``repro.obs.journal``).
    now: float
    recorder: Any
    journal: Any
    #: the engines; the cross-shard one, termination rounds and the client screen are None
    #: where a replica kind runs no cross-shard part.
    intra: ConsensusEngine
    cross: Any
    terminator: Any
    request_guard: Any

    # Send to one node; to every node of ``nodes`` but this one; call ``callback(*args)``
    # after ``delay``; apply the slots a decision made ready.
    def send(self, node: int, message: Any) -> None: ...
    def multicast(self, nodes: tuple[int, ...], message: Any) -> None: ...
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle: ...
    def after_decide(self) -> None: ...

    # A cluster's primary (this one's current view, a remote one's last certified view);
    # every node of some clusters (one stable tuple per set); a transaction's clusters;
    # whether an ordered item is a cross-shard request (never re-proposed intra-shard).
    def primary_pid_of(self, cluster_id: ClusterId) -> int: ...
    def nodes_of_clusters(self, clusters: tuple[ClusterId, ...]) -> tuple[int, ...]: ...
    def involved_clusters_of(self, transaction: Any) -> tuple[ClusterId, ...]: ...
    def spans_clusters(self, item: object) -> bool: ...

    # Hand a client request to this cluster's primary and watch that it commits; answer
    # the clients of a cross-shard item given up on; at a view change, tell the other
    # clusters this node leads now, reset view-scoped state, fetch missing state.
    def relay_to_primary(self, request: Any) -> None: ...
    def on_cross_shard_abort(self, item: object) -> None: ...
    def announce_new_view(self, view: int, certificate: tuple) -> None: ...
    def on_intra_view_installed(self, view: int) -> None: ...
    def request_catch_up(self) -> None: ...


class QuorumTracker:
    """Counts distinct votes per key and fires once a threshold is reached.

    Keys are protocol-specific tuples such as ``(view, slot, digest)``.
    A key fires at most once; duplicate votes from the same voter are
    ignored, matching the "matching messages from distinct nodes"
    requirement of every quorum in the paper.  Votes arriving after a
    key fired are not recorded, so a key has fired exactly when it holds
    ``threshold`` voters — one dict probe per vote, no second index.
    A key's voters are one int, the OR of their bits in ``members`` (the cluster's
    ``voter_bits``); a voter outside ``members`` is refused, a ``foreign_vote`` in ``journal``.
    """

    def __init__(self, threshold: int, members: Mapping[int, int], journal: Any) -> None:
        if threshold <= 0:
            raise ValueError("quorum threshold must be positive")
        self.threshold = threshold
        self.members = members
        self.journal = journal
        self._votes: dict[Hashable, int] = {}

    def vote(self, key: Hashable, voter: int) -> bool:
        """Record a vote; returns ``True`` the first time the key reaches quorum."""
        bit = self.members.get(voter)
        if bit is None:
            self.journal.note("foreign_vote", detail=f"voter {voter} on {key!r}")
            return False
        votes = self._votes.get(key, 0)
        count = votes.bit_count()
        if votes & bit or count >= self.threshold:
            return False
        self._votes[key] = votes | bit
        return count + 1 >= self.threshold

    def count(self, key: Hashable) -> int:
        """Number of distinct votes recorded for ``key``."""
        return self._votes.get(key, 0).bit_count()

    def reached(self, key: Hashable) -> bool:
        """Whether ``key`` has already reached its quorum."""
        return self.count(key) >= self.threshold

    def voters(self, key: Hashable) -> frozenset[int]:
        """The distinct voters recorded for ``key``."""
        votes = self._votes.get(key, 0)
        return frozenset(pid for pid, bit in self.members.items() if votes & bit)

    def clear(self) -> None:
        """Forget all votes (used on view installation)."""
        self._votes.clear()

    def drop(self, predicate: Callable[[Hashable], bool]) -> None:
        """Forget the votes of every key matching ``predicate``.

        Used by checkpoint compaction to garbage-collect per-slot vote
        bookkeeping once the slot is covered by a stable checkpoint.
        """
        for key in [key for key in self._votes if predicate(key)]:
            del self._votes[key]


def attested(claims: Iterable[int], k: int) -> int:
    """The ``k``-th largest claim (0 with fewer than ``k``): the highest value ``k`` claimants
    attest at least, since a claim of ``v`` vouches for every value below it."""
    ranked = sorted(claims, reverse=True)
    return ranked[k - 1] if len(ranked) >= k else 0


class HandlerTable:
    """Table-driven message dispatch shared by every protocol engine.

    Subclasses declare ``HANDLERS``, a class-level mapping from concrete
    message type to the *name* of the handling method.  The constructor
    resolves those names into bound methods once (so an instance may
    shadow the table — e.g. :class:`ConsensusEngine` built with the Fast
    Paxos row, which has no commit round), and :meth:`handle`
    dispatches with a single dict lookup on ``type(message)``.  Hosts
    merge :meth:`handlers` into their own process-level dispatch table so
    a delivered message is routed with one lookup end to end.
    """

    #: message type → handler method name; subclasses override.
    HANDLERS: ClassVar[Mapping[type, str]] = {}

    def _build_handlers(self) -> None:
        self._handlers: dict[type, Callable[[Any, int], None]] = {
            message_type: getattr(self, method_name)
            for message_type, method_name in self.HANDLERS.items()
        }

    def handlers(self) -> dict[type, Callable[[Any, int], None]]:
        """A copy of the bound message-type → handler table."""
        return dict(self._handlers)

    def handle(self, message: Any, src: int) -> bool:
        """Process a protocol message; returns ``True`` if it was consumed."""
        handler = self._handlers.get(type(message))
        if handler is None:
            return False
        handler(message, src)
        return True


class _Phases(NamedTuple):
    """What one intra-shard protocol does differently in the shared phases."""

    #: the proposal, its vote and the commit round's message (None: no commit round).
    propose: type
    vote: type
    commit: type | None
    #: votes that fire a key (f + 1, 2f + 1 or a fast quorum), and the recorder's name for a vote.
    quorum: Callable[[ClusterConfig], int]
    vote_kind: str
    #: votes go to every member, which tallies them and votes to commit; not to the
    #: primary alone, whose commit announces its decision.
    votes_to_all: bool
    #: a proposal of a later view is parked until that view is installed, not adopted.
    parks_later_views: bool
    #: the proposer and each acceptor decide on the proposal itself (Fast Paxos).
    optimistic: bool


def _handlers(phases: _Phases) -> dict[type, str]:
    """An engine's ``HANDLERS``: its row's message classes and the view change's."""
    table = dict(zip(phases[:3], ("_on_propose", "_on_vote", "_on_commit")))
    table.pop(None, None)
    return {**table, ViewChange: "_on_view_change_message", NewView: "_on_new_view_message"}


class ConsensusEngine(HandlerTable):
    """The one intra-shard engine: propose → vote → (commit) → decide.

    Subclasses name their :class:`_Phases` row (``PHASES``) and
    ``HANDLERS``; a baseline passes its own row (``phases``).  Role is
    state: assigning :attr:`view` resolves ``primary`` (the node the view
    elects) and ``is_primary`` (whether the host is that node).
    """

    PHASES: ClassVar[_Phases]
    #: bound on parked later-view proposals (a Byzantine primary may inflate views).
    MAX_PARKED = 64

    def __init__(self, host: Host, phases: _Phases | None = None) -> None:
        from .view_change import ViewChangeManager  # it imports QuorumTracker from here

        if phases is not None:
            self.PHASES, self.HANDLERS = phases, _handlers(phases)
        self.phases = phases = self.PHASES
        self.host = host
        self.cluster_id: ClusterId = host.cluster_id
        self.view = 0
        quorum, members = phases.quorum(host.cluster), host.cluster.voter_bits
        self._votes = QuorumTracker(quorum, members, host.journal)
        #: the commit round's votes; None where the primary announces its decision.
        voted_commit = phases.votes_to_all and phases.commit
        self._commits = QuorumTracker(quorum, members, host.journal) if voted_commit else None
        #: proposed items by key, kept where every member tallies (its log may hold another digest).
        self._items: dict[tuple[int, int, str], object] = {}
        #: proposals for views this replica has not installed yet, keyed by view.
        self._parked: dict[int, list[tuple[Any, int]]] = {}
        self._parked_count = 0
        self.view_change = ViewChangeManager(self, quorum=host.cluster.intra_quorum)
        self._build_handlers()

    @property
    def view(self) -> int:
        """The view this engine is in."""
        return self._view

    @view.setter
    def view(self, view: int) -> None:
        self._view = view
        self.primary = self.host.cluster.primary_for_view(view)
        self.is_primary = self.host.node_id == self.primary

    def submit(self, item: object) -> int | None:
        """Order ``item`` at the next slot; only the current view's primary may."""
        if not self.is_primary:
            return None
        slot = self.host.log.allocate()
        self.propose_at(slot, item)
        return slot

    def propose_at(self, slot: int, item: object) -> None:
        """Propose ``item`` at an explicit slot (view changes re-propose through here)."""
        host, phases, view = self.host, self.phases, self.view
        digest = item_digest(item)
        host.log.record_pending(slot, digest, item, view=view, proposer=self.cluster_id)
        key = (view, slot, digest)
        if phases.votes_to_all:
            self._items[key] = item
        host.multicast(host.peers, phases.propose(view, slot, digest, item))
        self._open_slot(slot, item)
        # The proposal is the proposer's own vote.
        self._vote(key, host.node_id)
        if phases.optimistic:
            self._decide_on_proposal(key, item)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_propose(self, message: Any, src: int) -> None:
        host, phases, view = self.host, self.phases, message.view
        if view != self.view:
            if view < self.view or src != host.cluster.primary_for_view(view):
                return
            if phases.parks_later_views:
                # Never adopted from a proposal (how `forged-view` self-elects):
                # only a certified NewView or state transfer installs it.
                self._park(message, src)
                return
            # The cluster moved on without us; adopt the newer view.
            self.view = view
        elif src != self.primary:
            return
        slot, digest, item = message.slot, message.digest, message.item
        if not host.log.try_record_pending(slot, digest, item, view=view, proposer=self.cluster_id):
            return  # a different digest already occupies the slot: do not vote
        key = (view, slot, digest)
        self._open_slot(slot)
        vote = phases.vote(view, slot, digest, host.node_id)
        if phases.votes_to_all:
            self._items[key] = item
            host.multicast(host.peers, vote)
            self._vote(key, host.node_id)
            # The proposal doubles as the proposer's vote: it sends no other.
            self._vote(key, src)
        else:
            host.send(self.primary, vote)
        if phases.optimistic:
            self._decide_on_proposal(key, item)

    def _on_vote(self, message: Any, src: int) -> None:
        if not self.phases.votes_to_all and (not self.is_primary or message.view != self.view):
            return
        self._vote((message.view, message.slot, message.digest), src)

    def _on_commit(self, message: Any, src: int) -> None:
        if self._commits is not None:
            self._commit_vote((message.view, message.slot, message.digest), src)
            return
        # The primary's announcement: the view it names may trail or lead ours.
        view = message.view
        primary = self.primary if view == self.view else self.host.cluster.primary_for_view(view)
        if src == primary:
            self._decide(message.slot, message.digest, message.item, view)

    # ------------------------------------------------------------------
    # the tallies and the decide step
    # ------------------------------------------------------------------
    def _vote(self, key: tuple[int, int, str], voter: int) -> None:
        """Count one vote of the proposal round (every vote is recorded)."""
        host = self.host
        fired = self._votes.vote(key, voter)
        host.recorder.quorum_vote(host, self.phases.vote_kind, key, voter, fired)
        if not fired:
            return
        if self._commits is None:
            self._decide_key(key)
            return
        # Prepared: vote to commit.  A key nobody proposed here has no item.
        view, slot, digest = key
        host.recorder.milestone(host, self._items.get(key), "prepared")
        host.multicast(host.peers, self.phases.commit(view, slot, digest, host.node_id))
        self._commit_vote(key, host.node_id)

    def _commit_vote(self, key: tuple[int, int, str], voter: int) -> None:
        fired = self._commits.vote(key, voter)
        self.host.recorder.quorum_vote(self.host, "commit", key, voter, fired)
        if fired:
            self._decide_key(key)

    def _fired_item(self, key: tuple[int, int, str]) -> object:
        """The item a fired tally decides: a proposal held here, else the slot's logged one.

        Where the primary alone tallies (the crash rows), the logged item
        is taken *without* checking its digest: ROADMAP 2(a)'s hole.
        """
        item = self._items.get(key)
        if item is None:
            entry = self.host.log.entry(key[1])
            if entry is None or (self.phases.votes_to_all and entry.digest != key[2]):
                return None
            item = entry.item
        return item

    def _decide_key(self, key: tuple[int, int, str]) -> None:
        item = self._fired_item(key)
        if item is None:
            return
        view, slot, digest = key
        # Where the primary alone tallies, its commit (if any) announces the decision.
        phases = self.phases
        self._decide(slot, digest, item, view, None if phases.votes_to_all else phases.commit)

    def _decide_on_proposal(self, key: tuple[int, int, str], item: object) -> None:
        """Fast Paxos' optimistic path: decide the logged proposal without waiting for votes
        (safe in fault-free runs, all the evaluation uses; with failures it would fall back)."""
        view, slot, digest = key
        entry = self.host.log.entry(slot)
        if entry is not None and entry.digest == digest:
            self._decide(slot, digest, item, view)

    def _decide(self, slot: int, digest: str, item: object, view: int, announce=None) -> None:
        """Log ``slot`` decided (a fork raises there), stamp it, stop watching it, announce
        it with the commit class ``announce`` if given (link jitter is drawn per send,
        so this order is part of every seed), and apply."""
        host = self.host
        host.log.decide(slot, digest, item, proposer=self.cluster_id, view=view)
        host.recorder.milestone(host, item, "decided")
        self.view_change.slot_decided(slot)
        if announce:
            host.multicast(host.peers, announce(view, slot, digest, item))
        host.after_decide()

    def _open_slot(self, slot: int, proposed: object = None) -> None:
        """Watch ``slot`` for a stalled primary; stamp it open (and proposed, at the primary)."""
        self.view_change.monitor_slot(slot)
        host = self.host
        recorder = host.recorder
        recorder.slot_open(host.now, int(host.node_id), int(self.cluster_id), slot)
        if proposed is not None:
            recorder.milestone(host, proposed, "propose")

    # ------------------------------------------------------------------
    # view changes (the ViewChangeManager under ``self.view_change``)
    # ------------------------------------------------------------------
    def _on_view_change_message(self, message: ViewChange, src: int) -> None:
        self.view_change.handle_view_change(message, src)

    def _on_new_view_message(self, message: NewView, src: int) -> None:
        self.view_change.handle_new_view(message, src)

    def _park(self, message: Any, src: int) -> None:
        """Park a later-view proposal; when full, evict the farthest view's for a nearer one
        (a forged-view adversary inflates to far views, the next installed view wants near ones)."""
        if self._parked_count >= self.MAX_PARKED:
            farthest = max(self._parked)
            if message.view >= farthest:
                return
            batch = self._parked[farthest]
            batch.pop()
            if not batch:
                del self._parked[farthest]
            self._parked_count -= 1
        self._parked.setdefault(message.view, []).append((message, src))
        self._parked_count += 1

    def on_view_installed(self, view: int) -> None:
        """A view was installed: replay its parked proposals (checked as usual), drop older ones."""
        for parked_view in sorted(v for v in self._parked if v <= view):
            batch = self._parked.pop(parked_view)
            self._parked_count -= len(batch)
            if parked_view == view:
                for message, src in batch:
                    self._on_propose(message, src)

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """Drop the ``(view, slot, digest)`` tallies and items a stable checkpoint covers."""
        self._votes.drop(lambda key: key[1] <= slot)
        if self._commits is not None:
            self._commits.drop(lambda key: key[1] <= slot)
        for key in [key for key in self._items if key[1] <= slot]:
            del self._items[key]
