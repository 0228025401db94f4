"""Shared infrastructure for the consensus engines.

Engines (Paxos, PBFT, and the cross-shard protocols in
:mod:`repro.core`) are plain state machines: they do not own a network
socket or a ledger, they talk to a *host* — the replica process — through
the small :class:`ConsensusHost` interface.  This keeps the protocols
testable without the simulator and lets SharPer plug either intra-shard
protocol into the same replica ("the intra-shard consensus protocol in
SharPer is pluggable", Section 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Hashable, Mapping, Protocol, runtime_checkable

from ..common.config import ClusterConfig
from ..common.types import ClusterId, NodeId
from ..sim.simulator import Timer
from .log import OrderingLog

__all__ = ["ConsensusHost", "QuorumTracker", "ConsensusEngine", "HandlerTable"]


@runtime_checkable
class ConsensusHost(Protocol):
    """What a consensus engine needs from the replica hosting it."""

    node_id: NodeId
    cluster: ClusterConfig
    log: OrderingLog

    def multicast_cluster(self, message: Any) -> None:
        """Send ``message`` to every other node of this cluster."""
        ...

    def send_to(self, node_id: NodeId, message: Any) -> None:
        """Send ``message`` to one node."""
        ...

    def after_decide(self) -> None:
        """Notify the host that new slots may be ready to apply."""
        ...

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Arm a timer on the host's clock."""
        ...

    @property
    def now(self) -> float:
        """Current simulated time at the host."""
        ...

    @property
    def view_change_timeout(self) -> float:
        """Timeout after which a backup suspects the primary."""
        ...


class QuorumTracker:
    """Counts distinct votes per key and fires once a threshold is reached.

    Keys are protocol-specific tuples such as ``(view, slot, digest)``.
    A key fires at most once; duplicate votes from the same voter are
    ignored, matching the "matching messages from distinct nodes"
    requirement of every quorum in the paper.  Votes arriving after a
    key fired are not recorded, so a key has fired exactly when it holds
    ``threshold`` voters — one dict probe per vote, no second index.
    A key's voters are one int, the OR of their bits in ``members`` (the cluster's
    ``voter_bits``); a voter outside ``members`` is refused and counted in ``foreign_votes``.
    """

    def __init__(self, threshold: int, members: Mapping[int, int]) -> None:
        if threshold <= 0:
            raise ValueError("quorum threshold must be positive")
        self.threshold = threshold
        self.members = members
        self.foreign_votes = 0
        self._votes: dict[Hashable, int] = {}

    def vote(self, key: Hashable, voter: int) -> bool:
        """Record a vote; returns ``True`` the first time the key reaches quorum."""
        bit = self.members.get(voter)
        if bit is None:
            self.foreign_votes += 1
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


class HandlerTable:
    """Table-driven message dispatch shared by every protocol engine.

    Subclasses declare ``HANDLERS``, a class-level mapping from concrete
    message type to the *name* of the handling method.  The constructor
    resolves those names into bound methods once (so subclass overrides —
    e.g. :class:`~repro.baselines.single_group.FastPaxosEngine` replacing
    ``_on_accept`` — are picked up automatically), and :meth:`handle`
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


class ConsensusEngine(HandlerTable):
    """Common plumbing shared by the intra-shard engines.

    Role is state: assigning :attr:`view` resolves ``primary`` (the node
    the view elects) and ``is_primary`` (whether the host is that node);
    every per-message and per-request test reads them as attributes.
    """

    def __init__(self, host: ConsensusHost) -> None:
        self.host = host
        #: identifier of the hosting cluster.
        self.cluster_id: ClusterId = host.cluster.cluster_id
        self.view = 0
        self._build_handlers()

    # ------------------------------------------------------------------
    # primary/backup roles
    # ------------------------------------------------------------------
    @property
    def view(self) -> int:
        """The view this engine is in."""
        return self._view

    @view.setter
    def view(self, view: int) -> None:
        self._view = view
        self.primary = self.host.cluster.primary_for_view(view)
        self.is_primary = self.host.node_id == self.primary

    # ------------------------------------------------------------------
    # the decide step every intra-shard engine shares; the engines keep
    # who votes to whom and which quorum
    # ------------------------------------------------------------------
    def _decide(self, slot: int, digest: str, item: object, view: int) -> None:
        """``slot`` is decided here: log it, stamp it, stop watching it.

        The one place an intra-shard engine calls ``log.decide`` (a fork
        — a second, different decision for the slot — raises from there).
        Applying is left to the caller (``host.after_decide()``), because
        what goes on the wire between deciding and applying is protocol:
        Paxos multicasts its commit in that gap, and link-jitter draws
        are consumed per send, so the order is part of every seed.
        """
        host = self.host
        host.log.decide(slot, digest, item, proposer=self.cluster_id, view=view)
        host.recorder.milestone(host, item, "decided")
        self.view_change.slot_decided(slot)

    def _open_slot(self, slot: int, proposed: object = None) -> None:
        """Watch ``slot`` for a stalled primary; stamp it open (and proposed, at the primary)."""
        self.view_change.monitor_slot(slot)
        host = self.host
        recorder = host.recorder
        recorder.slot_open(host.now, int(host.node_id), int(self.cluster_id), slot)
        if proposed is not None:
            recorder.milestone(host, proposed, "propose")

    # ------------------------------------------------------------------
    # shared view-change handlers (both intra-shard engines own a
    # ViewChangeManager under ``self.view_change``)
    # ------------------------------------------------------------------
    def _on_view_change_message(self, message: Any, src: int) -> None:
        self.view_change.handle_view_change(message, src)

    def _on_new_view_message(self, message: Any, src: int) -> None:
        self.view_change.handle_new_view(message, src)

    def on_view_installed(self, view: int) -> None:
        """Hook invoked whenever a view is installed (certificate-verified).

        Engines that park traffic for not-yet-installed views (PBFT
        stashes pre-prepares rather than trusting ``message.view``)
        release it here.  The base implementation does nothing.
        """

    # ------------------------------------------------------------------
    # primary side (concrete engines implement ``propose_at``)
    # ------------------------------------------------------------------
    def submit(self, item: object) -> int | None:
        """Order ``item`` at the next slot; only the current view's primary may."""
        if not self.is_primary:
            return None
        slot = self.host.log.allocate()
        self.propose_at(slot, item)
        return slot
