"""Scripted Byzantine behaviours (the adversary library).

Each behaviour is a :class:`~repro.adversary.interceptor.MessageInterceptor`
subclass implementing one classic attack against the paper's protocols
(Sections 3.1–3.3), is fully deterministic for a ``seed``, and registers
itself under a short name so schedules, the CLI (``--attack``), and the
bench sweeps can select it by string — mirroring the system registry::

    from repro.adversary import make_behavior
    from repro.api import FaultSchedule

    behavior = make_behavior("equivocating-primary", seed=3)
    faults = FaultSchedule().make_byzantine(at=0.05, node=0, behavior=behavior)

Shipped behaviours:

* ``equivocating-primary`` — sends *conflicting* pre-prepares to two
  disjoint halves of the cluster's backups, so neither digest can gather
  a ``2f + 1`` prepare quorum (classic equivocation; forces a view
  change without ever forking the chain).
* ``silent-primary`` — drops every outbound message (a "fail-silent"
  node that is *not* crashed: it still receives, executes, and allocates
  slots, but nothing it says reaches the network).
* ``selective-silence`` — mutes traffic toward a chosen subset of peers
  only, modelling a node that keeps some links alive to delay detection.
* ``delay-attacker`` — holds every outbound message just under the
  view-change timeout, the strongest attack that stays formally timely.
* ``vote-withholder`` — suppresses only its prepare/commit/accept votes
  while still proposing and executing, starving quorums of one voter.
* ``tampered-digest`` — rewrites the digest carried by its votes, so
  correct replicas can never match them into a quorum (equivalent to
  withholding, but exercises the digest-checking paths).
* ``quorum-aware-equivocator`` — the *adaptive* adversary from the
  ROADMAP gap list: reads the host's live prepare-quorum tracker and
  sends conflicting prepares only at the exact moment its vote would
  complete the ``2f + 1`` quorum, staying honest otherwise.
* ``mute-during-view-change`` — silent only while a view change is in
  flight, withholding its election vote at the most fragile moment
  while leaving no steady-state evidence to suspect it over.
* ``checkpoint-suppressor`` — drops outbound checkpoint messages to
  stall garbage collection; the stall is bounded by quorum stability
  (``f`` suppressors cannot starve a ``2f + 1`` checkpoint quorum).

All behaviours are safe-by-construction targets for the
:class:`~repro.adversary.auditor.SafetyAuditor`: with at most ``f``
Byzantine replicas per cluster they may slow the system down or force
view changes, but no correct replica ever forks, double-executes, or
loses balance.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING, Callable, Sequence, Type, TypeVar

from ..common.crypto import Signature
from ..common.errors import ConfigurationError, RegistrationError
from ..consensus.log import Noop, item_digest
from ..consensus.messages import (
    CrossAccept,
    CrossAcceptB,
    CrossCommitB,
    NewView,
    NewViewAnnouncement,
    PaxosAccepted,
    PBFTCommit,
    Prepare,
    PrePrepare,
    ViewChange,
)
from ..recovery.messages import Checkpoint
from .interceptor import MessageInterceptor, Outbound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..sim.process import Process

__all__ = [
    "AdversaryBehavior",
    "CheckpointSuppressor",
    "DelayAttacker",
    "EquivocatingPrimary",
    "ForgedViewAttacker",
    "MuteDuringViewChange",
    "QuorumAwareEquivocator",
    "SelectiveSilence",
    "SilentPrimary",
    "TamperedDigest",
    "VoteWithholder",
    "available_behaviors",
    "get_behavior",
    "make_behavior",
    "register_behavior",
]

BehaviorT = TypeVar("BehaviorT", bound="type")

#: name -> behaviour class.
_BEHAVIORS: dict[str, Type["AdversaryBehavior"]] = {}

#: message types that are quorum votes (withheld / tampered with by the
#: vote-targeting behaviours).  Proposals are deliberately excluded.
VOTE_MESSAGE_TYPES: tuple[type, ...] = (
    Prepare,
    PBFTCommit,
    PaxosAccepted,
    CrossAccept,
    CrossAcceptB,
    CrossCommitB,
)


def _normalize(name: str) -> str:
    key = name.strip().lower()
    if not key:
        raise RegistrationError("behavior names must be non-empty")
    return key


def register_behavior(name: str, *, replace: bool = False) -> Callable[[BehaviorT], BehaviorT]:
    """Class decorator registering an adversary behaviour under ``name``.

    Same contract as :func:`repro.api.register_system`: re-registering
    the identical class is a no-op; binding a name to a different class
    raises unless ``replace=True``.
    """
    key = _normalize(name)

    def _same_class(a: type, b: type) -> bool:
        return a is b or (a.__module__, a.__qualname__) == (b.__module__, b.__qualname__)

    def decorator(cls: BehaviorT) -> BehaviorT:
        existing = _BEHAVIORS.get(key)
        if existing is not None and not _same_class(existing, cls) and not replace:
            raise RegistrationError(
                f"behavior name {key!r} is already registered to "
                f"{existing.__module__}.{existing.__qualname__}; "
                "pass replace=True to override"
            )
        _BEHAVIORS[key] = cls
        cls.registry_name = key
        return cls

    return decorator


def get_behavior(name: str) -> Type["AdversaryBehavior"]:
    """Look up a registered behaviour class by (case-insensitive) name."""
    try:
        return _BEHAVIORS[_normalize(name)]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary behavior {name!r}; choose from {sorted(_BEHAVIORS)}"
        ) from None


def available_behaviors(
    target: str | None = "replica",
) -> dict[str, Type["AdversaryBehavior"]]:
    """A snapshot of the registry: sorted name -> class.

    ``target`` filters by the surface a behaviour attacks — ``"replica"``
    (the default, preserving the pre-client-adversary contract of
    sweeps that attach every listed behaviour to a replica), ``"client"``
    for Byzantine-client behaviours, or ``None`` for everything.
    """
    return {
        name: cls
        for name, cls in sorted(_BEHAVIORS.items())
        if target is None or cls.target == target
    }


def make_behavior(
    behavior: "str | AdversaryBehavior", seed: int = 0, **kwargs: object
) -> "AdversaryBehavior":
    """Resolve a behaviour spec — a registry name or a ready instance.

    Instances pass through untouched (their own seed wins); names are
    instantiated with ``seed`` and any extra keyword arguments.
    """
    if isinstance(behavior, AdversaryBehavior):
        return behavior
    if isinstance(behavior, str):
        return get_behavior(behavior)(seed=seed, **kwargs)
    raise ConfigurationError(
        f"behavior must be a registry name or an AdversaryBehavior, got {behavior!r}"
    )


class AdversaryBehavior(MessageInterceptor):
    """Base class for scripted Byzantine behaviours.

    Behaviours are seeded: every random choice (which peers to mute,
    which half gets which equivocation) comes from ``self.rng``, so one
    ``(scenario seed, behavior seed)`` pair replays bit-identically.
    """

    #: registry name, set by :func:`register_behavior`.
    registry_name = ""
    #: which surface the behaviour attacks: ``"replica"`` behaviours
    #: attach to consensus nodes, ``"client"`` behaviours (see
    #: :mod:`repro.adversary.clients`) to client processes.
    target = "replica"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def cluster_peers(self) -> list[int]:
        """Process ids of the host's cluster peers (host excluded), sorted.

        Only meaningful once attached to a replica (a process exposing a
        ``cluster`` attribute); generic processes have no peers.
        """
        process = self.process
        cluster = getattr(process, "cluster", None)
        if process is None or cluster is None:
            return []
        return sorted(int(node) for node in cluster.node_ids if int(node) != process.pid)

    def describe(self) -> str:
        """One-line account used by fault-event and CLI logging."""
        return self.registry_name or type(self).__name__


@register_behavior("silent-primary")
class SilentPrimary(AdversaryBehavior):
    """Drop every outbound message: a live node the network never hears.

    Unlike a crash, the node keeps receiving and processing traffic (it
    stays up to date and can be restored instantly); backups observe
    missing pre-prepares/commits and trigger a view change by timeout.
    """

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        return self.drop()


@register_behavior("selective-silence")
class SelectiveSilence(AdversaryBehavior):
    """Mute traffic toward a chosen subset of peers only.

    ``targets`` fixes the muted process ids explicitly; otherwise a
    seeded sample of ``fraction`` of the host's cluster peers is drawn on
    attach.  Keeping some links alive models an adversary that stays
    under the detection radar of part of the cluster.
    """

    def __init__(
        self,
        seed: int = 0,
        targets: Sequence[int] | None = None,
        fraction: float = 0.5,
    ) -> None:
        super().__init__(seed)
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        self.fraction = fraction
        self.muted: set[int] = set(int(t) for t in targets) if targets is not None else set()
        self._explicit = targets is not None

    def attach(self, process: "Process") -> None:
        super().attach(process)
        if not self._explicit:
            peers = self.cluster_peers()
            count = max(1, round(len(peers) * self.fraction)) if peers else 0
            self.muted = set(self.rng.sample(peers, count)) if count else set()

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if dst in self.muted:
            return self.drop()
        return self.pass_through()


@register_behavior("delay-attacker")
class DelayAttacker(AdversaryBehavior):
    """Hold every outbound message just under the view-change timeout.

    ``delay`` defaults to ``timeout_fraction`` of the host's
    ``view_change_timeout`` (discovered on attach), i.e. the slowest a
    node can act while still (just) never being suspected — the classic
    performance attack on timeout-based fail-over.
    """

    def __init__(
        self,
        seed: int = 0,
        delay: float | None = None,
        timeout_fraction: float = 0.9,
    ) -> None:
        super().__init__(seed)
        if delay is not None and delay < 0:
            raise ConfigurationError("delay must be non-negative")
        if not 0.0 < timeout_fraction < 1.0:
            raise ConfigurationError("timeout_fraction must be in (0, 1)")
        self.delay = delay
        self.timeout_fraction = timeout_fraction

    def attach(self, process: "Process") -> None:
        super().attach(process)
        if self.delay is None:
            timeout = getattr(process, "view_change_timeout", 0.5)
            self.delay = timeout * self.timeout_fraction

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        return self.emit(Outbound(dst=dst, message=message, extra_delay=self.delay or 0.0))


@register_behavior("vote-withholder")
class VoteWithholder(AdversaryBehavior):
    """Suppress quorum votes while behaving correctly otherwise.

    Prepares, commits, Paxos accepted-acks, and cross-shard accept/commit
    votes (:data:`VOTE_MESSAGE_TYPES`) are dropped; proposals, client
    replies, forwards, and view-change traffic pass through.  With at
    most ``f`` withholders per cluster, quorums of ``2f + 1`` out of
    ``3f + 1`` still form from the correct replicas — the paper's
    liveness bound exercised exactly at its edge.
    """

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) in VOTE_MESSAGE_TYPES:
            return self.drop()
        return self.pass_through()


@register_behavior("tampered-digest")
class TamperedDigest(AdversaryBehavior):
    """Corrupt the digest carried by this node's quorum votes.

    Correct replicas accumulate votes keyed on ``(view, slot, digest)``,
    so a vote carrying a forged digest can never join a quorum for the
    real proposal — behaviourally a withheld vote, but it drives the
    digest-matching code paths a plain drop never touches.  The forged
    digest is deterministic per (seed, original digest).
    """

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) not in VOTE_MESSAGE_TYPES:
            return self.pass_through()
        digest = getattr(message, "digest", None)
        if digest is None:
            return self.pass_through()
        forged = hashlib.sha256(f"tampered|{self.seed}|{digest}".encode()).hexdigest()
        return self.emit(Outbound(dst=dst, message=dataclass_replace(message, digest=forged)))


@register_behavior("quorum-aware-equivocator")
class QuorumAwareEquivocator(AdversaryBehavior):
    """Equivocate a quorum vote only when the quorum is one vote short.

    The first *adaptive* adversary from the ROADMAP gap list: instead of
    following a fixed script it reads the host replica's live protocol
    state through the interceptor hook.  Whenever this node is about to
    multicast a prepare/commit vote after whose accounting the quorum
    for ``(view, slot, digest)`` would sit *exactly one peer vote short*
    of ``2f + 1`` — i.e. precisely when withholding the truth from part
    of the cluster maximally endangers the quorum — it splits the
    cluster: a seeded half of the peers receives a *conflicting* vote
    (forged digest) while the rest receive the real one.  The oracle is
    the host engine's own vote tracker plus the votes the engine records
    the moment this multicast returns (a backup's prepare carries two:
    its own and the pre-prepare it doubles for).  When the tracker shows
    the cluster is already further along — peer votes arrived before
    this node's own, e.g. across view changes or under concurrent
    attacks — the condition fails and the node stays scrupulously
    honest, keeping the attack invisible to any detector that samples
    behaviour at random moments.

    With at most ``f`` such adversaries per cluster the quorum
    intersection argument still holds — the forged digest can never
    gather ``2f + 1`` matching votes — so the attack can at worst stall
    a slot into a view change; the
    :class:`~repro.adversary.auditor.SafetyAuditor` must keep passing.
    """

    #: outbound vote type → (host tracker name, votes the engine records
    #: for the key right after this multicast returns).
    _TRACKERS = {Prepare: ("_prepares", 2), PBFTCommit: ("_commits", 1)}

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: (view, slot, digest) -> set of pids fed the conflicting vote.
        self._forks: dict[tuple[int, int, str], set[int]] = {}
        self.equivocations = 0

    def _pivotal(self, message: object) -> bool:
        spec = self._TRACKERS.get(type(message))
        if spec is None:
            return False
        tracker_name, own_weight = spec
        engine = getattr(self.process, "intra", None)
        tracker = getattr(engine, tracker_name, None)
        if tracker is None:
            return False
        key = (message.view, message.slot, message.digest)
        return tracker.threshold - (tracker.count(key) + own_weight) == 1

    def _victims(self, key: tuple[int, int, str]) -> set[int]:
        victims = self._forks.get(key)
        if victims is None:
            peers = self.cluster_peers()
            self.rng.shuffle(peers)
            victims = set(peers[: max(1, len(peers) // 2)]) if peers else set()
            self._forks[key] = victims
        return victims

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) not in self._TRACKERS:
            return self.pass_through()
        key = (message.view, message.slot, message.digest)
        if key not in self._forks and not self._pivotal(message):
            return self.pass_through()
        if dst not in self._victims(key):
            return self.pass_through()
        forged = hashlib.sha256(
            f"quorum-equivocation|{self.seed}|{message.digest}".encode()
        ).hexdigest()
        self.equivocations += 1
        return self.emit(Outbound(dst=dst, message=dataclass_replace(message, digest=forged)))


@register_behavior("equivocating-primary")
class EquivocatingPrimary(AdversaryBehavior):
    """Send conflicting pre-prepares to two disjoint halves of the backups.

    For every slot this node pre-prepares, one (seeded, per-slot) half of
    the cluster's backups receives the real proposal and the other half
    receives an internally consistent *conflicting* proposal (a no-op
    with a distinct digest).  With ``3f + 1`` nodes neither digest can
    reach ``2f + 1`` prepares — the primary's own vote counts only for
    the real one — so the slot stalls, backups time out, and the view
    change elects a correct primary.  No correct replica ever commits
    either conflicting proposal, which is exactly the safety property
    the :class:`~repro.adversary.auditor.SafetyAuditor` checks.

    Non-proposal traffic passes through, so the attack is invisible
    until the node becomes (or already is) a primary.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: (view, slot) -> (set of pids fed the fork, conflicting message).
        self._forks: dict[tuple[int, int], tuple[set[int], PrePrepare]] = {}

    def _fork_for(self, message: PrePrepare) -> tuple[set[int], PrePrepare]:
        key = (message.view, message.slot)
        fork = self._forks.get(key)
        if fork is None:
            peers = self.cluster_peers()
            self.rng.shuffle(peers)
            victims = set(peers[: max(1, len(peers) // 2)]) if peers else set()
            alternate = Noop(
                reason=f"equivocation-s{self.seed}-v{message.view}-slot{message.slot}"
            )
            forged = dataclass_replace(
                message, digest=item_digest(alternate), item=alternate
            )
            fork = (victims, forged)
            self._forks[key] = fork
        return fork

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) is not PrePrepare:
            return self.pass_through()
        victims, forged = self._fork_for(message)
        if dst in victims:
            return self.emit(Outbound(dst=dst, message=forged))
        return self.pass_through()


@register_behavior("forged-view")
class ForgedViewAttacker(AdversaryBehavior):
    """Inflate view numbers to self-elect — the forged-view attack.

    Primaries rotate round-robin, so every node is the designated
    primary of infinitely many future views.  This behaviour rewrites
    the ``view`` of every outbound pre-prepare to the next future view
    whose primary the host is, and fabricates the takeover paperwork a
    real fail-over would produce: a :class:`NewView` to its cluster
    peers and a :class:`NewViewAnnouncement` to every remote node, both
    carrying a *fabricated* certificate of view-change votes "from" its
    peers (with forged signatures — the adversary cannot sign for
    correct nodes).

    Against the pre-certificate protocol this captures the primary seat
    outright: backups trusted ``message.view`` and adopted the inflated
    view.  Against the authenticated view change it must fail on every
    path — backups park pre-prepares for uninstalled views, the
    fabricated certificates never verify, and state transfer only adopts
    quorum-attested views — so the attacker merely goes silent in its
    real view and loses its seat to an honest timeout-driven view
    change.  The :class:`~repro.adversary.auditor.SafetyAuditor` must
    keep passing throughout.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._target_view: int | None = None
        self._announced = False
        self.forged_pre_prepares = 0

    def _target(self) -> int | None:
        """Next future view whose round-robin primary this node is."""
        if self._target_view is not None:
            return self._target_view
        process = self.process
        cluster = getattr(process, "cluster", None)
        engine = getattr(process, "intra", None)
        if cluster is None or engine is None:
            return None
        view = engine.view + 1
        while int(cluster.primary_for_view(view)) != process.pid:
            view += 1
        self._target_view = view
        return view

    def _takeover_messages(self, target: int) -> list[Outbound]:
        """Fabricated NewView + cross-cluster announcements for ``target``."""
        process = self.process
        cluster = process.cluster
        certificate = tuple(
            ViewChange(
                new_view=target,
                node=peer,
                decided=(),
                accepted=(),
                checkpoint=0,
                signature=Signature(
                    signer=int(peer), payload_digest="forged", forged=True
                ),
            )
            for peer in cluster.node_ids
        )
        new_view = NewView(
            view=target, node=process.node_id, entries=(), certificate=certificate
        )
        actions = [
            Outbound(dst=peer, message=new_view) for peer in self.cluster_peers()
        ]
        config = getattr(process, "config", None)
        nodes_of_clusters = getattr(process, "nodes_of_clusters", None)
        if config is not None and nodes_of_clusters is not None:
            announcement = NewViewAnnouncement(
                cluster=cluster.cluster_id,
                view=target,
                node=process.node_id,
                certificate=certificate,
            )
            actions.extend(
                Outbound(dst=node, message=announcement)
                for node in nodes_of_clusters(
                    remote.cluster_id
                    for remote in config.clusters
                    if remote.cluster_id != cluster.cluster_id
                )
            )
        return actions

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) is not PrePrepare:
            return self.pass_through()
        target = self._target()
        if target is None:
            return self.pass_through()
        forged = dataclass_replace(message, view=target)
        self.forged_pre_prepares += 1
        actions = [Outbound(dst=dst, message=forged)]
        if not self._announced:
            self._announced = True
            actions.extend(self._takeover_messages(target))
        return self.emit(*actions)


@register_behavior("mute-during-view-change")
class MuteDuringViewChange(AdversaryBehavior):
    """Go silent exactly while a view change is in flight.

    The adaptive complement of ``silent-primary``: the node behaves
    correctly in steady state — votes, proposes, replies — but the
    moment it starts participating in a view change (its own
    ``in_view_change`` flag, set between suspecting the primary and
    installing the successor view) it drops *everything* outbound,
    including its own view-change vote.  That withholds one voter from
    the election at its most fragile moment while leaving no steady-
    state evidence to suspect this node over.

    With at most ``f`` such nodes per cluster the election still
    completes: the new primary needs a quorum of view-change votes, the
    correct replicas supply it (the muted node's *own* vote still counts
    locally if the rotation lands on it, and its ``NewView`` passes —
    ``in_view_change`` clears at installation, before the announcement
    is sent), and ordering resumes in the new view.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.muted_messages = 0

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        engine = getattr(self.process, "intra", None)
        manager = getattr(engine, "view_change", None)
        if manager is not None and manager.in_view_change:
            self.muted_messages += 1
            return self.drop()
        return self.pass_through()


@register_behavior("checkpoint-suppressor")
class CheckpointSuppressor(AdversaryBehavior):
    """Drop outbound checkpoint messages to stall garbage collection.

    Checkpoint stability needs an intra-quorum of matching signed
    digests (:mod:`repro.recovery.checkpoint`); a suppressor keeps
    taking checkpoints locally but never shares them, trying to starve
    the quorum so logs and ledgers grow without bound.  The stall is
    bounded by quorum stability: with at most ``f`` suppressors per
    cluster the ``2f + 1`` (crash: ``f + 1``) correct replicas still
    exchange enough matching digests to stabilise every interval, and
    even the suppressor itself garbage-collects — it still *receives*
    its peers' checkpoints and counts its own unsent vote.  Ordering
    traffic is untouched, so the behaviour is invisible to throughput.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.suppressed_checkpoints = 0

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) is Checkpoint:
            self.suppressed_checkpoints += 1
            return self.drop()
        return self.pass_through()
