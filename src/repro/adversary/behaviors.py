"""The attack catalogue: one seeded interceptor and one table row per attack.

Every attack against the paper's protocols (Sections 3.1–3.3), replica
and client alike, is a row of :data:`ATTACKS`: the surface it targets,
a one-line blurb, the message kinds it touches, an optional host-state
gate and an action.  Most actions are one of three shared primitives —
:func:`drop`, :func:`split` (equivocate to a seeded half of the peers)
and :func:`copies` (extra transmissions); the rest are one-row actions:
``delay-attacker``'s hold-back, ``tampered-digest``'s rewrite,
``forged-view``'s takeover paperwork and the three client forgeries.  One class, :class:`AdversaryBehavior`,
runs a row for a seed, and schedules, the CLI (``--attack``) and the
bench sweeps select rows by name::

    from repro.adversary import make_behavior
    from repro.api import FaultSchedule

    behavior = make_behavior("equivocating-primary", seed=3)
    faults = FaultSchedule().make_byzantine(at=0.05, node=0, behavior=behavior)

A row draws from its behaviour's private RNG in a fixed order, so one
``(scenario seed, behaviour seed)`` pair replays bit-identically:
``selective-silence`` samples its peers on its first message, a split shuffles the
peers the first time it sees a key, and ``duplicating-client`` draws
``randrange(4)``, then ``random()``, then ``randrange(len)``.

With at most ``f`` Byzantine replicas per cluster no row may fork a
correct replica, double-execute or lose balance; each row's attack and
the defence it exercises are tabulated in ``docs/adversary.md``.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..common.crypto import Signature
from ..common.errors import ConfigurationError, UnknownAccountError
from ..common.types import AccountId, ClientId
from ..consensus.log import Noop, item_digest
from ..consensus.messages import (
    ClientRequest, CrossAccept, CrossAcceptB, CrossCommitB, NewView, NewViewAnnouncement,
    PaxosAccepted, PBFTCommit, Prepare, PrePrepare, ViewChange,
)
from ..recovery.messages import Checkpoint
from ..txn.transaction import Transaction, Transfer
from .interceptor import MessageInterceptor, Outbound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .coalition import Coalition

__all__ = [
    "ATTACKS", "AdversaryBehavior", "Attack", "available_behaviors", "get_behavior",
    "make_behavior",
]

Verdict = "Sequence[Outbound] | None"
#: what a row does with one (destination, message) it touches.
Action = Callable[["AdversaryBehavior", int, object], Verdict]
#: whether a row touches one (destination, message); ``False`` passes it.
Gate = Callable[["AdversaryBehavior", int, object], bool]

#: message types that are quorum votes.  Proposals are deliberately excluded.
VOTE_MESSAGE_TYPES: tuple[type, ...] = (
    Prepare, PBFTCommit, PaxosAccepted, CrossAccept, CrossAcceptB, CrossCommitB
)


@dataclass(frozen=True)
class Attack:
    """One row of the catalogue."""

    #: ``"replica"`` rows attach to consensus nodes, ``"client"`` rows to clients.
    target: str
    #: one line, printed by ``sharper-bench --list-attacks``.
    blurb: str
    action: Action
    #: message types the row touches; empty touches every message.
    kinds: tuple[type, ...] = ()
    gate: Gate | None = None


class AdversaryBehavior(MessageInterceptor):
    """The attack ``name`` from :data:`ATTACKS`, seeded with ``seed``.

    Every random choice comes from ``self.rng``, and ``memo`` holds the
    row's own state (split forks, muted peers, the forged view, the
    replay history).  A coalition member (:meth:`Coalition.member`)
    passes through everything that does not carry a coalition target.
    """

    def __init__(self, name: str, seed: int = 0, coalition: "Coalition | None" = None) -> None:
        super().__init__()
        self.name = name.strip().lower()
        get_behavior(self.name)  # an unknown name fails here, not mid-run
        self.seed = seed
        self.rng = random.Random(seed)
        self.coalition = coalition
        self.memo: dict = {}

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        attack = ATTACKS[self.name]
        coalition = self.coalition
        if (
            (coalition is not None and not coalition.admits(message))
            or (attack.kinds and type(message) not in attack.kinds)
            or (attack.gate is not None and not attack.gate(self, dst, message))
        ):
            return self.pass_through()
        return attack.action(self, dst, message)

    def cluster_peers(self) -> list[int]:
        """Process ids of the host's cluster peers (host excluded), sorted."""
        process = self.process
        cluster = getattr(process, "cluster", None)
        if process is None or cluster is None:
            return []
        return sorted(int(node) for node in cluster.node_ids if int(node) != process.pid)


def get_behavior(name: str) -> Attack:
    """The catalogue row named ``name`` (case-insensitive)."""
    try:
        return ATTACKS[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary behavior {name!r}; choose from {sorted(ATTACKS)}"
        ) from None


def available_behaviors(target: str | None = "replica") -> dict[str, Attack]:
    """Sorted name -> row, for ``target`` (``"replica"``, ``"client"``, or ``None`` for all)."""
    return {name: row for name, row in sorted(ATTACKS.items()) if target in (None, row.target)}


def make_behavior(behavior: "str | AdversaryBehavior", seed: int = 0) -> AdversaryBehavior:
    """A behaviour for catalogue name ``behavior``; an instance passes through (its seed wins)."""
    if isinstance(behavior, AdversaryBehavior):
        return behavior
    if isinstance(behavior, str):
        return AdversaryBehavior(behavior, seed)
    raise ConfigurationError(
        f"behavior must be a registry name or an AdversaryBehavior, got {behavior!r}"
    )


# ----------------------------------------------------------------------
# the shared primitives
# ----------------------------------------------------------------------

def drop(behavior: AdversaryBehavior, dst: int, message: object) -> Verdict:
    """Suppress the message toward ``dst``."""
    return behavior.drop()


def split(
    key: Callable[[object], object], forge: Callable[[AdversaryBehavior, object], object]
) -> Action:
    """Equivocate: a seeded half of the peers gets the forgery, the rest the original.

    The first message with a new ``key(message)`` shuffles the sorted
    peers once and memoises the victims; every message a victim gets is
    ``forge(behavior, message)``, built from that message (two message
    types may share a key), so ``forge`` must be deterministic.
    """

    def act(behavior: AdversaryBehavior, dst: int, message: object) -> Verdict:
        fork_key = key(message)
        victims = behavior.memo.get(fork_key)
        if victims is None:
            peers = behavior.cluster_peers()
            behavior.rng.shuffle(peers)
            victims = behavior.memo[fork_key] = set(peers[: max(1, len(peers) // 2)])
        if dst in victims:
            return behavior.emit(Outbound(dst, forge(behavior, message)))
        return behavior.pass_through()

    return act


def copies(extra: Callable[[AdversaryBehavior, int, object], list[Outbound]]) -> Action:
    """Send the original plus ``extra(behavior, dst, message)``; no extras passes it through."""

    def act(behavior: AdversaryBehavior, dst: int, message: object) -> Verdict:
        added = extra(behavior, dst, message)
        if not added:
            return behavior.pass_through()
        return behavior.emit(Outbound(dst, message), *added)

    return act


# ----------------------------------------------------------------------
# what the rows forge and gate on, and the one-row actions
# ----------------------------------------------------------------------

def _forged_digest(tag: str, behavior: AdversaryBehavior, digest: str) -> str:
    return hashlib.sha256(f"{tag}|{behavior.seed}|{digest}".encode()).hexdigest()


def _tamper(behavior: AdversaryBehavior, dst: int, message: object) -> Verdict:
    """Send the vote with a forged digest instead."""
    forged = _forged_digest("tampered", behavior, message.digest)
    return behavior.emit(Outbound(dst, replace(message, digest=forged)))


def _noop_proposal(behavior: AdversaryBehavior, message: PrePrepare) -> PrePrepare:
    alternate = Noop(reason=f"equivocation-s{behavior.seed}-v{message.view}-slot{message.slot}")
    return replace(message, digest=item_digest(alternate), item=alternate)


def _vote_key(message: object) -> tuple:
    return (message.view, message.slot, message.digest)


def _conflicting_vote(behavior: AdversaryBehavior, message: object) -> object:
    return replace(message, digest=_forged_digest("quorum-equivocation", behavior, message.digest))


#: outbound vote type -> (host tracker name, votes the engine records for
#: the key right after this multicast returns: a backup's prepare counts
#: itself and the pre-prepare it doubles for).
_TRACKERS = {Prepare: ("_votes", 2), PBFTCommit: ("_commits", 1)}


def _forked_or_pivotal(behavior: AdversaryBehavior, dst: int, message: object) -> bool:
    """This vote's split is under way, or the vote leaves its quorum one peer vote short."""
    key = _vote_key(message)
    if key in behavior.memo:
        return True
    tracker_name, own_weight = _TRACKERS[type(message)]
    tracker = getattr(getattr(behavior.process, "intra", None), tracker_name, None)
    return tracker is not None and tracker.threshold - (tracker.count(key) + own_weight) == 1


def _in_view_change(behavior: AdversaryBehavior, dst: int, message: object) -> bool:
    manager = getattr(getattr(behavior.process, "intra", None), "view_change", None)
    return manager is not None and manager.in_view_change


def _muted(behavior: AdversaryBehavior, dst: int, message: object) -> bool:
    """``dst`` is in the half of the peers sampled on the first message."""
    muted = behavior.memo.get("muted")
    if muted is None:
        peers = behavior.cluster_peers()
        count = max(1, round(len(peers) * 0.5)) if peers else 0
        muted = behavior.memo["muted"] = set(behavior.rng.sample(peers, count))
    return dst in muted


def _delay_under_timeout(behavior: AdversaryBehavior, dst: int, message: object) -> Verdict:
    """Hold the message back by 0.9 of the host's view-change timeout."""
    timeout = getattr(behavior.process, "view_change_timeout", 0.5)
    return behavior.emit(Outbound(dst, message, timeout * 0.9))


def _next_own_view(behavior: AdversaryBehavior) -> int | None:
    """The next future view whose round-robin primary the host is."""
    process = behavior.process
    cluster = getattr(process, "cluster", None)
    engine = getattr(process, "intra", None)
    if cluster is None or engine is None:
        return None
    view = engine.view + 1
    while int(cluster.primary_for_view(view)) != process.pid:
        view += 1
    return view


def _takeover(behavior: AdversaryBehavior, view: int) -> list[Outbound]:
    """A NewView to the cluster and announcements to every remote node, certified by forgeries."""
    process = behavior.process
    cluster = process.cluster
    certificate = tuple(
        ViewChange(
            new_view=view,
            node=peer,
            decided=(),
            signature=Signature(signer=int(peer), payload_digest="forged", forged=True),
        )
        for peer in cluster.node_ids
    )
    new_view = NewView(view=view, node=process.node_id, entries=(), certificate=certificate)
    actions = [Outbound(dst=peer, message=new_view) for peer in behavior.cluster_peers()]
    nodes_of_clusters = getattr(process, "nodes_of_clusters", None)  # SharPer replicas only
    if nodes_of_clusters is not None:
        announcement = NewViewAnnouncement(
            cluster=cluster.cluster_id, view=view, node=process.node_id, certificate=certificate
        )
        actions.extend(
            Outbound(dst=node, message=announcement)
            for node in nodes_of_clusters(
                remote.cluster_id
                for remote in process.config.clusters
                if remote.cluster_id != cluster.cluster_id
            )
        )
    return actions


def _forge_view(behavior: AdversaryBehavior, dst: int, message: PrePrepare) -> Verdict:
    """Re-address the pre-prepare to the host's next own view; the first also claims it."""
    view = behavior.memo.get("view")
    claiming = view is None
    if claiming:
        view = behavior.memo["view"] = _next_own_view(behavior)
        if view is None:
            return behavior.pass_through()
    actions = [Outbound(dst=dst, message=replace(message, view=view))]
    if claiming:
        actions.extend(_takeover(behavior, view))
    return behavior.emit(*actions)


def _duplicate_and_replay(
    behavior: AdversaryBehavior, dst: int, message: ClientRequest
) -> list[Outbound]:
    """A nudged-timestamp duplicate (same transaction, new digest) and, half the time, a replay."""
    rng = behavior.rng
    duplicate = replace(message, timestamp=message.timestamp + 1e-7 * (1 + rng.randrange(4)))
    extra = [Outbound(dst=dst, message=duplicate, extra_delay=1e-4)]
    history = behavior.memo.setdefault("history", deque(maxlen=8))
    if history and rng.random() < 0.5:
        replayed = history[rng.randrange(len(history))]
        extra.append(Outbound(dst=dst, message=replayed, extra_delay=2e-4))
    history.append(message)
    return extra


def _request_beside(
    dst: int, message: ClientRequest, suffix: str, client: ClientId, transfers: tuple,
    signature: Signature | None = None,
) -> Outbound:
    """A new request to ``dst``, 1e-4 s behind ``message``, on its timestamps and reply address."""
    transaction = Transaction(
        tx_id=f"{message.transaction.tx_id}-{suffix}",
        client=client,
        transfers=transfers,
        timestamp=message.transaction.timestamp,
        signature=signature,
    )
    request = ClientRequest(transaction, client, message.timestamp, message.reply_to)
    return Outbound(dst=dst, message=request, extra_delay=1e-4)


def _impersonate(behavior: AdversaryBehavior, dst: int, message: ClientRequest) -> list[Outbound]:
    """The request re-attributed to the next client under a forged signature."""
    victim = ClientId(int(message.transaction.client) + 1)
    forgery = Signature(signer=int(victim), payload_digest="forged", forged=True)
    transfers = message.transaction.transfers
    return [_request_beside(dst, message, f"forged{behavior.seed}", victim, transfers, forgery)]


def _neighbour_in_shard(behavior: AdversaryBehavior, source: AccountId) -> AccountId | None:
    """An account adjacent to ``source`` in its shard (so owned by another client)."""
    mapper = getattr(getattr(behavior.process, "workload", None), "mapper", None)
    if mapper is None:
        return None
    shard = mapper.shard_of(source)
    for candidate in (AccountId(int(source) + 1), AccountId(int(source) - 1)):
        try:
            if mapper.shard_of(candidate) == shard:
                return candidate
        except UnknownAccountError:
            continue  # past either end of the keyspace: try the other side
    return None


def _steal(behavior: AdversaryBehavior, dst: int, message: ClientRequest) -> list[Outbound]:
    """A transfer into the request's source from a neighbouring account the client does not own."""
    source = message.transaction.transfers[0].source
    stolen = _neighbour_in_shard(behavior, source)
    if stolen is None:
        return []
    amount = 1 + behavior.rng.randrange(10)
    theft = (Transfer(source=stolen, destination=source, amount=amount),)
    client = message.transaction.client
    return [_request_beside(dst, message, f"theft{behavior.seed}", client, theft)]


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------

ATTACKS: dict[str, Attack] = {
    "silent-primary": Attack(
        "replica", "Drop every outbound message: a live node the network never hears.", drop
    ),
    "selective-silence": Attack(
        "replica", "Mute traffic toward a chosen subset of peers only.", drop, (), _muted,
    ),
    "delay-attacker": Attack(
        "replica", "Hold every outbound message just under the view-change timeout.",
        _delay_under_timeout,
    ),
    "vote-withholder": Attack(
        "replica", "Suppress quorum votes while behaving correctly otherwise.", drop,
        VOTE_MESSAGE_TYPES,
    ),
    "tampered-digest": Attack(
        "replica", "Corrupt the digest carried by this node's quorum votes.", _tamper,
        VOTE_MESSAGE_TYPES,
    ),
    "quorum-aware-equivocator": Attack(
        "replica", "Equivocate a quorum vote only when the quorum is one vote short.",
        split(_vote_key, _conflicting_vote), tuple(_TRACKERS), _forked_or_pivotal,
    ),
    "equivocating-primary": Attack(
        "replica", "Send conflicting pre-prepares to two disjoint halves of the backups.",
        split(lambda message: (message.view, message.slot), _noop_proposal), (PrePrepare,),
    ),
    "forged-view": Attack(
        "replica", "Inflate view numbers to self-elect — the forged-view attack.", _forge_view,
        (PrePrepare,),
    ),
    "mute-during-view-change": Attack(
        "replica", "Go silent exactly while a view change is in flight.", drop, (),
        _in_view_change,
    ),
    "checkpoint-suppressor": Attack(
        "replica", "Drop outbound checkpoint messages to stall garbage collection.", drop,
        (Checkpoint,),
    ),
    "duplicating-client": Attack(
        "client", "Duplicate and replay requests to attack at-most-once execution.",
        copies(_duplicate_and_replay), (ClientRequest,),
    ),
    "forged-signature-client": Attack(
        "client", "Pair every request with a forged-signature impersonation attempt.",
        copies(_impersonate), (ClientRequest,),
    ),
    "ownership-violator-client": Attack(
        "client", "Submit transfers from accounts the client does not own.", copies(_steal),
        (ClientRequest,),
    ),
}
