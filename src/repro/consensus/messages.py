"""Protocol message types.

Message classes double as the unit of CPU accounting: the simulator's
cost model charges signature verification per ``verify_signatures`` and
signing per ``sign_signatures`` (a count a class omits is zero).
Crash-only protocol messages carry no signatures ("since all nodes in
the system are crash-only nodes, there is no need to sign messages",
Section 3.2); Byzantine protocol messages are signed, as in Algorithms 2
and PBFT.

Performance model & parallel execution
--------------------------------------
Every message is a *frozen* dataclass, and that immutability is load-
bearing for the hot path:

* one payload object is shared by all destinations of a multicast
  (:meth:`repro.sim.network.Network.multicast`) — receivers must never
  mutate a message;
* every message type is declared with ``slots=True``, so no message
  carries a ``__dict__``; the two ordered as log items
  (:class:`ClientRequest`, :class:`RequestBatch`) memoise their digest
  and their slot's block in memo slots that are not dataclass fields
  (:func:`repro.common.crypto.memo_slots`);
* protocol dispatch is keyed on the concrete class (the per-engine
  ``HANDLERS`` tables, merged into each replica's process-level table at
  construction), so a delivered message is routed with a single dict
  lookup — do not subclass message types expecting ``isinstance``-style
  routing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

from ..common.crypto import Signature, memo_slots
from ..common.types import ClientId, ClusterId, NodeId
from ..txn.transaction import Transaction

__all__ = [
    "ClientRequest",
    "RequestBatch",
    "ClientReply",
    "PaxosAccept",
    "PaxosAccepted",
    "PaxosCommit",
    "PrePrepare",
    "Prepare",
    "PBFTCommit",
    "ViewChange",
    "NewView",
    "NewViewAnnouncement",
    "CrossPropose",
    "CrossAccept",
    "CrossCommit",
    "CrossProposeB",
    "CrossAcceptB",
    "CrossCommitB",
    "PassiveUpdate",
]


@dataclass(frozen=True, slots=True)
class ClientRequest(memo_slots("_item_digest", "_block_memo")):
    """``⟨REQUEST, tx, τ_c, c⟩σ_c`` — a signed client request.

    ``reply_to`` is the network address (process id) of the submitting
    client process, so that every replica that executes the transaction
    can send its reply.
    """

    transaction: Transaction
    client: ClientId
    timestamp: float
    reply_to: int = -1

    #: replicas verify the client signature once.
    verify_signatures: ClassVar[int] = 1

    def payload_digest(self) -> str:
        """Digest of the request, memoised in the (immutable) instance's slot.

        Built from the transaction's cached payload digest plus the
        request scalars, so ordering a request never re-canonicalises the
        transaction body.  Two requests with equal fields digest equally,
        which is what the cross-shard engines' duplicate detection needs
        across client retries.
        """
        cached = getattr(self, "_item_digest", None)
        if cached is None:
            cached = hashlib.sha256(
                (
                    f"CR|{self.transaction.payload_digest()}|{int(self.client)}"
                    f"|{self.timestamp!r}|{self.reply_to}"
                ).encode()
            ).hexdigest()
            object.__setattr__(self, "_item_digest", cached)
        return cached


@dataclass(frozen=True, slots=True)
class RequestBatch(memo_slots("_item_digest", "_block_memo")):
    """An ordered batch of client requests proposed as one consensus item.

    Built only by the primary-side batching pipeline
    (:class:`~repro.consensus.batching.BatchPipeline`, when
    ``ProtocolTuning.batch_size > 1`` and more than one request is
    queued).  One batch costs one signature,
    one quorum-tracking entry, and one apply-loop dispatch regardless of
    how many member requests it carries; the member requests keep their
    individual per-transaction semantics (guard screening, replies, and
    at-most-once execution are all per member).

    Like :class:`ClientRequest` — the other message type ordered as a
    log item — the batch memoises its digest in a slot (not a field);
    the digest chains the members' (themselves memoised) request
    digests, so digesting a batch never re-canonicalises a transaction
    body.
    """

    requests: tuple[ClientRequest, ...]

    #: the batch rides inside one pre-prepare/accept: one signature per
    #: batch, which is precisely the amortisation batching buys.
    verify_signatures: ClassVar[int] = 1

    @property
    def transaction(self) -> Transaction:
        """Representative transaction used for routing decisions.

        Members of a batch are grouped by involved-cluster set before
        batching (the pipeline keeps one queue per set), so the first
        member answers "which clusters does this item touch" and "which
        cluster initiates it" for the whole batch.  Per-transaction
        logic (execution, replies, dedup) must iterate ``requests``
        instead of using this.
        """
        return self.requests[0].transaction

    def payload_digest(self) -> str:
        """Digest of the batch, memoised in the (immutable) instance's slot."""
        cached = getattr(self, "_item_digest", None)
        if cached is None:
            hasher = hashlib.sha256(b"RB")
            for request in self.requests:
                hasher.update(b"|")
                hasher.update(request.payload_digest().encode())
            cached = hasher.hexdigest()
            object.__setattr__(self, "_item_digest", cached)
        return cached


@dataclass(frozen=True, slots=True)
class ClientReply:
    """Reply sent back to the client once its transaction is executed."""

    tx_id: str
    node: NodeId
    cluster: ClusterId
    view: int
    success: bool
    cross_shard: bool = False


# ----------------------------------------------------------------------
# Intra-shard consensus, crash failure model (Paxos, Figure 3a)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PaxosAccept:
    """Primary → backups: accept ``item`` at ``slot`` (carries ``H(t)``)."""

    view: int
    slot: int
    digest: str
    item: object


@dataclass(frozen=True, slots=True)
class PaxosAccepted:
    """Backup → primary: acknowledgement of an accept message."""

    view: int
    slot: int
    digest: str
    node: NodeId


@dataclass(frozen=True, slots=True)
class PaxosCommit:
    """Primary → backups: ``slot`` is decided; execute and append."""

    view: int
    slot: int
    digest: str
    item: object


# ----------------------------------------------------------------------
# Intra-shard consensus, Byzantine failure model (PBFT, Figure 3b)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PrePrepare:
    """Primary → backups: signed pre-prepare for ``slot``."""

    view: int
    slot: int
    digest: str
    item: object

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class Prepare:
    """Replica → replicas: signed prepare matching a pre-prepare."""

    view: int
    slot: int
    digest: str
    node: NodeId

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class PBFTCommit:
    """Replica → replicas: signed commit for ``slot``."""

    view: int
    slot: int
    digest: str
    node: NodeId

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


# ----------------------------------------------------------------------
# View change (shared by both intra-shard protocols)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ViewChange:
    """Replica → replicas: the sender suspects the primary of ``view - 1``.

    ``decided`` and ``accepted`` summarise the sender's log so the new
    primary can re-propose undecided slots.  ``checkpoint`` anchors the
    summary: it is the sender's stable-checkpoint low-water mark, every
    summarised slot lies above it, and the new primary never re-proposes
    at or below the highest reported checkpoint (slots there are
    certified decided-and-applied cluster-wide) — which is also what
    keeps view-change messages bounded once log compaction runs.

    ``signature`` binds the vote to its sender beyond the pairwise
    channel authentication: view-change messages are *relayed* inside
    :class:`NewView` / :class:`NewViewAnnouncement` certificates, where
    the receiver never talked to the original sender, so the claimed
    ``node`` must be verifiable from the message itself.  A Byzantine
    node cannot produce a valid signature of a correct node (it can only
    fabricate ``forged`` signatures, which never verify).
    """

    new_view: int
    node: NodeId
    decided: tuple[tuple[int, str], ...]
    accepted: tuple[tuple[int, str, object], ...] = ()
    checkpoint: int = 0
    signature: Signature | None = None

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class NewView:
    """New primary → replicas: install ``view`` and re-propose ``entries``.

    ``certificate`` carries the quorum of signed :class:`ViewChange`
    votes (``2f + 1`` in the Byzantine model, ``f + 1`` under crash
    faults) that elected this primary.  Backups verify the certificate —
    distinct cluster members, matching ``new_view``, valid signatures —
    before adopting the view, so a Byzantine replica cannot self-elect
    by inflating view numbers (the ``forged-view`` adversary behaviour).
    """

    view: int
    node: NodeId
    entries: tuple[tuple[int, object], ...]
    certificate: tuple[ViewChange, ...] = ()

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class NewViewAnnouncement:
    """New primary → nodes of every *other* cluster: authenticated fail-over.

    Cross-shard consensus needs every node to know which node currently
    speaks for each remote cluster (proposals from anyone else are
    dropped).  Rather than trusting a bare claim — exactly the forged
    view surface the certificate closes locally — the new primary
    multicasts the same ``2f + 1`` (``f + 1`` crash) signed view-change
    certificate cluster-wide; receivers verify it against the announced
    cluster's membership before updating their remote-primary table.
    """

    cluster: ClusterId
    view: int
    node: NodeId
    certificate: tuple[ViewChange, ...]

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


# ----------------------------------------------------------------------
# Cross-shard consensus, crash failure model (Algorithm 1)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CrossPropose:
    """Initiator primary → nodes of every involved cluster (``PROPOSE``).

    ``request`` is the full client request being ordered; ``initiator_slot``
    is the position the initiator cluster reserves for the transaction (the
    ``h_i`` reference of Algorithm 1).
    """

    digest: str
    request: object
    involved: tuple[ClusterId, ...]
    initiator_cluster: ClusterId
    initiator_slot: int
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class CrossAccept:
    """Node of an involved cluster → initiator primary (``ACCEPT``).

    The ``slot`` field is the position the sender's cluster reserves for
    the transaction (the role played by ``h_j`` in the paper); it is set
    by the cluster primary and echoed by backups once known.
    """

    digest: str
    cluster: ClusterId
    node: NodeId
    slot: int | None
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class CrossCommit:
    """Initiator primary → nodes of every involved cluster (``COMMIT``).

    Carries the full agreed position vector (the ``h_i, h_j, h_k, ...``
    collected from the accept messages in the paper).
    """

    digest: str
    request: object
    positions: tuple[tuple[ClusterId, int], ...]
    proposer: ClusterId
    attempt: int = 0


# ----------------------------------------------------------------------
# Cross-shard consensus, Byzantine failure model (Algorithm 2)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CrossProposeB:
    """Signed ``PROPOSE`` multicast by the initiator primary."""

    digest: str
    request: object
    involved: tuple[ClusterId, ...]
    initiator_cluster: ClusterId
    initiator_slot: int
    attempt: int = 0

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class CrossAcceptB:
    """Signed ``ACCEPT`` multicast by every node of every involved cluster."""

    digest: str
    cluster: ClusterId
    node: NodeId
    slot: int | None
    attempt: int = 0

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class CrossCommitB:
    """Signed ``COMMIT`` multicast by every node of every involved cluster."""

    digest: str
    cluster: ClusterId
    node: NodeId
    positions: tuple[tuple[ClusterId, int], ...]
    attempt: int = 0

    verify_signatures: ClassVar[int] = 1
    sign_signatures: ClassVar[int] = 1


# ----------------------------------------------------------------------
# Active/passive replication support
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PassiveUpdate:
    """Active replica → passive replicas: execution result notification."""

    slot: int
    digest: str
    item: object
