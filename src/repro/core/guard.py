"""Replica-side client-request screening (the Byzantine-client defence).

The paper assumes correct clients; :class:`RequestGuard` removes that
assumption.  Armed on every replica the moment *any* adversary enters a
run (:meth:`repro.core.system.BaseSystem.arm_request_guards`), it
screens each client request at the door — before it can reach consensus
— and backstops the apply path:

* **authentication** — a request whose transaction carries a signature
  that does not verify (forged flag, signer ≠ claimed client, digest
  mismatch) is dropped; the transport prevents *sender* spoofing, the
  signature prevents *content* spoofing by relays and Byzantine clients;
* **ownership** — account ownership is a static, deterministic mapping,
  so a transfer whose source is not owned by the issuing client is
  refused everywhere, including at clusters that only hold the
  destination shard (without this, a cross-shard theft attempt would
  fail validation at the source cluster but still deposit remotely,
  minting money);
* **per-client sequence dedup** — each client *process* is a closed
  loop, so its request timestamps are strictly increasing; a request
  whose timestamp lies below the latest transaction this replica
  committed for that client — and whose transaction is not simply a
  retry of something already committed — is a replay and is dropped;
* **in-flight duplicate dedup** — a transaction id already pending under
  a *different* request digest (a replayed request with a mutated
  timestamp would otherwise slip past the digest-keyed dedup and commit
  the same transaction at two slots) is dropped while the original is
  in flight; together with the apply-time backstop
  (:meth:`RequestGuard.is_duplicate_apply`, which no-op-fills any
  duplicate a Byzantine *primary* smuggles past the door), this is what
  keeps **at-most-once** execution intact under arbitrary duplicated,
  replayed, or mutated client traffic.

Arming is a swap of values, the same seam as the flight recorder's:
every replica starts with an :class:`InertGuard`, which admits every
request, keeps no books and backstops the apply path with the chain's
own duplicate index, so replica code calls its guard unconditionally.
Faultless runs never construct a :class:`RequestGuard`.  All screening
is deterministic, so serial and pooled runs stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..common.types import AccountId, ClientId
from ..consensus.batching import member_requests

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..consensus.messages import ClientRequest
    from ..ledger.view import ClusterView
    from ..obs.journal import Journal

__all__ = ["ADMIT", "DROP", "REFUSE", "InertGuard", "RequestGuard"]

#: screening verdicts: admit to the normal path, drop silently, or drop
#: and answer the client with a failure reply (invalid-but-authentic
#: requests, e.g. ownership violations, where the submitter deserves an
#: answer instead of a retry loop).
ADMIT, DROP, REFUSE = range(3)


class RequestGuard:
    """Screens client requests for one replica; each refusal is a ``journal`` row."""

    __slots__ = ("chain", "journal", "owner_of", "_last_committed", "_pending_tx")

    def __init__(self, chain: "ClusterView", journal: "Journal",
                 owner_of: Callable[[AccountId], ClientId] | None = None) -> None:
        self.chain = chain
        self.journal = journal
        self.owner_of = owner_of
        #: client process id → timestamp of the latest request this
        #: replica committed for it (closed-loop clients submit with
        #: strictly increasing timestamps, so anything below is a replay).
        self._last_committed: dict[int, float] = {}
        #: transaction id → request digest currently being ordered here.
        self._pending_tx: dict[str, str] = {}

    # ------------------------------------------------------------------
    # the door
    # ------------------------------------------------------------------
    def screen(self, request: "ClientRequest") -> int:
        """Screen one request; registers it as pending when admitted."""
        transaction = request.transaction
        signature = transaction.signature
        if signature is not None and not transaction.verify_signature():
            self.journal.note("request_forged", detail=f"tx {transaction.tx_id}")
            return DROP
        owner_of = self.owner_of
        if owner_of is not None:
            client = transaction.client
            for transfer in transaction.transfers:
                if owner_of(transfer.source) != client:
                    self.journal.note("request_not_owner", detail=f"tx {transaction.tx_id}")
                    return REFUSE
        tx_id = transaction.tx_id
        already_committed = self.chain.contains_tx(tx_id)
        last = self._last_committed.get(request.reply_to)
        if last is not None and request.timestamp < last and not already_committed:
            self.journal.note("request_replayed", detail=f"tx {tx_id}")
            return DROP
        digest = request.payload_digest()
        pending = self._pending_tx.get(tx_id)
        if pending is not None and pending != digest:
            self.journal.note("request_duplicate", None, digest, f"tx {tx_id}")
            return DROP
        if pending is None and not already_committed:
            # Register only transactions actually heading for ordering:
            # retries of committed transactions are answered from the
            # chain's duplicate index and must not leave an entry
            # nothing will ever clean up.
            self._pending_tx[tx_id] = digest
        return ADMIT

    def screen_item(self, item: object) -> int:
        """Worst verdict across an ordered item's members.

        Cross-shard proposals are screened at every involved cluster; for a
        batch, *all* members must be admissible — a single forged or
        ownership-violating member poisons the whole batch (no correct node
        accepts it, so its quorum never forms and the honest members retry
        through a fresh batch after the initiator gives up).
        """
        worst = ADMIT
        for request in member_requests(item):
            verdict = self.screen(request)
            if verdict != ADMIT:
                worst = max(worst, verdict)
        return worst

    # ------------------------------------------------------------------
    # apply-side bookkeeping
    # ------------------------------------------------------------------
    def committed(self, request: "ClientRequest") -> None:
        """Record that ``request`` was applied (advance the client window)."""
        self._pending_tx.pop(request.transaction.tx_id, None)
        reply_to = request.reply_to
        if reply_to < 0:
            return
        last = self._last_committed.get(reply_to)
        if last is None or request.timestamp > last:
            self._last_committed[reply_to] = request.timestamp

    def abandoned(self, tx_id: str) -> None:
        """Forget a pending registration whose slot resolved without a commit.

        Called when an ordered slot is filled with a no-op instead of
        the transaction (cross-shard atomicity backstop, termination
        fill): the client's retry re-runs the instance under the *same*
        request digest, so dropping the entry is safe and keeps the
        pending map from leaking abandoned instances.
        """
        self._pending_tx.pop(tx_id, None)

    def is_duplicate_apply(self, tx_id: str) -> bool:
        """Apply-time at-most-once backstop: already committed here?

        Catches duplicates ordered past the door (e.g. proposed directly
        by a Byzantine primary): the caller fills the slot with a no-op
        instead of executing — every correct replica of the cluster
        applies slots in the same order, so the decision is identical
        cluster-wide and no fork arises.
        """
        if self.chain.contains_tx(tx_id):
            self.journal.note("apply_deduped", detail=f"tx {tx_id}")
            self._pending_tx.pop(tx_id, None)
            return True
        return False


class InertGuard:
    """The guard of a replica no adversary has reached (see module docstring)."""

    __slots__ = ("is_duplicate_apply",)

    def __init__(self, chain: "ClusterView") -> None:
        self.is_duplicate_apply = chain.contains_tx

    def screen(self, request: object) -> int:
        return ADMIT

    def committed(self, request: object) -> None:
        return None

    screen_item = screen
    abandoned = committed
