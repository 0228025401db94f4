"""Byzantine *client* behaviours — the request-path adversary library.

The replica-side library (:mod:`repro.adversary.behaviors`) attacks
consensus from inside a cluster; the behaviours here attack it from the
outside, through the client request path the paper assumes to be
correct.  They are the same mechanism — clients are simulated processes,
so a :class:`~repro.adversary.interceptor.MessageInterceptor` attached
by :meth:`repro.api.FaultSchedule.make_client_byzantine` filters
their outbound traffic exactly like a replica's — but they target the
invariants the replica-side :class:`~repro.core.guard.RequestGuard`
defends:

* ``duplicating-client`` — re-emits every request as a mutated-timestamp
  duplicate (same transaction, fresh request digest, defeating naive
  digest-keyed dedup) and replays older requests verbatim; at-most-once
  execution must survive.
* ``forged-signature-client`` — pairs every honest request with a copy
  re-attributed to another client under a forged signature (the
  impersonation the paper's signed ``⟨REQUEST, tx, τ_c, c⟩σ_c`` exists
  to prevent); authentication must reject it.
* ``ownership-violator-client`` — additionally submits transfers drawn
  from accounts the client does not own; the static ownership screen
  must refuse them at every involved cluster (without it, a cross-shard
  theft would fail validation at the source cluster yet still deposit
  remotely, breaking balance conservation).

All behaviours keep the client's *own* honest request flowing, so the
closed loop keeps issuing traffic and the attack sustains for the whole
run.  Like every behaviour, they are seeded and deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as dataclass_replace
from typing import Sequence

from ..common.crypto import Signature
from ..common.types import AccountId, ClientId
from ..consensus.messages import ClientRequest
from ..txn.transaction import Transaction, Transfer
from .behaviors import AdversaryBehavior, register_behavior
from .interceptor import Outbound

__all__ = [
    "ClientBehavior",
    "DuplicatingClient",
    "ForgedSignatureClient",
    "OwnershipViolatorClient",
]


class ClientBehavior(AdversaryBehavior):
    """Base class for Byzantine client behaviours (``target = "client"``)."""

    target = "client"

    def mapper(self):
        """Shard mapper of the host client's workload (None off-host)."""
        workload = getattr(self.process, "workload", None)
        return getattr(workload, "mapper", None)


@register_behavior("duplicating-client")
class DuplicatingClient(ClientBehavior):
    """Duplicate and replay requests to attack at-most-once execution.

    Every outbound request departs three ways: the original, a copy with
    a nudged timestamp — same transaction id, *different* request digest,
    so it slips past any digest-keyed duplicate detection and would
    commit the transaction at a second slot if replicas did not dedup by
    transaction — and (once history exists) a verbatim replay of an
    older, typically already-committed request.
    """

    def __init__(self, seed: int = 0, replay_depth: int = 8) -> None:
        super().__init__(seed)
        self._history: deque[ClientRequest] = deque(maxlen=replay_depth)
        self.duplicates_sent = 0
        self.replays_sent = 0

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) is not ClientRequest:
            return self.pass_through()
        duplicate = dataclass_replace(
            message,
            timestamp=message.timestamp + 1e-7 * (1 + self.rng.randrange(4)),
        )
        self.duplicates_sent += 1
        actions = [
            Outbound(dst=dst, message=message),
            Outbound(dst=dst, message=duplicate, extra_delay=1e-4),
        ]
        if self._history and self.rng.random() < 0.5:
            replayed = self._history[self.rng.randrange(len(self._history))]
            self.replays_sent += 1
            actions.append(Outbound(dst=dst, message=replayed, extra_delay=2e-4))
        self._history.append(message)
        return self.emit(*actions)


@register_behavior("forged-signature-client")
class ForgedSignatureClient(ClientBehavior):
    """Pair every request with a forged-signature impersonation attempt.

    The forged copy claims to come from another application client and
    carries a fabricated signature (``forged=True`` — the adversary
    cannot produce valid signatures of clients it does not control).
    Replicas with request authentication armed drop it at the door;
    without authentication it would still fail the ownership check at
    execution, but only after consuming an ordering slot.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.forged_sent = 0

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) is not ClientRequest:
            return self.pass_through()
        transaction = message.transaction
        victim = ClientId(int(transaction.client) + 1)
        forged_tx = Transaction(
            tx_id=f"{transaction.tx_id}-forged{self.seed}",
            client=victim,
            transfers=transaction.transfers,
            timestamp=transaction.timestamp,
            signature=Signature(signer=int(victim), payload_digest="forged", forged=True),
        )
        forged = ClientRequest(
            transaction=forged_tx,
            client=victim,
            timestamp=message.timestamp,
            reply_to=message.reply_to,
        )
        self.forged_sent += 1
        return self.emit(
            Outbound(dst=dst, message=message),
            Outbound(dst=dst, message=forged, extra_delay=1e-4),
        )


@register_behavior("ownership-violator-client")
class OwnershipViolatorClient(ClientBehavior):
    """Submit transfers from accounts the client does not own.

    Alongside each honest request, the client attempts a theft: an
    (unsigned, hence superficially plausible) transaction moving funds
    from an *adjacent* account — same shard, so the request looks
    routine, but owned by a different application client under the
    static modulo ownership assignment.  The replica-side ownership
    screen must refuse it everywhere; balance conservation and the
    honest owner's funds must be untouched.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.thefts_sent = 0

    def _stolen_source(self, source: AccountId) -> AccountId | None:
        mapper = self.mapper()
        if mapper is None:
            return None
        shard = mapper.shard_of(source)
        for candidate in (AccountId(int(source) + 1), AccountId(int(source) - 1)):
            try:
                if mapper.shard_of(candidate) == shard:
                    return candidate
            except Exception:
                # Outside the keyspace (shard boundary); try the other side.
                continue
        return None

    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        if type(message) is not ClientRequest:
            return self.pass_through()
        transaction = message.transaction
        source = transaction.transfers[0].source
        stolen = self._stolen_source(source)
        if stolen is None:
            return self.pass_through()
        theft_tx = Transaction(
            tx_id=f"{transaction.tx_id}-theft{self.seed}",
            client=transaction.client,
            transfers=(
                Transfer(
                    source=stolen,
                    destination=source,
                    amount=1 + self.rng.randrange(10),
                ),
            ),
            timestamp=transaction.timestamp,
        )
        theft = ClientRequest(
            transaction=theft_tx,
            client=transaction.client,
            timestamp=message.timestamp,
            reply_to=message.reply_to,
        )
        self.thefts_sent += 1
        return self.emit(
            Outbound(dst=dst, message=message),
            Outbound(dst=dst, message=theft, extra_delay=1e-4),
        )
