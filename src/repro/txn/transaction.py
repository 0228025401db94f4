"""Transaction types for the accounting application.

A transaction is a signed client request containing one or more asset
transfers (the paper: "Clients of the application can initiate
transactions to transfer assets from one or more of their accounts to
other accounts"; "A transaction might read and write several records").

Whether a transaction is *intra-shard* or *cross-shard* is not intrinsic
to the transaction — it depends on how accounts are mapped to shards — so
the classification helpers take a :class:`~repro.txn.accounts.ShardMapper`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterable

from ..common.crypto import KeyPair, Signature, digest, memo_slots
from ..common.errors import ValidationError
from ..common.types import AccountId, ClientId, ShardId
from .accounts import ShardMapper

__all__ = ["Transfer", "Transaction", "new_tx_id"]

_tx_counter = itertools.count()


def new_tx_id(client: ClientId) -> str:
    """Generate a unique, human-readable transaction identifier."""
    return f"tx-{client}-{next(_tx_counter)}"


@dataclass(frozen=True, slots=True)
class Transfer:
    """Move ``amount`` units from ``source`` to ``destination``."""

    source: AccountId
    destination: AccountId
    amount: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValidationError("transfer amount must be positive")
        if self.source == self.destination:
            raise ValidationError("transfer source and destination must differ")


@dataclass(frozen=True, slots=True)
class Transaction(memo_slots("_payload_digest", "_involved_clusters")):
    """A client request: an ordered list of transfers plus metadata.

    ``timestamp`` is the client-assigned request timestamp ``τ_c`` used in
    the paper's ``⟨REQUEST, tx, τ_c, c⟩σ_c`` message.
    """

    tx_id: str
    client: ClientId
    transfers: tuple[Transfer, ...]
    timestamp: float = 0.0
    signature: Signature | None = None

    def __post_init__(self) -> None:
        if not self.transfers:
            raise ValidationError("a transaction must contain at least one transfer")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def payload_digest(self) -> str:
        """Digest ``D(m)`` over the transaction body (excludes signature).

        SHA-256 over a flat, unambiguous encoding of the body fields,
        memoised in the (frozen) instance's slot — every replica that
        orders or executes the transaction reuses the cached value.
        """
        cached = getattr(self, "_payload_digest", None)
        if cached is not None:
            return cached
        transfers = ";".join(
            f"{int(t.source)}>{int(t.destination)}:{t.amount}" for t in self.transfers
        )
        value = hashlib.sha256(
            f"TX|{self.tx_id}|{int(self.client)}|{transfers}|{self.timestamp!r}".encode()
        ).hexdigest()
        object.__setattr__(self, "_payload_digest", value)
        return value

    # ------------------------------------------------------------------
    # sharding classification
    # ------------------------------------------------------------------
    def involved_shards(self, mapper: ShardMapper) -> frozenset[ShardId]:
        """Shards whose records this transaction accesses.

        One pass over the transfers, one ``shards_of`` call, no memo: the
        layers of a run ask :func:`repro.core.sharding.involved_clusters`,
        which classifies once and shares the answer with the payload.
        """
        accounts: list[AccountId] = []
        for transfer in self.transfers:
            accounts += (transfer.source, transfer.destination)
        return mapper.shards_of(accounts)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def transfer(
        cls,
        client: ClientId,
        source: AccountId,
        destination: AccountId,
        amount: int,
        timestamp: float = 0.0,
        keypair: KeyPair | None = None,
        tx_id: str | None = None,
    ) -> "Transaction":
        """Build a single-transfer transaction, optionally signed."""
        return cls.multi_transfer(
            client,
            [Transfer(source=source, destination=destination, amount=amount)],
            timestamp=timestamp,
            keypair=keypair,
            tx_id=tx_id,
        )

    @classmethod
    def multi_transfer(
        cls,
        client: ClientId,
        transfers: Iterable[Transfer],
        timestamp: float = 0.0,
        keypair: KeyPair | None = None,
        tx_id: str | None = None,
    ) -> "Transaction":
        """Build a multi-transfer transaction, optionally signed."""
        transfers = tuple(transfers)
        tx_id = tx_id or new_tx_id(client)
        transaction = cls(
            tx_id=tx_id,
            client=client,
            transfers=transfers,
            timestamp=timestamp,
        )
        if keypair is not None:
            # Signed in place, before the instance escapes: building a
            # second, signed copy would drop the digest memo and make the
            # first ``payload_digest()`` on the wire hash the body again.
            object.__setattr__(
                transaction, "signature", keypair.sign(transaction.payload_digest())
            )
        return transaction

    def verify_signature(self) -> bool:
        """Check the client signature, if present."""
        if self.signature is None:
            return False
        if self.signature.forged:
            return False
        if self.signature.signer != self.client:
            return False
        return self.signature.payload_digest == digest(self.payload_digest())
