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
from dataclasses import dataclass, field
from typing import Iterable

from ..common.crypto import KeyPair, Signature, digest
from ..common.errors import ValidationError
from ..common.types import AccountId, ClientId, ShardId, TxType
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

    @property
    def accounts(self) -> tuple[AccountId, AccountId]:
        """Accounts read/written by this transfer."""
        return (self.source, self.destination)


@dataclass(frozen=True)
class Transaction:
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
    @property
    def accounts(self) -> frozenset[AccountId]:
        """All accounts read or written by the transaction (memoised)."""
        cached = self.__dict__.get("_accounts")
        if cached is None:
            cached = frozenset(
                account for transfer in self.transfers for account in transfer.accounts
            )
            object.__setattr__(self, "_accounts", cached)
        return cached

    def payload_digest(self) -> str:
        """Digest ``D(m)`` over the transaction body (excludes signature).

        SHA-256 over a flat, unambiguous encoding of the body fields,
        memoised on the (frozen) instance — every replica that orders or
        executes the transaction reuses the cached value.
        """
        cached = self.__dict__.get("_payload_digest")
        if cached is not None:
            return cached
        transfers = ";".join(
            f"{int(t.source)}>{int(t.destination)}:{t.amount}" for t in self.transfers
        )
        value = hashlib.sha256(
            f"TX|{self.tx_id}|{int(self.client)}|{transfers}|{self.timestamp!r}".encode()
        ).hexdigest()
        # Cache on the instance; the dataclass is frozen so use object.__setattr__.
        object.__setattr__(self, "_payload_digest", value)
        return value

    # ------------------------------------------------------------------
    # sharding classification
    # ------------------------------------------------------------------
    def involved_shards(self, mapper: ShardMapper) -> frozenset[ShardId]:
        """Shards whose records this transaction accesses.

        Memoised per mapper *value*: a request is classified by its
        client, by the routing layer, and by every replica that orders it
        — against equal but not always identical shard mappers — so the
        set is computed once and the cached value is shared wherever the
        payload travels.
        """
        cached = self.__dict__.get("_involved_shards")
        if cached is not None and (cached[0] is mapper or cached[0] == mapper):
            return cached[1]
        shards = mapper.shards_of(self.accounts)
        object.__setattr__(self, "_involved_shards", (mapper, shards))
        return shards

    def tx_type(self, mapper: ShardMapper) -> TxType:
        """Whether the transaction is intra- or cross-shard under ``mapper``."""
        return TxType.INTRA_SHARD if len(self.involved_shards(mapper)) == 1 else TxType.CROSS_SHARD

    def is_cross_shard(self, mapper: ShardMapper) -> bool:
        """Convenience predicate for :meth:`tx_type`."""
        return self.tx_type(mapper) is TxType.CROSS_SHARD

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
