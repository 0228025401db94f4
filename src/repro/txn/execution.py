"""Transaction validation and execution against a shard's account store.

Each cluster replicates one shard.  An intra-shard transaction touches
only local accounts and is validated/executed entirely by the cluster.
A cross-shard transaction touches accounts from several shards; each
involved cluster validates and applies only the operations that touch its
own shard (the global consensus protocol guarantees every involved
cluster applies the transaction at the same position, which is what makes
this safe — Section 3.2/3.3).
"""

from __future__ import annotations

from typing import NamedTuple

from ..common.errors import ValidationError
from ..common.types import ShardId
from ..storage import StateStore
from .accounts import ShardMapper
from .transaction import Transaction, Transfer

__all__ = ["ExecutionResult", "TransactionExecutor"]


class ExecutionResult(NamedTuple):
    """Outcome of executing one transaction on one shard.

    A named tuple, not a frozen dataclass: one is built per executed
    transaction and the commit path reads ``success`` and drops it.
    """

    tx_id: str
    success: bool
    applied_transfers: int
    error: str | None = None


class TransactionExecutor:
    """Validates and applies transactions to a single shard's state."""

    def __init__(self, store: StateStore, mapper: ShardMapper, shard: ShardId) -> None:
        self.store = store
        self.mapper = mapper
        self.shard = shard
        self.executed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _classify_local(
        self, transaction: Transaction
    ) -> list[tuple[Transfer, bool, bool]]:
        """Transfers touching this shard, with per-endpoint locality flags.

        Classified once per execution; validation and application both
        consume the same list, so each endpoint's shard is looked up
        exactly once.
        """
        shard = self.shard
        shard_of = self.mapper.shard_of
        local: list[tuple[Transfer, bool, bool]] = []
        for transfer in transaction.transfers:
            source_local = shard_of(transfer.source) == shard
            destination_local = shard_of(transfer.destination) == shard
            if source_local or destination_local:
                local.append((transfer, source_local, destination_local))
        return local

    def validate(
        self, transaction: Transaction, classified: list[tuple[Transfer, bool, bool]]
    ) -> None:
        """Raise :class:`ValidationError` if the local part is invalid.

        ``classified`` is :meth:`_classify_local` of ``transaction``.
        Checks ownership of source accounts stored locally (the paper's
        "valid signature of its owner" rule: the signer must be the
        account's owner) and that each locally-stored source holds
        sufficient balance for the sum of its outgoing transfers in this
        transaction.  Each local source is read once; ``remaining`` is
        what its transfers so far leave of it.
        """
        remaining: dict[int, int] = {}
        for transfer, source_local, _ in classified:
            if not source_local:
                continue
            source = transfer.source
            left = remaining.get(source)
            if left is None:
                left = self.store.balance(source)
                if self.store.owner(source) != transaction.client:
                    raise ValidationError(
                        f"client {transaction.client} does not own account {source}"
                    )
            remaining[source] = left - transfer.amount
        for account_id, left in remaining.items():
            if left < 0:
                balance = self.store.balance(account_id)
                raise ValidationError(
                    f"account {account_id} holds {balance} < {balance - left} "
                    f"required by {transaction.tx_id}"
                )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, transaction: Transaction) -> ExecutionResult:
        """Validate then apply the local part of ``transaction``.

        Execution is all-or-nothing for the local part: if validation
        fails nothing is applied and a failed result is returned.
        """
        classified = self._classify_local(transaction)
        try:
            self.validate(transaction, classified)
        except ValidationError as exc:
            self.failed += 1
            return ExecutionResult(transaction.tx_id, False, 0, str(exc))
        applied = 0
        for transfer, source_local, destination_local in classified:
            if source_local:
                self.store.withdraw(transfer.source, transfer.amount)
                applied += 1
            if destination_local:
                self.store.deposit(transfer.destination, transfer.amount)
                applied += 1
        self.executed += 1
        return ExecutionResult(transaction.tx_id, True, applied)
