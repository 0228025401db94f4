"""The dict-of-objects state store (the repo's original backend).

:class:`AccountStore` keeps one :class:`~repro.storage.base.Account`
object per account in a plain dict — simple, allocation-heavy, and the
right default for the paper's evaluation sizes (a few thousand accounts
per shard).  It participates in the incremental digest protocol of
:class:`~repro.storage.base.StateStore`: every write records the
account's pre-image, so ``state_digest()`` between checkpoints re-hashes
only the touched accounts instead of re-sorting the whole table.

For million-account populations use
:class:`repro.storage.columnar.ArrayAccountStore` instead (flat array
columns, lazy checkpoint snapshots); the two backends produce
bit-identical digests, replies, and audits.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from ..common.errors import (
    InsufficientBalanceError,
    UnknownAccountError,
    ValidationError,
)
from ..common.types import AccountId, ClientId, ShardId
from .base import Account, StateStore, resolve_owner

__all__ = ["AccountStore"]


class AccountStore(StateStore):
    """Mutable balance table backed by a dict of :class:`Account` objects."""

    backend_name = "dict"

    def __init__(self, shard: ShardId | None = None) -> None:
        super().__init__(shard)
        self._accounts: dict[AccountId, Account] = {}

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def create_account(self, account_id: AccountId, owner: ClientId, balance: int) -> Account:
        """Create a new account; fails if the id already exists."""
        if account_id in self._accounts:
            raise ValidationError(f"account {account_id} already exists")
        account = Account(account_id=account_id, owner=owner, balance=balance)
        self._note_write(account_id, None)
        self._accounts[account_id] = account
        self.version += 1
        return account

    @classmethod
    def bootstrap(
        cls,
        shard: ShardId,
        mapper,
        initial_balance: int,
        owner_of: "Mapping[AccountId, ClientId] | Callable[[AccountId], ClientId] | None" = None,
    ) -> "AccountStore":
        """Create a store pre-populated with every account of ``shard``."""
        store = cls(shard=shard)
        for raw_id in mapper.accounts_in_shard(shard):
            account_id = AccountId(raw_id)
            store.create_account(
                account_id, resolve_owner(owner_of, account_id), initial_balance
            )
        return store

    def clone(self) -> "AccountStore":
        """An independent deep copy (bootstrap sharing across replicas)."""
        copy = AccountStore(shard=self.shard)
        copy._accounts = {
            account_id: Account(
                account_id=account_id, owner=account.owner, balance=account.balance
            )
            for account_id, account in self._accounts.items()
        }
        return self._finish_clone(copy)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __contains__(self, account_id: AccountId) -> bool:
        return account_id in self._accounts

    def __len__(self) -> int:
        return len(self._accounts)

    def __iter__(self) -> Iterator[Account]:
        return iter(self._accounts.values())

    def account(self, account_id: AccountId) -> Account:
        """Return the account record or raise :class:`UnknownAccountError`."""
        try:
            return self._accounts[account_id]
        except KeyError:
            raise UnknownAccountError(f"unknown account {account_id}") from None

    def total_balance(self) -> int:
        """Sum of all balances in this store (conservation invariant)."""
        return sum(account.balance for account in self._accounts.values())

    def _entry(self, account_id: AccountId) -> tuple[ClientId, int]:
        account = self._accounts[account_id]
        return (account.owner, account.balance)

    def _entries(self) -> Iterator[tuple[AccountId, ClientId, int]]:
        for account_id, account in self._accounts.items():
            yield (account_id, account.owner, account.balance)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def deposit(self, account_id: AccountId, amount: int) -> None:
        """Credit ``amount`` to the account."""
        if amount < 0:
            raise ValidationError("deposit amount must be non-negative")
        account = self.account(account_id)
        self._note_write(account_id, (account.owner, account.balance))
        account.balance += amount
        self.version += 1

    def withdraw(self, account_id: AccountId, amount: int, requester: ClientId | None = None) -> None:
        """Debit ``amount`` from the account.

        If ``requester`` is given it must match the account owner,
        implementing the paper's "valid signature of its owner" check.
        """
        if amount < 0:
            raise ValidationError("withdrawal amount must be non-negative")
        account = self.account(account_id)
        if requester is not None and account.owner != requester:
            raise ValidationError(
                f"client {requester} does not own account {account_id}"
            )
        if account.balance < amount:
            raise InsufficientBalanceError(
                f"account {account_id} holds {account.balance} < {amount}"
            )
        self._note_write(account_id, (account.owner, account.balance))
        account.balance -= amount
        self.version += 1

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[AccountId, tuple[ClientId, int]]:
        """Cheap copy of the full state, used by tests and state transfer."""
        return {
            account_id: (account.owner, account.balance)
            for account_id, account in self._accounts.items()
        }

    def restore(self, snapshot: Mapping[AccountId, tuple[ClientId, int]]) -> None:
        """Replace the store contents with ``snapshot``."""
        self._accounts = {
            account_id: Account(account_id=account_id, owner=owner, balance=balance)
            for account_id, (owner, balance) in snapshot.items()
        }
        self._reset_digest()
        self.version += 1
