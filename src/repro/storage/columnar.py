"""Columnar million-account state store: flat array columns, O(1) lookup.

:class:`ArrayAccountStore` stores a shard's balance table in flat
``array('q')`` columns indexed by *dense* account ids.
:class:`~repro.txn.accounts.ShardMapper` assigns a shard a contiguous
range of account ids, so ``dense_index = account_id - first`` gives O(1)
lookup with no per-account Python objects — at one million accounts the
resident footprint is two 8 MB arrays plus a presence bitmap, instead of
a dict of a million :class:`~repro.storage.base.Account` objects.
Accounts outside the range (tests creating ad-hoc ids) fall back
to a small overflow dict.

Two properties make the backend checkpointable at this scale:

* the **incremental digest** inherited from
  :class:`~repro.storage.base.StateStore` — a checkpoint digest costs
  ``O(accounts changed since the last checkpoint)``;
* **lazy checkpoint snapshots** (:meth:`ArrayAccountStore.checkpoint_snapshot`):
  instead of copying the table per checkpoint, the store opens an *undo
  epoch* that records the pre-image of each account the first time it is
  written after the checkpoint.  A :class:`ColumnarSnapshot` is a
  Mapping view that materialises on demand by walking the undo frames
  newest-to-oldest (older pre-images overwrite newer ones), and caches
  the result.  Frames older than every live snapshot are released at the
  next checkpoint, so retained undo state is bounded by the checkpoint
  manager's pending-record window.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Callable, Iterator, Mapping

from ..common.errors import (
    InsufficientBalanceError,
    UnknownAccountError,
    ValidationError,
)
from ..common.types import AccountId, ClientId, ShardId
from .base import Account, StateStore, resolve_owner

__all__ = ["ArrayAccountStore", "ColumnarSnapshot"]


class ColumnarSnapshot(Mapping):
    """Lazy ``id -> (owner, balance)`` view of a store at checkpoint ``seq``.

    Materialises (and caches) the full mapping on first access; until
    then it holds no per-account state.  Safe to ship in state-transfer
    responses: it satisfies the Mapping protocol that
    :meth:`repro.storage.base.StateStore.snapshot_digest` and
    ``store.restore`` consume.
    """

    def __init__(self, store: "ArrayAccountStore", seq: int) -> None:
        self._store = store
        self.seq = seq
        self._data: dict[AccountId, tuple[ClientId, int]] | None = None

    @property
    def materialized(self) -> bool:
        """Whether the snapshot has been expanded to an eager dict yet."""
        return self._data is not None

    def _ensure(self) -> dict[AccountId, tuple[ClientId, int]]:
        if self._data is None:
            self._data = self._store._materialize_at(self.seq)
        return self._data

    def __getitem__(self, account_id: AccountId) -> tuple[ClientId, int]:
        return self._ensure()[account_id]

    def __iter__(self) -> Iterator[AccountId]:
        return iter(self._ensure())

    def __len__(self) -> int:
        return len(self._ensure())

    def items(self):
        return self._ensure().items()

    # Mapping sets __hash__ to None; snapshots are tracked by identity
    # in the store's WeakSet, so restore identity hashing.
    __hash__ = object.__hash__


class ArrayAccountStore(StateStore):
    """Balance table in flat columns, keyed by dense account indices."""

    backend_name = "columnar"

    def __init__(
        self,
        shard: ShardId | None = None,
        first_id: int = 0,
        capacity: int = 0,
    ) -> None:
        super().__init__(shard)
        self._first = int(first_id)
        self._capacity = int(capacity)
        self._balances = array("q", bytes(8 * self._capacity))
        self._owners = array("q", bytes(8 * self._capacity))
        self._present = bytearray(self._capacity)
        #: accounts outside the dense range (ad-hoc test ids).
        self._extra: dict[AccountId, Account] = {}
        self._count = 0
        self._total = 0
        # -- lazy checkpoint snapshot machinery --------------------------
        #: pre-images of writes since the last checkpoint (None = no
        #: checkpoint snapshot is live, undo tracking is off).
        self._epoch_undo: dict[AccountId, tuple[ClientId, int] | None] | None = None
        #: checkpoint seq at which the open epoch started.
        self._epoch_seq = 0
        #: closed epochs, oldest first: ``(epoch_start_seq, undo dict)``.
        self._frames: list[tuple[int, dict]] = []
        self._snapshots: "weakref.WeakSet[ColumnarSnapshot]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # dense index mapping
    # ------------------------------------------------------------------
    def _slot(self, account_id: int) -> int | None:
        """Dense column index of ``account_id``, or None if out of range."""
        index = int(account_id) - self._first
        return index if 0 <= index < self._capacity else None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        shard: ShardId,
        mapper,
        initial_balance: int,
        owner_of: "Mapping[AccountId, ClientId] | Callable[[AccountId], ClientId] | None" = None,
    ) -> "ArrayAccountStore":
        """Create a store pre-populated with every account of ``shard``.

        ``mapper.accounts_in_shard`` returns a contiguous ``range``; its
        start becomes the store's dense-id offset and the columns are
        filled directly, bypassing the per-account ``create_account`` path.
        """
        if initial_balance < 0:
            raise ValidationError("accounts cannot start with negative balance")
        ids = mapper.accounts_in_shard(shard)
        store = cls(shard=shard, first_id=ids.start, capacity=len(ids))
        balances = store._balances
        owners = store._owners
        for slot, raw_id in enumerate(ids):
            balances[slot] = initial_balance
            owners[slot] = int(resolve_owner(owner_of, AccountId(raw_id)))
        store._present = bytearray(b"\x01" * len(ids))
        store._count = len(ids)
        store._total = initial_balance * len(ids)
        return store

    def create_account(self, account_id: AccountId, owner: ClientId, balance: int) -> Account:
        """Create a new account; fails if the id already exists."""
        if account_id in self:
            raise ValidationError(f"account {account_id} already exists")
        account = Account(account_id=account_id, owner=owner, balance=balance)
        self._note_write(account_id, None)
        slot = self._slot(account_id)
        if slot is None:
            self._extra[account_id] = account
        else:
            self._present[slot] = 1
            self._balances[slot] = balance
            self._owners[slot] = int(owner)
        self._count += 1
        self._total += balance
        self.version += 1
        return account

    def clone(self) -> "ArrayAccountStore":
        """An independent deep copy (bootstrap sharing across replicas).

        Snapshot/undo state is not cloned — clones start a fresh
        checkpoint history, exactly like a freshly bootstrapped replica.
        """
        copy = ArrayAccountStore(
            shard=self.shard,
            first_id=self._first,
            capacity=self._capacity,
        )
        copy._balances = self._balances[:]
        copy._owners = self._owners[:]
        copy._present = bytearray(self._present)
        copy._extra = {
            account_id: Account(
                account_id=account_id, owner=account.owner, balance=account.balance
            )
            for account_id, account in self._extra.items()
        }
        copy._count = self._count
        copy._total = self._total
        return self._finish_clone(copy)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __contains__(self, account_id: AccountId) -> bool:
        slot = self._slot(account_id)
        if slot is not None:
            return bool(self._present[slot])
        return account_id in self._extra

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Account]:
        for account_id, owner, balance in self._entries():
            yield Account(account_id=account_id, owner=owner, balance=balance)

    def account(self, account_id: AccountId) -> Account:
        """Materialise the account record (a fresh object per call).

        Mutations must go through :meth:`deposit`/:meth:`withdraw`;
        writing to the returned object does not touch the columns.
        """
        slot = self._slot(account_id)
        if slot is not None and self._present[slot]:
            return Account(
                account_id=account_id,
                owner=ClientId(self._owners[slot]),
                balance=self._balances[slot],
            )
        try:
            return self._extra[account_id]
        except KeyError:
            raise UnknownAccountError(f"unknown account {account_id}") from None

    def balance(self, account_id: AccountId) -> int:
        """Current balance of ``account_id`` (column read, no allocation)."""
        slot = self._slot(account_id)
        if slot is not None and self._present[slot]:
            return self._balances[slot]
        try:
            return self._extra[account_id].balance
        except KeyError:
            raise UnknownAccountError(f"unknown account {account_id}") from None

    def total_balance(self) -> int:
        """Sum of all balances (maintained incrementally, O(1))."""
        return self._total

    def _entry(self, account_id: AccountId) -> tuple[ClientId, int]:
        slot = self._slot(account_id)
        if slot is not None and self._present[slot]:
            return (ClientId(self._owners[slot]), self._balances[slot])
        account = self._extra[account_id]
        return (account.owner, account.balance)

    def _entries(self) -> Iterator[tuple[AccountId, ClientId, int]]:
        present = self._present
        balances = self._balances
        owners = self._owners
        first = self._first
        for slot in range(self._capacity):
            if present[slot]:
                yield (AccountId(first + slot), ClientId(owners[slot]), balances[slot])
        for account_id, account in self._extra.items():
            yield (account_id, account.owner, account.balance)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _note_write(
        self, account_id: AccountId, before: tuple[ClientId, int] | None
    ) -> None:
        pending = self._pending
        if account_id not in pending:
            pending[account_id] = before
        undo = self._epoch_undo
        if undo is not None and account_id not in undo:
            undo[account_id] = before

    def deposit(self, account_id: AccountId, amount: int) -> None:
        """Credit ``amount`` to the account."""
        if amount < 0:
            raise ValidationError("deposit amount must be non-negative")
        slot = self._slot(account_id)
        if slot is not None and self._present[slot]:
            self._note_write(account_id, (ClientId(self._owners[slot]), self._balances[slot]))
            self._balances[slot] += amount
        else:
            account = self._extra.get(account_id)
            if account is None:
                raise UnknownAccountError(f"unknown account {account_id}")
            self._note_write(account_id, (account.owner, account.balance))
            account.balance += amount
        self._total += amount
        self.version += 1

    def withdraw(self, account_id: AccountId, amount: int, requester: ClientId | None = None) -> None:
        """Debit ``amount``; ``requester`` (when given) must own the account."""
        if amount < 0:
            raise ValidationError("withdrawal amount must be non-negative")
        slot = self._slot(account_id)
        if slot is not None and self._present[slot]:
            owner = ClientId(self._owners[slot])
            balance = self._balances[slot]
        else:
            account = self._extra.get(account_id)
            if account is None:
                raise UnknownAccountError(f"unknown account {account_id}")
            owner = account.owner
            balance = account.balance
        if requester is not None and owner != requester:
            raise ValidationError(
                f"client {requester} does not own account {account_id}"
            )
        if balance < amount:
            raise InsufficientBalanceError(
                f"account {account_id} holds {balance} < {amount}"
            )
        self._note_write(account_id, (owner, balance))
        if slot is not None and self._present[slot]:
            self._balances[slot] -= amount
        else:
            self._extra[account_id].balance -= amount
        self._total -= amount
        self.version += 1

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def checkpoint_snapshot(self, seq: int) -> ColumnarSnapshot:
        """Open a new undo epoch and return a lazy snapshot at ``seq``.

        Called by the checkpoint manager right after applying slot
        ``seq``; O(1) — no account data is copied until (unless) the
        snapshot is actually read, e.g. to serve a state transfer.
        """
        # Close the epoch that was accumulating since the last checkpoint.
        if self._epoch_undo is not None:
            self._frames.append((self._epoch_seq, self._epoch_undo))
        # Release frames no live, unmaterialised snapshot can still need.
        live = [
            snap.seq for snap in self._snapshots if not snap.materialized
        ]
        floor = min(live) if live else seq
        self._frames = [frame for frame in self._frames if frame[0] >= floor]
        self._epoch_undo = {}
        self._epoch_seq = seq
        snapshot = ColumnarSnapshot(self, seq)
        self._snapshots.add(snapshot)
        return snapshot

    def _materialize_at(self, seq: int) -> dict[AccountId, tuple[ClientId, int]]:
        """Current state rolled back to checkpoint ``seq`` via undo frames.

        Pre-image layers are applied newest-to-oldest with unconditional
        assignment, so for an account written in several epochs the
        oldest pre-image at or after ``seq`` — its value *at* ``seq`` —
        wins.  ``None`` pre-images (account did not exist) delete.
        """
        data = self.snapshot()
        layers: list[dict] = []
        if self._epoch_undo is not None and self._epoch_seq >= seq:
            layers.append(self._epoch_undo)
        for epoch_start, undo in reversed(self._frames):
            if epoch_start >= seq:
                layers.append(undo)
        for undo in layers:
            for account_id, before in undo.items():
                if before is None:
                    data.pop(account_id, None)
                else:
                    data[account_id] = before
        return data

    def restore(self, snapshot: Mapping[AccountId, tuple[ClientId, int]]) -> None:
        """Replace the store contents with ``snapshot``.

        Live lazy snapshots are materialised first: their undo frames
        are expressed against the *current* columns, which this call is
        about to overwrite wholesale.
        """
        for snap in list(self._snapshots):
            snap._ensure()
        self._frames = []
        self._epoch_undo = None
        self._epoch_seq = 0
        self._balances = array("q", bytes(8 * self._capacity))
        self._owners = array("q", bytes(8 * self._capacity))
        self._present = bytearray(self._capacity)
        self._extra = {}
        count = 0
        total = 0
        for account_id, (owner, balance) in snapshot.items():
            slot = self._slot(account_id)
            if slot is None:
                self._extra[account_id] = Account(
                    account_id=account_id, owner=owner, balance=balance
                )
            else:
                self._present[slot] = 1
                self._balances[slot] = balance
                self._owners[slot] = int(owner)
            count += 1
            total += balance
        self._count = count
        self._total = total
        self._reset_digest()
        self.version += 1
