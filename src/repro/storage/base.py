"""State-store interface and the incremental digest shared by every backend.

The accounting application's replicated state is a balance table.  This
module defines the contract every backend implements —
:class:`StateStore` — plus the one piece of machinery that must be
bit-identical across backends for checkpoints and state transfer to
work: the **store digest**.

The digest is an additive homomorphic hash: every account contributes a
256-bit *leaf* ``SHA-256(f"{id}:{owner}:{balance}")`` and the store
digest is the sum of all leaves modulo ``2**256``, rendered as 64 hex
digits.  Because addition commutes, the digest is order-independent, so

* a full-table pass (:meth:`StateStore.naive_state_digest`, the
  reference computation) and
* the incremental accumulator every store maintains — subtract the
  touched accounts' old leaves, add their new ones —

produce the same value.  Stores record the *pre-image* of each account
the first time it is written after a digest was computed
(:meth:`StateStore._note_write`), so :meth:`StateStore.state_digest`
costs ``O(accounts changed since the previous digest)`` instead of
``O(n log n)`` — the property that makes checkpointing a million-account
store affordable (see ``docs/storage.md``).

:class:`Account` also lives here (re-exported from
:mod:`repro.txn.accounts` for compatibility) so backends need nothing
from the transaction layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from ..common.errors import ValidationError
from ..common.types import AccountId, ClientId, ShardId

__all__ = ["Account", "StateStore", "leaf_hash", "DIGEST_MASK"]

#: the digest accumulator is a 256-bit ring (matching SHA-256 leaves).
DIGEST_MASK = (1 << 256) - 1


def leaf_hash(account_id: int, owner: int, balance: int) -> int:
    """The 256-bit leaf one account contributes to the store digest."""
    return int.from_bytes(
        hashlib.sha256(f"{int(account_id)}:{int(owner)}:{balance}".encode()).digest(),
        "big",
    )


#: :func:`leaf_hash` behind a bounded memo, for the *incremental* digest
#: only: the replicas of a cluster fold the same written accounts in, one
#: after another.  Table scans call :func:`leaf_hash`: they would flush it.
_memo_leaf_hash = lru_cache(maxsize=4096)(leaf_hash)


def resolve_owner(
    owner_of: "Mapping[AccountId, ClientId] | Callable[[AccountId], ClientId] | None",
    account_id: AccountId,
) -> ClientId:
    """Owner of ``account_id`` under a mapping, a callable, or the default."""
    if owner_of is None:
        return ClientId(int(account_id))
    if callable(owner_of):
        return owner_of(account_id)
    return owner_of[account_id]


@dataclass
class Account:
    """One client account: a balance and the public key of its owner.

    The paper models an account as the pair ``(amount, PK)``.  We store
    the owner's client id in place of the public key; ownership checks
    compare it against the transaction's signer.
    """

    account_id: AccountId
    owner: ClientId
    balance: int

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise ValidationError(f"account {self.account_id} cannot start with negative balance")


class StateStore:
    """Mutable balance table for (a shard of) the accounting application.

    Concrete backends (:class:`repro.storage.dict_store.AccountStore`,
    :class:`repro.storage.columnar.ArrayAccountStore`) implement the
    primitive accessors; this base class owns the digest bookkeeping so
    both backends produce bit-identical digests by construction.
    """

    #: registry name of the backend (``repro.storage.make_store``).
    backend_name = "abstract"

    def __init__(self, shard: ShardId | None = None) -> None:
        self.shard = shard
        self.version = 0
        #: memoised digest accumulator; ``None`` until first computed.
        self._digest_acc: int | None = None
        #: pre-images of accounts written since the last digest:
        #: ``account_id -> (owner, balance) | None`` (None = did not exist).
        self._pending: dict[AccountId, tuple[ClientId, int] | None] = {}
        #: ``(prototype, its version)`` of a clone taken from a store that
        #: had no digest yet (:meth:`_finish_clone`); gone after one digest.
        self._cloned_from: tuple[StateStore, int] | None = None

    # ------------------------------------------------------------------
    # primitive interface implemented by backends
    # ------------------------------------------------------------------
    def create_account(self, account_id: AccountId, owner: ClientId, balance: int) -> Account:
        """Create a new account; fails if the id already exists."""
        raise NotImplementedError

    def account(self, account_id: AccountId) -> Account:
        """Return the account record or raise ``UnknownAccountError``."""
        raise NotImplementedError

    def deposit(self, account_id: AccountId, amount: int) -> None:
        """Credit ``amount`` to the account."""
        raise NotImplementedError

    def withdraw(
        self, account_id: AccountId, amount: int, requester: ClientId | None = None
    ) -> None:
        """Debit ``amount``; ``requester`` (when given) must own the account."""
        raise NotImplementedError

    def snapshot(self) -> "Mapping[AccountId, tuple[ClientId, int]]":
        """Eager copy of the full state (``id -> (owner, balance)``)."""
        return {
            account_id: (owner, balance) for account_id, owner, balance in self._entries()
        }

    def restore(self, snapshot: "Mapping[AccountId, tuple[ClientId, int]]") -> None:
        """Replace the store contents with ``snapshot``."""
        raise NotImplementedError

    def total_balance(self) -> int:
        """Sum of all balances in this store (conservation invariant)."""
        raise NotImplementedError

    def clone(self) -> "StateStore":
        """An independent deep copy (bootstrap sharing across replicas)."""
        raise NotImplementedError

    def _entry(self, account_id: AccountId) -> tuple[ClientId, int]:
        """Current ``(owner, balance)`` of an existing account."""
        raise NotImplementedError

    def _entries(self) -> Iterator[tuple[AccountId, ClientId, int]]:
        """Iterate ``(account_id, owner, balance)`` over the whole table."""
        raise NotImplementedError

    def __contains__(self, account_id: AccountId) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Account]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared reads
    # ------------------------------------------------------------------
    def balance(self, account_id: AccountId) -> int:
        """Current balance of ``account_id``."""
        return self.account(account_id).balance

    # ------------------------------------------------------------------
    # digests (shared, incremental)
    # ------------------------------------------------------------------
    def _note_write(
        self, account_id: AccountId, before: tuple[ClientId, int] | None
    ) -> None:
        """Record an account's pre-image the first time it is written.

        ``before`` is the ``(owner, balance)`` the account held when the
        digest was last computed, or ``None`` if it did not exist then.
        Backends call this before every mutation; repeat writes to the
        same account are free (the first pre-image is the one that
        matters).
        """
        pending = self._pending
        if account_id not in pending:
            pending[account_id] = before

    def _reset_digest(self) -> None:
        """Forget the memoised digest (wholesale state replacement)."""
        self._digest_acc = None
        self._pending.clear()
        self._cloned_from = None

    def _finish_clone(self, copy: "StateStore") -> "StateStore":
        """Last step of a backend's :meth:`clone`: the digest bookkeeping.

        A digested store hands over its accumulator and pre-images; an
        undigested one (a bootstrap prototype) is remembered, version-
        stamped, so its table is scanned once, not once per clone.
        """
        copy.version = self.version
        if self._digest_acc is None:
            copy._cloned_from = (self, self.version)
        else:
            copy._digest_acc = self._digest_acc
            copy._pending = dict(self._pending)
        return copy

    def state_digest(self) -> str:
        """Deterministic digest of the full balance table.

        Incremental: the first call scans the table once — or, on a
        :meth:`clone`, takes the scan its prototype did — and every later
        call folds in only the accounts written since the previous call,
        so a checkpoint costs ``O(changed)`` regardless of table size.
        Order-independent by construction, so every replica that applied
        the same transaction prefix — regardless of backend or of how
        its store was built (bootstrap or :meth:`restore`) — produces
        the same digest.  This is the store half of a checkpoint digest
        (:func:`repro.recovery.checkpoint_digest`).
        """
        acc = self._digest_acc
        link, self._cloned_from = self._cloned_from, None
        if link is not None and link[0].version == link[1]:
            # Unwritten since the copy: the prototype digests itself once,
            # for whichever clone asks first; this one folds in its writes.
            link[0].state_digest()
            acc = link[0]._digest_acc
        if acc is None:
            acc = 0
            for account_id, owner, balance in self._entries():
                acc += leaf_hash(account_id, owner, balance)
        else:
            leaf = _memo_leaf_hash
            for account_id, before in self._pending.items():
                if before is not None:
                    acc -= leaf(account_id, before[0], before[1])
                owner, balance = self._entry(account_id)
                acc += leaf(account_id, owner, balance)
        acc &= DIGEST_MASK
        self._digest_acc = acc
        self._pending.clear()
        return format(acc, "064x")

    def naive_state_digest(self) -> str:
        """Reference digest: full-table pass in sorted id order.

        The pre-incremental computation, kept as the regression baseline:
        :meth:`state_digest` must always equal this (the digest is
        order-independent, so the sort is immaterial to the value — it
        only makes the reference pass deterministic and obviously
        memoisation-free).
        """
        return self.digest_entries(sorted(self._entries()))

    @staticmethod
    def digest_entries(entries: "Iterable[tuple[AccountId, ClientId, int]]") -> str:
        """Digest of ``(account_id, owner, balance)`` triples, any order.

        The single definition of the store digest format — shared by
        :meth:`state_digest` (live store) and :meth:`snapshot_digest`
        (shipped snapshot), which must agree byte for byte for
        state-transfer verification to work.
        """
        acc = 0
        for account_id, owner, balance in entries:
            acc = (acc + leaf_hash(account_id, owner, balance)) & DIGEST_MASK
        return format(acc, "064x")

    @classmethod
    def snapshot_digest(cls, snapshot: "Mapping[AccountId, tuple[ClientId, int]]") -> str:
        """:meth:`state_digest` recomputed from a :meth:`snapshot` mapping."""
        return cls.digest_entries(
            (account_id, owner, balance)
            for account_id, (owner, balance) in snapshot.items()
        )

    # ------------------------------------------------------------------
    # checkpoint snapshots
    # ------------------------------------------------------------------
    def checkpoint_snapshot(self, seq: int) -> "Mapping[AccountId, tuple[ClientId, int]]":
        """Snapshot of the state at checkpoint ``seq`` (called at take time).

        The default materialises eagerly via :meth:`snapshot`; the
        columnar backend overrides this with a lazy copy-on-write view
        so million-account checkpoints stay ``O(changed)``.
        """
        return self.snapshot()
