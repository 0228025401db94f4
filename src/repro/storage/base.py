"""The state store: a shard's balance table in flat columns, with an incremental digest.

The accounting application's replicated state is a balance table.
:class:`StateStore` keeps one shard's table in two flat ``array('q')``
columns (owner, balance) indexed by *dense* account ids:
:class:`~repro.txn.accounts.ShardMapper` assigns a shard a contiguous
range of account ids, so ``index = account_id - first`` gives O(1)
lookup with no per-account Python objects.  The paper models an account
as the pair ``(amount, PK)``; the owner column holds the owning client's
id in place of the public key, and ownership checks compare it against
the transaction's signer.  Every account of the range
exists from bootstrap to the end of the run; there is no account
creation, and a :meth:`StateStore.restore` must cover the range exactly.

Two properties make the store checkpointable at any size:

* the **store digest** is an additive homomorphic hash: every account
  contributes a 256-bit *leaf* ``SHA-256(f"{id}:{owner}:{balance}")``
  and the digest is the sum of all leaves modulo ``2**256``, rendered
  as 64 hex digits.  Because addition commutes, a full-table pass
  (:meth:`StateStore.naive_state_digest`, the reference computation)
  and the incremental accumulator — subtract the touched accounts' old
  leaves, add their new ones — produce the same value.  The store
  records the *pre-image* of each account the first time it is written
  after a digest was computed, so :meth:`StateStore.state_digest` costs
  ``O(accounts changed since the previous digest)`` (see
  ``docs/storage.md``);
* **lazy checkpoint snapshots** (:meth:`StateStore.checkpoint_snapshot`):
  instead of copying the table per checkpoint, the store opens an *undo
  epoch* that records the pre-image of each account the first time it
  is written after the checkpoint.  A :class:`ColumnarSnapshot` is a
  Mapping view that materialises on demand by walking the undo frames
  newest-to-oldest (older pre-images overwrite newer ones), and caches
  the result.  Frames older than every live snapshot are released at
  the next checkpoint, so retained undo state is bounded by the
  checkpoint manager's pending-record window.
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from ..common.errors import (
    InsufficientBalanceError,
    UnknownAccountError,
    ValidationError,
)
from ..common.types import AccountId, ClientId, ShardId

__all__ = ["ColumnarSnapshot", "StateStore", "leaf_hash", "owner_of", "DIGEST_MASK"]

#: the digest accumulator is a 256-bit ring (matching SHA-256 leaves).
DIGEST_MASK = (1 << 256) - 1


def owner_of(account_id: int, num_clients: int) -> ClientId:
    """The ownership rule: client ``account_id % num_clients`` owns the account."""
    return ClientId(account_id % num_clients)


def _leaf_sum(entries: "Iterable[tuple[AccountId, ClientId, int]]") -> int:
    """Unmasked leaf sum of ``(id, owner, balance)`` triples: the one scan, the one format."""
    sha256, from_bytes, acc = hashlib.sha256, int.from_bytes, 0
    for account_id, owner, balance in entries:
        acc += from_bytes(sha256(f"{account_id}:{owner}:{balance}".encode()).digest(), "big")
    return acc


def leaf_hash(account_id: int, owner: int, balance: int) -> int:
    """The 256-bit leaf one account contributes to the store digest."""
    return _leaf_sum(((int(account_id), int(owner), balance),))


#: :func:`leaf_hash` behind a bounded memo, for the *incremental* digest
#: only: the replicas of a cluster fold the same written accounts in, one
#: after another.  Table scans bypass it: they would flush it.
_memo_leaf_hash = lru_cache(maxsize=4096)(leaf_hash)


class ColumnarSnapshot(Mapping):
    """Lazy ``id -> (owner, balance)`` view of a store at checkpoint ``seq``.

    Materialises (and caches) the full mapping on first access; until
    then it holds no per-account state.  Safe to ship in state-transfer
    responses: it satisfies the Mapping protocol that
    :meth:`StateStore.snapshot_digest` and :meth:`StateStore.restore`
    consume.
    """

    def __init__(self, store: "StateStore", seq: int) -> None:
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


class StateStore:
    """Mutable balance table of one shard: flat columns over its id range."""

    def __init__(
        self, shard: ShardId, first_id: int, owners: array, balances: array, total: int
    ) -> None:
        self.shard = shard
        self.version = 0
        self._first = first_id
        self._capacity = len(balances)
        self._owners = owners
        self._balances = balances
        self._total = total  # sum(balances), known to the caller without summing
        #: memoised digest accumulator; ``None`` until first computed.
        self._digest_acc: int | None = None
        #: pre-images of accounts written since the last digest:
        #: ``account_id -> (owner, balance)``.
        self._pending: dict[AccountId, tuple[ClientId, int]] = {}
        #: ``(prototype, its version)`` of a clone taken from a store that
        #: had no digest yet (:meth:`clone`); gone after one digest.
        self._cloned_from: tuple[StateStore, int] | None = None
        # -- lazy checkpoint snapshot machinery --------------------------
        #: pre-images of writes since the last checkpoint (None = no
        #: checkpoint snapshot is live, undo tracking is off).
        self._epoch_undo: dict[AccountId, tuple[ClientId, int]] | None = None
        #: checkpoint seq at which the open epoch started.
        self._epoch_seq = 0
        #: closed epochs, oldest first: ``(epoch_start_seq, undo dict)``.
        self._frames: list[tuple[int, dict]] = []
        self._snapshots: "weakref.WeakSet[ColumnarSnapshot]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls, shard: ShardId, mapper, initial_balance: int, num_clients: int | None = None
    ) -> "StateStore":
        """A store holding every account of ``shard`` at ``initial_balance``.

        ``mapper.accounts_in_shard`` returns a contiguous ``range``; its
        start becomes the store's dense-id offset.  :func:`owner_of` over
        ``num_clients`` assigns owners (``None``: client ``i`` owns account
        ``i``); the owner column is one period of the rule (at most ``n``
        entries), rotated to the first id and tiled, so no Python call is
        made per account.
        """
        if initial_balance < 0:
            raise ValidationError("accounts cannot start with negative balance")
        if num_clients is not None and num_clients < 1:
            raise ValidationError(f"num_clients must be positive, got {num_clients}")
        ids = mapper.accounts_in_shard(shard)
        n = len(ids)
        if num_clients is None:
            owners = array("q", ids)
        else:
            shift = owner_of(ids.start, num_clients)
            head = array("q", range(shift, min(num_clients, shift + n)))
            period = head + array("q", range(min(shift, n - len(head))))
            owners = (period * (n // num_clients + 1))[:n]
        balances = array("q", [initial_balance]) * n
        return cls(shard, ids.start, owners, balances, n * initial_balance)

    def clone(self) -> "StateStore":
        """An independent deep copy (bootstrap sharing across replicas).

        Snapshot/undo state is not cloned — clones start a fresh
        checkpoint history, exactly like a freshly bootstrapped replica.
        A digested store hands over its accumulator and pre-images; an
        undigested one (a bootstrap prototype) is remembered,
        version-stamped, so its table is scanned once, not once per clone.
        """
        copy = StateStore(self.shard, self._first, self._owners[:], self._balances[:], self._total)
        copy.version = self.version
        if self._digest_acc is None:
            copy._cloned_from = (self, self.version)
        else:
            copy._digest_acc = self._digest_acc
            copy._pending = dict(self._pending)
        return copy

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._capacity

    def entry(self, account_id: AccountId) -> tuple[ClientId, int]:
        """Current ``(owner, balance)`` of ``account_id``."""
        index = account_id - self._first
        if not 0 <= index < self._capacity:
            raise UnknownAccountError(f"unknown account {account_id}")
        return (self._owners[index], self._balances[index])

    def balance(self, account_id: AccountId) -> int:
        """Current balance of ``account_id``."""
        return self.entry(account_id)[1]

    def total_balance(self) -> int:
        """Sum of all balances (maintained incrementally, O(1))."""
        return self._total

    def _entries(self) -> Iterator[tuple[AccountId, ClientId, int]]:
        """``(account_id, owner, balance)`` over the whole table, in id order."""
        first = self._first
        return zip(range(first, first + self._capacity), self._owners, self._balances)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _note_write(self, account_id: AccountId, before: tuple[ClientId, int]) -> None:
        """Record an account's pre-image the first time it is written.

        Once for the digest (since the last :meth:`state_digest`) and once
        for the open undo epoch (since the last checkpoint); repeat writes
        are free — the first pre-image is the one that matters.
        """
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
        index = account_id - self._first
        if not 0 <= index < self._capacity:
            raise UnknownAccountError(f"unknown account {account_id}")
        balances = self._balances
        self._note_write(account_id, (self._owners[index], balances[index]))
        balances[index] += amount
        self._total += amount
        self.version += 1

    def withdraw(
        self, account_id: AccountId, amount: int, requester: ClientId | None = None
    ) -> None:
        """Debit ``amount``; ``requester`` (when given) must own the account.

        The ownership check implements the paper's "valid signature of its
        owner" rule.
        """
        if amount < 0:
            raise ValidationError("withdrawal amount must be non-negative")
        index = account_id - self._first
        if not 0 <= index < self._capacity:
            raise UnknownAccountError(f"unknown account {account_id}")
        owner = self._owners[index]
        balance = self._balances[index]
        if requester is not None and owner != requester:
            raise ValidationError(f"client {requester} does not own account {account_id}")
        if balance < amount:
            raise InsufficientBalanceError(f"account {account_id} holds {balance} < {amount}")
        self._note_write(account_id, (owner, balance))
        self._balances[index] = balance - amount
        self._total -= amount
        self.version += 1

    # ------------------------------------------------------------------
    # digests (incremental)
    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Deterministic digest of the full balance table.

        Incremental: the first call scans the table once — or, on a
        :meth:`clone`, takes the scan its prototype did — and every later
        call folds in only the accounts written since the previous call,
        so a checkpoint costs ``O(changed)`` regardless of table size.
        Order-independent by construction, so every replica that applied
        the same transaction prefix — however its store was built
        (bootstrap, clone or :meth:`restore`) — produces the same digest.
        This is the store half of a checkpoint digest
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
            acc = _leaf_sum(self._entries())
        else:
            leaf = _memo_leaf_hash
            first, owners, balances = self._first, self._owners, self._balances
            for account_id, (owner, balance) in self._pending.items():
                acc -= leaf(account_id, owner, balance)
                index = account_id - first
                acc += leaf(account_id, owners[index], balances[index])
        acc &= DIGEST_MASK
        self._digest_acc = acc
        self._pending.clear()
        return format(acc, "064x")

    def naive_state_digest(self) -> str:
        """Reference digest: one memo-free pass over the whole table.

        The pre-incremental computation, kept as the regression baseline:
        :meth:`state_digest` must always equal this.
        """
        return format(_leaf_sum(self._entries()) & DIGEST_MASK, "064x")

    @staticmethod
    def snapshot_digest(snapshot: "Mapping[AccountId, tuple[ClientId, int]]") -> str:
        """:meth:`naive_state_digest`'s scan over a :meth:`snapshot` mapping."""
        entries = ((account, owner, balance) for account, (owner, balance) in snapshot.items())
        return format(_leaf_sum(entries) & DIGEST_MASK, "064x")

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[AccountId, tuple[ClientId, int]]:
        """Eager copy of the full state (``id -> (owner, balance)``)."""
        return {account_id: (owner, balance) for account_id, owner, balance in self._entries()}

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
        live = [snap.seq for snap in self._snapshots if not snap.materialized]
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
        wins.
        """
        data = self.snapshot()
        layers: list[dict] = []
        if self._epoch_undo is not None and self._epoch_seq >= seq:
            layers.append(self._epoch_undo)
        for epoch_start, undo in reversed(self._frames):
            if epoch_start >= seq:
                layers.append(undo)
        for undo in layers:
            data.update(undo)
        return data

    def restore(self, snapshot: Mapping[AccountId, tuple[ClientId, int]]) -> None:
        """Replace the store contents with ``snapshot``.

        The snapshot (a peer's, in a state transfer) must name every
        account of the store's range exactly once, with a non-negative
        balance; otherwise :class:`ValidationError` names the first
        offending id and the store is left unchanged.  Live lazy
        snapshots are materialised first: their undo frames are expressed
        against the *current* columns, which this call overwrites.
        """
        first, capacity = self._first, self._capacity
        rows: list = [None] * capacity
        for account_id, entry in snapshot.items():
            index = account_id - first if type(account_id) is int else -1
            if not 0 <= index < capacity:
                raise ValidationError(
                    f"snapshot account {account_id!r} is outside shard {self.shard}'s "
                    f"range {first}..{first + capacity - 1}"
                )
            if rows[index] is not None:
                raise ValidationError(f"snapshot names account {account_id} twice")
            if entry[1] < 0:
                raise ValidationError(
                    f"snapshot account {account_id} has negative balance {entry[1]}"
                )
            rows[index] = entry
        if None in rows:
            raise ValidationError(f"snapshot is missing account {first + rows.index(None)}")
        owners = array("q", (owner for owner, _ in rows))
        balances = array("q", (balance for _, balance in rows))
        for snap in list(self._snapshots):
            snap._ensure()
        self._frames = []
        self._epoch_undo = None
        self._epoch_seq = 0
        self._owners = owners
        self._balances = balances
        self._total = sum(balances)
        self._digest_acc = None
        self._pending.clear()
        self._cloned_from = None
        self.version += 1
