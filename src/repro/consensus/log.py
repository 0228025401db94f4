"""Per-replica ordering log.

Every replica keeps one :class:`OrderingLog` for its cluster's chain.
Intra-shard and cross-shard consensus instances both allocate *slots*
(sequence numbers) from the same log, which is what gives the paper's
total order over all transactions — intra or cross — that access the
cluster's shard (Section 2.3).

The log tracks three things per slot:

* the item proposed/accepted for the slot (at most one digest per slot —
  the quorum-intersection argument of Paxos/PBFT relies on this);
* whether the slot has been *decided* (committed by consensus);
* whether the slot has been *applied* (executed and appended to the
  ledger view).  Application is strictly in slot order.

Stable checkpoints (:mod:`repro.recovery`) garbage-collect the log:
:meth:`OrderingLog.truncate` drops applied entries and their dedup-index
rows at or below the *low-water mark*, bounding the per-replica entry
count for arbitrarily long runs, and stale protocol messages referring
to compacted slots are ignored rather than resurrected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..common.errors import ConsensusError
from ..common.types import ClusterId

__all__ = ["EntryStatus", "LogEntry", "OrderingLog", "Noop", "item_digest"]

from ..common.crypto import digest as _digest


@dataclass(frozen=True)
class Noop:
    """A no-op entry used to fill abandoned slots (e.g. after a view change)."""

    reason: str = "noop"


def item_digest(item: object) -> str:
    """Digest of an ordered item (transaction, no-op, or protocol marker).

    Ordered items are immutable (frozen dataclasses), and one payload
    object is shared by every replica a multicast reaches, so the digest
    is computed once and memoised on the instance — every later replica
    touching the same payload gets the cached value.  Items that provide
    their own ``payload_digest`` (transactions, client requests, batches)
    delegate to it, which memoises in a slot of the payload
    (:func:`repro.common.crypto.memo_slots`); any other item (a no-op)
    memoises in its ``__dict__``.  Neither memo is a dataclass field, so
    equality, hashing, and canonical encoding are unaffected.
    """
    payload_digest = getattr(item, "payload_digest", None)
    if payload_digest is not None:
        return payload_digest()
    item_dict = getattr(item, "__dict__", None)
    if item_dict is None:
        return _digest(item)
    cached = item_dict.get("_item_digest")
    if cached is None:
        cached = _digest(item)
        object.__setattr__(item, "_item_digest", cached)
    return cached


class EntryStatus(enum.Enum):
    """Lifecycle of a slot in the ordering log."""

    PENDING = "pending"
    DECIDED = "decided"
    APPLIED = "applied"


@dataclass(slots=True)
class LogEntry:
    """State of one slot."""

    slot: int
    digest: str
    item: object
    status: EntryStatus = EntryStatus.PENDING
    #: position vector of a cross-shard decision; ``None`` otherwise (read :meth:`vector`).
    positions: dict[ClusterId, int] | None = None
    #: cluster that initiated consensus for this entry.
    proposer: ClusterId | None = None
    #: view in which the entry was accepted (intra-shard protocols).
    view: int = 0

    @property
    def is_noop(self) -> bool:
        """Whether the entry is a gap-filling no-op."""
        return isinstance(self.item, Noop)

    def vector(self, cluster_id: ClusterId) -> Mapping[ClusterId, int]:
        """The position vector; an intra-shard entry's is ``{cluster_id: slot}``."""
        return self.positions or {cluster_id: self.slot}


class OrderingLog:
    """Slot-indexed log of (to-be-)ordered items for one cluster."""

    def __init__(self, cluster_id: ClusterId) -> None:
        self.cluster_id = cluster_id
        self._entries: dict[int, LogEntry] = {}
        self._next_slot = 1
        self._next_apply = 1
        self._decided_digests: dict[str, int] = {}
        self._pending_digests: dict[str, int] = {}
        self._blocked_decisions = 0
        #: slots at or below this mark are checkpointed and compacted.
        self._low_water = 0
        #: running total of entries dropped by truncation.
        self.truncated_entries = 0
        #: high-water mark of the live entry count (bounded-memory proof).
        self.peak_entry_count = 0

    # ------------------------------------------------------------------
    # slot allocation
    # ------------------------------------------------------------------
    @property
    def next_slot(self) -> int:
        """Next slot a primary would allocate."""
        return self._next_slot

    @property
    def next_apply(self) -> int:
        """Lowest slot that has not been applied yet."""
        return self._next_apply

    @property
    def low_water_mark(self) -> int:
        """Highest slot compacted away by a stable checkpoint (0 = none)."""
        return self._low_water

    @property
    def entry_count(self) -> int:
        """Number of entries currently held (bounded by checkpointing)."""
        return len(self._entries)

    def allocate(self) -> int:
        """Allocate the next slot (primary side)."""
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def observe(self, slot: int) -> None:
        """Advance the allocation cursor past an externally observed slot."""
        if slot >= self._next_slot:
            self._next_slot = slot + 1

    # ------------------------------------------------------------------
    # entry state transitions
    # ------------------------------------------------------------------
    def entry(self, slot: int) -> LogEntry | None:
        """The entry currently recorded for ``slot``, if any."""
        return self._entries.get(slot)

    def entries(self) -> Iterator[LogEntry]:
        """All entries, in slot order."""
        for slot in sorted(self._entries):
            yield self._entries[slot]

    def record_pending(
        self,
        slot: int,
        digest: str,
        item: object,
        view: int = 0,
        proposer: ClusterId | None = None,
    ) -> LogEntry | None:
        """Record that ``item`` was accepted for ``slot`` (not yet decided).

        Within one view a slot accepts only one digest: re-recording the
        same digest is idempotent, and recording a different digest for
        an undecided slot raises (the caller decides how to resolve the
        conflict — in the normal case it simply refuses to vote for the
        second proposal).  A proposal carrying a strictly *higher* view
        supersedes a stale pending entry, as in PBFT: after a view
        change the new primary may legitimately re-propose a different
        item for a slot an equivocating old primary poisoned, and
        replicas must be able to accept it (otherwise one equivocation
        would wedge the slot forever).  Decided slots never change
        digest.  Slots at or below the low-water mark were checkpointed
        and compacted; stale proposals for them are ignored (``None``).
        """
        if slot <= self._low_water:
            return None
        if slot >= self._next_slot:  # inline observe()
            self._next_slot = slot + 1
        existing = self._entries.get(slot)
        if existing is not None:
            if existing.digest == digest:
                return existing
            if existing.status is not EntryStatus.PENDING:
                raise ConsensusError(
                    f"slot {slot} already {existing.status.value} with a different digest"
                )
            if view > existing.view:
                if self._pending_digests.get(existing.digest) == slot:
                    del self._pending_digests[existing.digest]
                existing.digest = digest
                existing.item = item
                existing.view = view
                existing.proposer = proposer
                self._pending_digests.setdefault(digest, slot)
                return existing
            raise ConsensusError(f"slot {slot} already holds a different pending digest")
        entry = LogEntry(slot=slot, digest=digest, item=item, view=view, proposer=proposer)
        self._entries[slot] = entry
        if len(self._entries) > self.peak_entry_count:
            self.peak_entry_count = len(self._entries)
        self._pending_digests.setdefault(digest, slot)
        return entry

    def try_record_pending(
        self,
        slot: int,
        digest: str,
        item: object,
        view: int = 0,
        proposer: ClusterId | None = None,
    ) -> bool:
        """:meth:`record_pending`, reporting a digest conflict as ``False``.

        What every engine does with a proposal: a slot that already
        holds a different digest means "do not vote for this one" (the
        commit resolves the final assignment), not an error.  Only
        :class:`ConsensusError` — the one signal :meth:`record_pending`
        raises for a conflict — is translated; anything else is a bug
        and propagates.
        """
        try:
            self.record_pending(slot, digest, item, view=view, proposer=proposer)
        except ConsensusError:
            return False
        return True

    def decide(
        self,
        slot: int,
        digest: str,
        item: object,
        positions: Mapping[ClusterId, int] | None = None,
        proposer: ClusterId | None = None,
        view: int = 0,
    ) -> LogEntry | None:
        """Mark ``slot`` as decided with ``item``.

        Deciding overrides any pending entry for the slot (a pending entry
        with a different digest means that proposal lost; its initiator
        will retry at another slot).  Deciding an already-decided slot with
        a different digest is a safety violation and raises.  A stale
        decision for a slot at or below the low-water mark (already
        checkpointed and compacted) is ignored — resurrecting it would
        leave a permanently blocked entry below ``next_apply``.
        """
        if slot <= self._low_water:
            return None
        if slot >= self._next_slot:  # inline observe()
            self._next_slot = slot + 1
        existing = self._entries.get(slot)
        if existing is not None and existing.status is not EntryStatus.PENDING:
            if existing.digest != digest:
                raise ConsensusError(
                    f"slot {slot} decided twice with different digests (fork)"
                )
            return existing
        self._blocked_decisions += 1
        positions = dict(positions) if positions else None
        if existing is not None and existing.digest == digest:
            # Promote the pending entry in place (the common path: the
            # accept/pre-prepare already recorded it) instead of
            # allocating a replacement.
            entry = existing
            entry.item = item
            entry.status = EntryStatus.DECIDED
            entry.positions = positions
            entry.proposer = proposer
            entry.view = view
        else:
            entry = LogEntry(
                slot=slot, digest=digest, item=item, status=EntryStatus.DECIDED,
                positions=positions, proposer=proposer, view=view,
            )
            self._entries[slot] = entry
            if len(self._entries) > self.peak_entry_count:
                self.peak_entry_count = len(self._entries)
        if existing is not None and existing.digest != digest:
            # The pending proposal for this slot lost; drop its index
            # entry so its initiator may retry at another slot.
            if self._pending_digests.get(existing.digest) == slot:
                del self._pending_digests[existing.digest]
        self._pending_digests.pop(digest, None)
        self._decided_digests[digest] = slot
        return entry

    def decided_slot_of(self, digest: str) -> int | None:
        """Slot at which ``digest`` was decided, if it was."""
        return self._decided_digests.get(digest)

    def slot_of(self, digest: str) -> int | None:
        """Slot holding ``digest``, decided *or* still in flight.

        Primaries consult this before ordering a client retry: a request
        that is already decided (but perhaps not yet applied, so
        ``chain.contains_tx`` is still false) or still pending in some
        slot must not be allocated a second one — committing the same
        transaction at two slots would violate at-most-once execution.
        """
        slot = self._decided_digests.get(digest)
        if slot is not None:
            return slot
        return self._pending_digests.get(digest)

    # ------------------------------------------------------------------
    # in-order application
    # ------------------------------------------------------------------
    def pop_applicable(self) -> list[LogEntry]:
        """Return (and mark applied) the maximal run of decided slots.

        Application is strictly in slot order: the run stops at the first
        slot that is missing or not yet decided.
        """
        ready: list[LogEntry] = []
        while True:
            entry = self._entries.get(self._next_apply)
            if entry is None or entry.status is not EntryStatus.DECIDED:
                break
            entry.status = EntryStatus.APPLIED
            ready.append(entry)
            self._next_apply += 1
        self._blocked_decisions -= len(ready)
        return ready

    @property
    def blocked_decisions(self) -> int:
        """Number of decided slots that cannot apply yet (gap below them).

        Non-zero means some lower slot is missing or undecided — briefly
        normal while instances pipeline, but *persistently* non-zero is
        the signature of a primary withholding sequence numbers (e.g. a
        muted primary whose pre-prepares never reached the backups while
        cross-shard slots kept deciding above the gap).
        """
        return self._blocked_decisions

    # ------------------------------------------------------------------
    # checkpointing and compaction (repro.recovery)
    # ------------------------------------------------------------------
    def truncate(self, upto: int) -> int:
        """Drop applied entries at slots ``<= upto`` (stable-checkpoint GC).

        Only slots already applied may be compacted (a stable checkpoint
        certifies state *after* applying them), so the effective mark is
        clamped to ``next_apply - 1``.  Dedup-index rows pointing at the
        dropped slots go with them; the ledger view's transaction index
        keeps answering duplicate-detection queries for compacted
        history.  Returns the number of entries dropped.
        """
        upto = min(upto, self._next_apply - 1)
        if upto <= self._low_water:
            return 0
        removed = 0
        entries = self._entries
        decided = self._decided_digests
        for slot in range(self._low_water + 1, upto + 1):
            entry = entries.pop(slot, None)
            if entry is None:
                continue
            removed += 1
            if decided.get(entry.digest) == slot:
                del decided[entry.digest]
            if self._pending_digests.get(entry.digest) == slot:
                del self._pending_digests[entry.digest]
        self._low_water = upto
        self.truncated_entries += removed
        return removed

    def install_checkpoint(self, seq: int) -> None:
        """Adopt a remote stable checkpoint at ``seq`` (state transfer).

        Everything at or below ``seq`` is forgotten — including entries
        this replica never decided — and the apply cursor jumps past the
        checkpoint; the caller is responsible for installing the matching
        ledger/store snapshot and replaying the decided suffix.
        """
        entries = self._entries
        for slot in [slot for slot in entries if slot <= seq]:
            entry = entries.pop(slot)
            if self._decided_digests.get(entry.digest) == slot:
                del self._decided_digests[entry.digest]
            if self._pending_digests.get(entry.digest) == slot:
                del self._pending_digests[entry.digest]
        self._next_slot = max(self._next_slot, seq + 1)
        self._next_apply = max(self._next_apply, seq + 1)
        self._low_water = max(self._low_water, seq)
        self._blocked_decisions = sum(
            1 for entry in entries.values() if entry.status is EntryStatus.DECIDED
        )
