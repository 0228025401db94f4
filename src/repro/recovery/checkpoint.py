"""Periodic checkpoints and quorum-driven log compaction.

Every ``checkpoint_interval`` applied slots a replica digests its state
(chain head + account store), snapshots it, and multicasts a signed
:class:`~repro.recovery.messages.Checkpoint` to its cluster.  The
invariant that makes digests comparable: the checkpoint at ``seq`` is
taken *inside* the apply loop, immediately after applying slot ``seq``,
so the digest covers the state produced by exactly slots 1..seq — no
more, no less — at every correct replica.  Once an
intra-shard quorum of matching ``(seq, digest)`` votes accumulates the
checkpoint becomes *stable* and authorises garbage collection: the
ordering log truncates entries and dedup indexes at or below ``seq``,
the ledger view prunes the superseded blocks, and the consensus engines
drop their per-slot vote bookkeeping — the machinery PBFT describes in
Section 4.3 of the original paper and SharPer inherits.

The stable snapshot (account state, anchor block, at-most-once index)
is retained so the replica can serve
:class:`~repro.recovery.state_transfer.StateTransferManager` requests
from recovering peers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..consensus.base import HandlerTable
from .messages import Checkpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.replica import SharPerReplica

__all__ = ["CheckpointManager", "StableCheckpoint", "checkpoint_digest"]


def checkpoint_digest(seq: int, head_hash: str, store_digest: str) -> str:
    """Digest binding a checkpoint sequence number to chain and store state.

    Deterministic across the replicas of a cluster: block identity
    excludes per-cluster parent hashes, and the store digest is computed
    over the sorted account table, so every replica that applied exactly
    slots ``1..seq`` produces the same value.
    """
    return hashlib.sha256(f"CKPT|{seq}|{head_hash}|{store_digest}".encode()).hexdigest()


@dataclass
class StableCheckpoint:
    """One checkpoint record: digest plus the state needed to serve it."""

    seq: int
    digest: str
    #: the block at position ``seq`` (the chain anchor a joiner installs).
    anchor: object
    #: account-store snapshot at exactly slot ``seq`` (a Mapping; the
    #: columnar backend ships a lazy view that materialises on demand).
    snapshot: "dict | object"
    #: the store half of ``digest``, recorded into the archive on
    #: stabilisation ("" for snapshots installed via state transfer,
    #: where the serving peer already archived it).
    store_digest: str = ""


class CheckpointManager(HandlerTable):
    """Drives checkpointing and compaction for one replica.

    ``interval == 0`` disables checkpoint *production* (the faultless
    default — benchmark runs pay nothing), but votes from peers are
    still tallied so a replica that re-enables the feature mid-run, or
    merely lags, keeps a coherent picture.
    """

    HANDLERS = {Checkpoint: "_on_checkpoint"}

    #: own snapshots retained while waiting for their quorum.
    MAX_PENDING_RECORDS = 3

    def __init__(self, host: "SharPerReplica", interval: int) -> None:
        self.host = host
        self.interval = interval
        self._build_handlers()
        self.quorum = host.cluster.intra_quorum
        #: (seq, digest) → voter pids (own vote included).
        self._votes: dict[tuple[int, str], set[int]] = {}
        #: own snapshots by seq, awaiting stabilisation.
        self._records: dict[int, StableCheckpoint] = {}
        self.stable: StableCheckpoint | None = None
        self.taken = 0
        self.stabilized = 0
        self.entries_truncated = 0
        self.blocks_pruned = 0
        #: quorum digests that contradicted this replica's own state.
        self.divergent = 0

    # ------------------------------------------------------------------
    # producing checkpoints
    # ------------------------------------------------------------------
    def take(self, seq: int) -> None:
        """Checkpoint the state right after applying slot ``seq``.

        Called by the replica's apply loop exactly at interval
        boundaries, so the chain head *is* the block at ``seq`` and the
        store reflects exactly slots ``1..seq``.
        """
        host = self.host
        store_digest = host.store.state_digest()
        digest = checkpoint_digest(seq, host.chain.head_hash, store_digest)
        self._records[seq] = StableCheckpoint(
            seq=seq,
            digest=digest,
            anchor=host.chain.head,
            snapshot=host.store.checkpoint_snapshot(seq),
            store_digest=store_digest,
        )
        while len(self._records) > self.MAX_PENDING_RECORDS:
            del self._records[min(self._records)]
        self.taken += 1
        host.multicast_cluster(Checkpoint(seq=seq, digest=digest, node=host.node_id))
        self._vote(seq, digest, int(host.pid))

    # ------------------------------------------------------------------
    # vote handling
    # ------------------------------------------------------------------
    def _on_checkpoint(self, message: Checkpoint, src: int) -> None:
        self._vote(message.seq, message.digest, src)
        # Lag detection: a peer checkpointing a full interval beyond our
        # applied height means we missed decided slots (e.g. while
        # crashed or partitioned) — fetch them instead of waiting for a
        # gap timeout.
        if self.interval and message.seq > self.host.log.next_apply - 1 + self.interval:
            self.host.state_transfer.request_catch_up()

    def _vote(self, seq: int, digest: str, voter: int) -> None:
        if self.stable is not None and seq <= self.stable.seq:
            return
        voters = self._votes.setdefault((seq, digest), set())
        voters.add(voter)
        if len(voters) >= self.quorum:
            self._stabilize(seq, digest)

    def _stabilize(self, seq: int, digest: str) -> None:
        record = self._records.get(seq)
        if record is None:
            # A quorum certified a state we have not reached yet; the
            # lag trigger (or gap monitoring) fetches it.
            return
        if record.digest != digest:
            # Our state disagrees with a quorum of the cluster — with at
            # most f faulty replicas this replica itself diverged; count
            # it loudly and do not garbage-collect evidence.
            self.divergent += 1
            return
        self.adopt(record)
        self.stabilized += 1

    def adopt(self, record: StableCheckpoint) -> None:
        """Install ``record`` as the stable checkpoint and compact below it.

        Used both by quorum stabilisation and by state transfer (the
        joiner adopts the helper's verified checkpoint so it can serve
        later requests itself).
        """
        host = self.host
        self.stable = record
        seq = record.seq
        archive = host.chain.archive
        if archive is not None and record.store_digest:
            archive.record_checkpoint(
                host.cluster.cluster_id, seq, record.store_digest, record.anchor.block_hash
            )
        self.entries_truncated += host.log.truncate(seq)
        self.blocks_pruned += host.chain.prune(seq)
        host.intra.compact_below(seq)
        host.cross.compact_below(seq)
        for stale in [recorded for recorded in self._records if recorded <= seq]:
            del self._records[stale]
        self._votes = {
            key: voters for key, voters in self._votes.items() if key[0] > seq
        }
