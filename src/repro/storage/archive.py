"""The archive: checkpoint GC spills pruned history instead of dropping it.

Stable checkpoints authorise garbage collection
(:mod:`repro.recovery.checkpoint`): the ledger view prunes block objects
at or below the checkpoint.  With an archive attached
(``ClusterView.archive``), :meth:`repro.ledger.view.ClusterView.prune`
hands the dropped blocks to :meth:`SqliteArchive.archive_blocks` before
discarding them.  The archive is write-only at run time: the judge of
pruned history is the live audit, which reads the prune-time record
every view keeps (:func:`repro.ledger.validation.check_pruned_cross`);
a history question is plain SQL over :attr:`SqliteArchive.connection`.

:class:`SqliteArchive` is stdlib-only.  Rows are keyed by
``(cluster, position)``.  Every replica of a cluster spills the
*same* rows as its own checkpoint stabilises (a replica only
garbage-collects state its own digest agreed with a quorum on), so a
per-cluster high-water mark lets the first replica write a range and its
peers return before building a row.  Schema:

``blocks``
    one row per pruned block per involved cluster — stored hash, this
    cluster's parent hash, proposer, no-op flag, and the full position
    vector (JSON).
``txs`` / ``transfers``
    the block's transactions (payload digest, issuing client, order
    within the block) and their individual transfers.  The one
    secondary index, ``txs_by_position``, serves queries by position.
``checkpoints``
    the quorum-stabilised ``(seq, store digest, head hash)`` rows.
``meta``
    the count of checkpoints recorded again with a different digest
    (:attr:`SqliteArchive.conflicting_checkpoints`), kept across reopens.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..ledger.block import Block

__all__ = ["SqliteArchive"]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blocks (
    cluster INTEGER NOT NULL,
    position INTEGER NOT NULL,
    block_hash TEXT NOT NULL,
    parent_hash TEXT NOT NULL,
    proposer INTEGER NOT NULL,
    is_noop INTEGER NOT NULL,
    positions TEXT NOT NULL,
    PRIMARY KEY (cluster, position)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS txs (
    tx_id TEXT NOT NULL,
    cluster INTEGER NOT NULL,
    position INTEGER NOT NULL,
    tx_ord INTEGER NOT NULL,
    client INTEGER NOT NULL,
    payload_digest TEXT NOT NULL,
    PRIMARY KEY (tx_id, cluster)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS txs_by_position ON txs (cluster, position);
CREATE TABLE IF NOT EXISTS transfers (
    tx_id TEXT NOT NULL,
    cluster INTEGER NOT NULL,
    idx INTEGER NOT NULL,
    position INTEGER NOT NULL,
    source INTEGER NOT NULL,
    destination INTEGER NOT NULL,
    amount INTEGER NOT NULL,
    PRIMARY KEY (tx_id, cluster, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS checkpoints (
    cluster INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    store_digest TEXT NOT NULL,
    head_hash TEXT NOT NULL,
    PRIMARY KEY (cluster, seq)
) WITHOUT ROWID;
"""


class SqliteArchive:
    """Sqlite-backed archive (stdlib only; ``:memory:`` supported in tests).

    Durability is deliberately relaxed (``synchronous=OFF``): the archive
    is a derived record of pruned history, not the replicated state.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute(
            "PRAGMA journal_mode=%s" % ("MEMORY" if self.path == ":memory:" else "WAL")
        )
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        #: block rows actually inserted by this connection (OR IGNORE dedup'd).
        self.blocks_written = 0
        #: per cluster: the gap-free archived height and the last checkpoint
        #: row (seeded from the tables on first use) — what lets the second
        #: and third replica of a cluster return before building a row.
        self._spilled: dict[int, int] = {}
        self._last_checkpoint: dict[int, tuple[int, str, str] | None] = {}
        #: repeated checkpoints whose digests differed from the recorded row.
        self.conflicting_checkpoints = int(self._meta("conflicting_checkpoints") or 0)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def archive_blocks(self, cluster_id: int, blocks: "Iterable[Block]") -> int:
        """Persist pruned ``blocks`` of ``cluster_id``; returns rows added."""
        cluster = int(cluster_id)
        conn = self._conn
        mark = self._spilled.get(cluster)
        if mark is None:
            # A reopened archive resumes from its gap-free prefix only: a
            # position missing below MAX(position) must stay writable.
            top, rows = conn.execute(
                "SELECT MAX(position), COUNT(*) FROM blocks WHERE cluster = ?", (cluster,)
            ).fetchone()
            mark = self._spilled[cluster] = top if top == rows else 0
        block_rows = []
        tx_rows = []
        transfer_rows = []
        for block in blocks:
            position = block.position_for(cluster_id)
            if position <= mark:
                continue  # a peer replica of this cluster spilled it
            block_rows.append(
                (
                    cluster,
                    position,
                    block.block_hash,
                    block.parent_for(cluster_id),
                    int(block.proposer),
                    int(block.is_noop),
                    json.dumps([[int(c), int(i)] for c, i in block.positions]),
                )
            )
            for tx_ord, transaction in enumerate(block.transactions):
                tx_rows.append(
                    (
                        transaction.tx_id,
                        cluster,
                        position,
                        tx_ord,
                        int(transaction.client),
                        transaction.payload_digest(),
                    )
                )
                for idx, transfer in enumerate(transaction.transfers):
                    transfer_rows.append(
                        (
                            transaction.tx_id,
                            cluster,
                            idx,
                            position,
                            int(transfer.source),
                            int(transfer.destination),
                            transfer.amount,
                        )
                    )
        if not block_rows:
            return 0
        before = conn.total_changes
        conn.executemany(
            "INSERT OR IGNORE INTO blocks VALUES (?, ?, ?, ?, ?, ?, ?)", block_rows
        )
        added_blocks = conn.total_changes - before
        self.blocks_written += added_blocks
        conn.executemany("INSERT OR IGNORE INTO txs VALUES (?, ?, ?, ?, ?, ?)", tx_rows)
        conn.executemany(
            "INSERT OR IGNORE INTO transfers VALUES (?, ?, ?, ?, ?, ?, ?)", transfer_rows
        )
        conn.commit()
        if [row[1] for row in block_rows] == list(range(mark + 1, mark + 1 + len(block_rows))):
            self._spilled[cluster] = mark + len(block_rows)  # the archived prefix grew
        return added_blocks

    def record_checkpoint(
        self, cluster_id: int, seq: int, store_digest: str, head_hash: str
    ) -> None:
        """Persist a stabilised checkpoint's store digest and head hash."""
        cluster = int(cluster_id)
        row = (int(seq), store_digest, head_hash)
        if cluster not in self._last_checkpoint:
            self._last_checkpoint[cluster] = self._conn.execute(
                "SELECT seq, store_digest, head_hash FROM checkpoints"
                " WHERE cluster = ? ORDER BY seq DESC LIMIT 1",
                (cluster,),
            ).fetchone()
        last = self._last_checkpoint[cluster]
        if last is not None and last[0] == row[0]:
            # A peer replica recorded it.  The quorum agreed on one digest:
            # anything else is divergence INSERT OR IGNORE used to swallow.
            if last != row:
                self.conflicting_checkpoints += 1
                self._set_meta("conflicting_checkpoints", str(self.conflicting_checkpoints))
            return
        self._conn.execute(
            "INSERT OR IGNORE INTO checkpoints VALUES (?, ?, ?, ?)", (cluster, *row)
        )
        self._conn.commit()
        if last is None or row[0] > last[0]:
            self._last_checkpoint[cluster] = row

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute("INSERT OR REPLACE INTO meta VALUES (?, ?)", (key, value))
        self._conn.commit()

    def _meta(self, key: str) -> str | None:
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return row[0] if row else None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (the archive's query surface)."""
        return self._conn

    def archived_height(self, cluster_id: int) -> int:
        """Highest archived position of a cluster (0 when empty)."""
        row = self._conn.execute(
            "SELECT MAX(position) FROM blocks WHERE cluster = ?", (int(cluster_id),)
        ).fetchone()
        return row[0] or 0

    def _count(self, table: str) -> int:
        return self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def blocks_archived(self) -> int:
        """Total block rows across all clusters."""
        return self._count("blocks")

    def tx_rows_archived(self) -> int:
        """Total transaction rows across all clusters."""
        return self._count("txs")

    def checkpoints_archived(self) -> int:
        """Total recorded checkpoint rows."""
        return self._count("checkpoints")

    def size_bytes(self) -> int:
        """Size of the archive: its files on disk, or its pages in memory."""
        if self.path == ":memory:":
            return self._conn.execute(
                "SELECT page_count * page_size FROM pragma_page_count(), pragma_page_size()"
            ).fetchone()[0]
        self.flush()
        try:
            size = os.path.getsize(self.path)
            for suffix in ("-wal", "-shm"):
                sidecar = self.path + suffix
                if os.path.exists(sidecar):
                    size += os.path.getsize(sidecar)
            return size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Make all buffered writes visible to other connections."""
        self._conn.commit()

    def close(self) -> None:
        """Commit and release the connection."""
        self._conn.commit()
        self._conn.close()

