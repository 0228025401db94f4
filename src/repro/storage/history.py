"""Read-side query API over an archival backend.

:class:`HistoryQuery` answers the questions the live system can no
longer answer once checkpoint GC has pruned its views: block by
position, transaction by id, an account's activity over a position
range, and cross-shard ancestry between archived blocks.

Ancestry uses the archive's ``xlinks`` interval index (see
:mod:`repro.storage.archive`): within one cluster, position order *is*
ancestry; across clusters, block ``(c, p)`` reaches ``(d, q)`` iff a
cross-shard block links a position ``>= p`` of ``c`` to a position
``<= q`` of ``d`` — the single-hop interval sandwich, answered by one
indexed ``EXISTS`` — or a chain of such hops does, answered by a
recursive CTE over the interval table.  This is the pre/post-order
interval idiom for ancestor queries, applied to the position-vector DAG
instead of a document tree.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..common.errors import ConfigurationError, UnknownBlockError
from .archive import SqliteArchive, open_archive

__all__ = ["ArchivedBlock", "ArchivedTransaction", "ActivityRecord", "HistoryQuery"]


@dataclass(frozen=True)
class ArchivedBlock:
    """One archived block, as seen from one cluster's chain."""

    cluster: int
    position: int
    block_hash: str
    parent_hash: str
    proposer: int
    is_noop: bool
    #: full position vector ``[(cluster, position), ...]``.
    positions: tuple[tuple[int, int], ...]
    #: transaction ids in block order.
    tx_ids: tuple[str, ...] = ()

    @property
    def is_cross_shard(self) -> bool:
        """Whether the block spans more than one cluster."""
        return len(self.positions) > 1


@dataclass(frozen=True)
class ArchivedTransaction:
    """One archived transaction and everywhere it was committed."""

    tx_id: str
    client: int
    payload_digest: str
    #: chain position per involved (archived) cluster.
    positions: tuple[tuple[int, int], ...]
    #: ``(source, destination, amount)`` triples, in transaction order.
    transfers: tuple[tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class ActivityRecord:
    """One transfer touching a queried account, from its shard's chain."""

    position: int
    tx_id: str
    source: int
    destination: int
    amount: int
    #: balance delta from the account's point of view (+credit/-debit).
    delta: int = field(default=0)


class HistoryQuery:
    """Query interface over an archive (path or open :class:`SqliteArchive`)."""

    def __init__(self, source: "str | os.PathLike | SqliteArchive") -> None:
        self.archive = open_archive(source)
        self._conn = self.archive.connection

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------
    def _block_from_row(self, row, tx_ids: tuple[str, ...]) -> ArchivedBlock:
        cluster, position, block_hash, parent_hash, proposer, is_noop, positions = row
        return ArchivedBlock(
            cluster=cluster,
            position=position,
            block_hash=block_hash,
            parent_hash=parent_hash,
            proposer=proposer,
            is_noop=bool(is_noop),
            positions=tuple((c, p) for c, p in json.loads(positions)),
            tx_ids=tx_ids,
        )

    def _tx_ids_at(self, cluster: int, position: int) -> tuple[str, ...]:
        return tuple(
            row[0]
            for row in self._conn.execute(
                "SELECT tx_id FROM txs WHERE cluster = ? AND position = ? ORDER BY tx_ord",
                (cluster, position),
            )
        )

    def block_at(self, cluster: int, position: int) -> ArchivedBlock:
        """The archived block at ``position`` of ``cluster``'s chain."""
        blocks = self.blocks_in_range(cluster, position, position)
        if not blocks:
            raise UnknownBlockError(
                f"archive holds no block at position {position} of cluster {cluster}"
            )
        return blocks[0]

    def blocks_in_range(self, cluster: int, lo: int, hi: int) -> list[ArchivedBlock]:
        """Archived blocks of ``cluster`` with ``lo <= position <= hi``."""
        rows = self._conn.execute(
            "SELECT cluster, position, block_hash, parent_hash, proposer, is_noop, positions"
            " FROM blocks WHERE cluster = ? AND position BETWEEN ? AND ? ORDER BY position",
            (int(cluster), int(lo), int(hi)),
        ).fetchall()
        return [
            self._block_from_row(row, self._tx_ids_at(row[0], row[1])) for row in rows
        ]

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def tx_by_id(self, tx_id: str) -> ArchivedTransaction:
        """The archived transaction ``tx_id`` (all clusters that hold it)."""
        rows = self._conn.execute(
            "SELECT cluster, position, client, payload_digest FROM txs"
            " WHERE tx_id = ? ORDER BY cluster",
            (tx_id,),
        ).fetchall()
        if not rows:
            raise UnknownBlockError(f"archive holds no transaction {tx_id}")
        first_cluster = rows[0][0]
        transfers = tuple(
            (source, destination, amount)
            for source, destination, amount in self._conn.execute(
                "SELECT source, destination, amount FROM transfers"
                " WHERE tx_id = ? AND cluster = ? ORDER BY idx",
                (tx_id, first_cluster),
            )
        )
        return ArchivedTransaction(
            tx_id=tx_id,
            client=rows[0][2],
            payload_digest=rows[0][3],
            positions=tuple((cluster, position) for cluster, position, _, _ in rows),
            transfers=transfers,
        )

    # ------------------------------------------------------------------
    # account activity
    # ------------------------------------------------------------------
    def account_activity(
        self,
        account_id: int,
        lo: int = 1,
        hi: int | None = None,
        cluster: int | None = None,
    ) -> list[ActivityRecord]:
        """Ordered transfers touching ``account_id`` in a position range.

        ``cluster`` defaults to the account's shard derived from the
        archived bootstrap metadata.  Records are the *committed* order
        of the shard's chain; whether a given transfer's execution
        succeeded is re-derived by :func:`repro.storage.audit.audit_archive`
        (validation failures commit but do not move funds).
        """
        if cluster is None:
            cluster = self._home_cluster(account_id)
        if hi is None:
            hi = self.archive.archived_height(cluster)
        records = []
        for position, tx_id, source, destination, amount in self._conn.execute(
            "SELECT position, tx_id, source, destination, amount FROM transfers"
            " WHERE cluster = ? AND (source = ? OR destination = ?)"
            " AND position BETWEEN ? AND ? ORDER BY position, tx_id, idx",
            (int(cluster), int(account_id), int(account_id), int(lo), int(hi)),
        ):
            delta = 0
            if destination == account_id:
                delta += amount
            if source == account_id:
                delta -= amount
            records.append(
                ActivityRecord(
                    position=position,
                    tx_id=tx_id,
                    source=source,
                    destination=destination,
                    amount=amount,
                    delta=delta,
                )
            )
        return records

    def _home_cluster(self, account_id: int) -> int:
        meta = self.archive.bootstrap_meta()
        if meta is None:
            raise ConfigurationError(
                "archive has no bootstrap metadata; pass cluster= explicitly"
            )
        from ..txn.accounts import ShardMapper  # lazy: avoids an import cycle

        mapper = ShardMapper(
            num_shards=meta["num_shards"],
            accounts_per_shard=meta["accounts_per_shard"],
            strategy=meta.get("partition_strategy", "range"),
        )
        return int(mapper.shard_of(account_id))

    # ------------------------------------------------------------------
    # ancestry (pre/post interval index)
    # ------------------------------------------------------------------
    def is_ancestor(self, ancestor: tuple[int, int], descendant: tuple[int, int]) -> bool:
        """Whether block ``ancestor`` precedes ``descendant`` in the DAG.

        Blocks are named by ``(cluster, position)``.  Same cluster:
        plain position order.  Different clusters: a single indexed
        interval-sandwich probe over ``xlinks`` first (the overwhelmingly
        common 2-cluster case), then a recursive CTE for multi-hop paths
        through intermediate clusters.
        """
        c, p = map(int, ancestor)
        d, q = map(int, descendant)
        if c == d:
            return p < q
        # A cross-shard block occupies a position in several chains; the
        # two names may denote the *same* block, which is not a strict
        # ancestor of itself (and would otherwise satisfy the sandwich
        # with pre == p and post == q).
        if self.block_at(c, p).block_hash == self.block_at(d, q).block_hash:
            return False
        hit = self._conn.execute(
            "SELECT EXISTS(SELECT 1 FROM xlinks WHERE src_cluster = ? AND dst_cluster = ?"
            " AND pre_position >= ? AND post_position <= ?)",
            (c, d, p, q),
        ).fetchone()[0]
        if hit:
            return True
        # Multi-hop: walk interval links transitively.  From a reached
        # (cluster, pos) every cross block at a position >= pos of that
        # cluster leads to its position in the other cluster.
        row = self._conn.execute(
            """
            WITH RECURSIVE reach(cluster, pos) AS (
                SELECT ?, ?
                UNION
                SELECT x.dst_cluster, x.post_position
                FROM xlinks x JOIN reach r
                ON x.src_cluster = r.cluster AND x.pre_position >= r.pos
            )
            SELECT EXISTS(SELECT 1 FROM reach WHERE cluster = ? AND pos <= ?)
            """,
            (c, p, d, q),
        ).fetchone()
        return bool(row[0])
