"""Offline archive audit: hash-chain continuity and balance conservation.

``audit_archive`` re-verifies a :class:`~repro.storage.archive.SqliteArchive`
without any live system, from the archived rows alone:

1. **Structure** — every archived cluster's positions are contiguous
   from 1 (checkpoint GC spills monotone prefixes, so gaps mean lost or
   deleted history).
2. **Hash chain** — each block's hash is *recomputed* from its archived
   transaction payload digests, position vector, proposer, and no-op
   flag, must equal the stored hash, and must equal the next block's
   parent reference; position 1 must chain off the genesis hash.  A
   tampered payload digest, position, or ordering breaks this walk.
3. **Balance conservation** — the archived transfers are replayed per
   shard through the *same* :class:`~repro.txn.execution.TransactionExecutor`
   the replicas ran (ownership and sufficient-funds validation
   included), bootstrapping from the archived metadata.  At every
   archived checkpoint the replayed store's digest must equal the
   quorum-stabilised digest recorded at run time — a tampered amount,
   source, or destination anywhere below a checkpoint changes the
   replayed digest.  Past the last checkpoint, totals are reconciled:
   minted funds plus cross-shard transfers whose counterpart side is not
   (yet) archived must account exactly for the replayed balances.

Run it offline with ``python -m repro.storage.audit ARCHIVE.db``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import dataclass, field

from ..common.crypto import GENESIS_HASH, chain_hash
from .archive import SqliteArchive, open_archive
from .base import StateStore

__all__ = ["ArchiveAuditReport", "audit_archive", "main"]

#: block id of the genesis block (mirrors repro.ledger.block).
_GENESIS_BLOCK_ID = "genesis"


def _recomputed_block_hash(
    tx_digests: list[str], positions: list, proposer: int, is_noop: int
) -> str:
    """Recompute a block hash from archived fields (Block's exact encoding)."""
    tx_part = ",".join(tx_digests)
    pos_part = ",".join(f"{int(cluster)}:{index}" for cluster, index in positions)
    return hashlib.sha256(
        f"B|{tx_part}|{pos_part}|{int(proposer)}|{int(is_noop)}".encode()
    ).hexdigest()


@dataclass
class _ReplayTx:
    """Duck-typed transaction fed to the executor during replay."""

    tx_id: str
    client: int
    transfers: list


@dataclass
class ArchiveAuditReport:
    """Outcome of one offline archive audit."""

    problems: list[str] = field(default_factory=list)
    clusters_audited: int = 0
    blocks_verified: int = 0
    txs_replayed: int = 0
    checkpoints_verified: int = 0
    failed_replays: int = 0
    minted_total: int = 0

    @property
    def ok(self) -> bool:
        """Whether every archived invariant held."""
        return not self.problems

    def raise_if_failed(self) -> None:
        """Raise :class:`ValueError` listing the problems, if any."""
        if self.problems:
            raise ValueError("archive audit failed: " + "; ".join(self.problems))

    def summary(self) -> str:
        """One line suitable for CLI output."""
        verdict = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return (
            f"archive audit {verdict}: {self.clusters_audited} clusters, "
            f"{self.blocks_verified} blocks hash-verified, "
            f"{self.txs_replayed} txs replayed "
            f"({self.failed_replays} failed validation), "
            f"{self.checkpoints_verified} checkpoint digests matched"
        )


def _audit_chain(archive: SqliteArchive, cluster: int, report: ArchiveAuditReport) -> None:
    """Contiguity + hash-chain walk for one cluster (streamed)."""
    conn = archive.connection
    height = archive.archived_height(cluster)
    count = conn.execute(
        "SELECT COUNT(*), MIN(position) FROM blocks WHERE cluster = ?", (cluster,)
    ).fetchone()
    if count[0] != height or (count[0] and count[1] != 1):
        report.problems.append(
            f"cluster {cluster}: archived positions are not contiguous 1..{height} "
            f"({count[0]} rows, lowest {count[1]})"
        )
        return
    tx_cursor = conn.execute(
        "SELECT position, payload_digest FROM txs WHERE cluster = ?"
        " ORDER BY position, tx_ord",
        (cluster,),
    )
    tx_row = tx_cursor.fetchone()
    previous_hash = chain_hash(_GENESIS_BLOCK_ID, GENESIS_HASH)
    for position, stored_hash, parent_hash, proposer, is_noop, positions_json in conn.execute(
        "SELECT position, block_hash, parent_hash, proposer, is_noop, positions"
        " FROM blocks WHERE cluster = ? ORDER BY position",
        (cluster,),
    ):
        digests = []
        while tx_row is not None and tx_row[0] == position:
            digests.append(tx_row[1])
            tx_row = tx_cursor.fetchone()
        recomputed = _recomputed_block_hash(
            digests, json.loads(positions_json), proposer, is_noop
        )
        if recomputed != stored_hash:
            report.problems.append(
                f"cluster {cluster} position {position}: stored hash does not match "
                f"the hash recomputed from archived transactions"
            )
        if parent_hash != previous_hash:
            report.problems.append(
                f"cluster {cluster} position {position}: hash chain broken "
                f"(parent reference does not match block {position - 1})"
            )
        previous_hash = recomputed
        report.blocks_verified += 1


def _audit_cross_consistency(archive: SqliteArchive, report: ArchiveAuditReport) -> None:
    """Every cluster that archived a tx must agree on its payload digest."""
    for tx_id, distinct in archive.connection.execute(
        "SELECT tx_id, COUNT(DISTINCT payload_digest) FROM txs"
        " GROUP BY tx_id HAVING COUNT(DISTINCT payload_digest) > 1"
    ):
        report.problems.append(
            f"transaction {tx_id}: {distinct} different payload digests archived "
            "across clusters"
        )


def _replay_cluster(
    archive: SqliteArchive,
    cluster: int,
    mapper,
    meta: dict,
    report: ArchiveAuditReport,
    out_applied: dict,
    in_applied: dict,
) -> int:
    """Replay one shard's archived transfers; returns its final total."""
    from ..txn.execution import TransactionExecutor
    from ..txn.transaction import Transfer

    num_clients = meta["num_clients"]
    store = StateStore.bootstrap(
        shard=cluster,
        mapper=mapper,
        initial_balance=meta["initial_balance"],
        owner_of=lambda account_id: account_id % num_clients,
    )
    executor = TransactionExecutor(store, mapper, cluster)
    conn = archive.connection
    height = archive.archived_height(cluster)
    checkpoints = conn.execute(
        "SELECT seq, store_digest FROM checkpoints WHERE cluster = ? AND seq <= ?"
        " ORDER BY seq",
        (cluster, height),
    ).fetchall()
    checkpoint_index = 0

    def check_checkpoints(position: int) -> None:
        nonlocal checkpoint_index
        while checkpoint_index < len(checkpoints) and checkpoints[checkpoint_index][0] <= position:
            seq, recorded = checkpoints[checkpoint_index]
            if store.state_digest() != recorded:
                report.problems.append(
                    f"cluster {cluster} checkpoint {seq}: replayed store digest "
                    "does not match the quorum-stabilised digest"
                )
            report.checkpoints_verified += 1
            checkpoint_index += 1

    def run_tx(tx: "_ReplayTx", position: int) -> None:
        try:
            result = executor.execute(tx)
        except Exception as exc:  # tampered rows can break invariants hard
            report.problems.append(
                f"cluster {cluster} position {position}: replay of {tx.tx_id} "
                f"raised {exc}"
            )
            return
        report.txs_replayed += 1
        if not result.success:
            report.failed_replays += 1
        for idx, transfer in enumerate(tx.transfers):
            source_shard = mapper.shard_of(transfer.source)
            destination_shard = mapper.shard_of(transfer.destination)
            if source_shard == destination_shard or not result.success:
                continue
            key = (tx.tx_id, idx)
            if source_shard == cluster:
                if key in in_applied:
                    del in_applied[key]
                else:
                    out_applied[key] = transfer.amount
            if destination_shard == cluster:
                if key in out_applied:
                    del out_applied[key]
                else:
                    in_applied[key] = transfer.amount

    current: "_ReplayTx | None" = None
    current_position = 0
    last_position = 0
    for position, tx_ord, tx_id, client, source, destination, amount in conn.execute(
        "SELECT t.position, t.tx_ord, t.tx_id, t.client, f.source, f.destination, f.amount"
        " FROM txs t JOIN transfers f ON f.tx_id = t.tx_id AND f.cluster = t.cluster"
        " WHERE t.cluster = ? ORDER BY t.position, t.tx_ord, f.idx",
        (cluster,),
    ):
        if current is not None and (current.tx_id != tx_id or current_position != position):
            check_checkpoints(current_position - 1)
            run_tx(current, current_position)
            current = None
        if current is None:
            current = _ReplayTx(tx_id=tx_id, client=client, transfers=[])
            current_position = position
        try:
            current.transfers.append(
                Transfer(source=source, destination=destination, amount=amount)
            )
        except Exception as exc:
            report.problems.append(
                f"cluster {cluster} position {position}: archived transfer of "
                f"{tx_id} is malformed ({exc})"
            )
        last_position = position
    if current is not None:
        check_checkpoints(current_position - 1)
        run_tx(current, current_position)
    check_checkpoints(max(last_position, height))
    return store.total_balance()


def audit_archive(source: "str | os.PathLike | SqliteArchive") -> ArchiveAuditReport:
    """Audit an archive end to end; see the module docstring for the checks."""
    from ..txn.accounts import ShardMapper  # lazy: breaks an import cycle

    archive = open_archive(source)
    archive.flush()
    report = ArchiveAuditReport()
    clusters = archive.clusters()
    report.clusters_audited = len(clusters)
    for cluster in clusters:
        _audit_chain(archive, cluster, report)
    _audit_cross_consistency(archive, report)
    if archive.conflicting_checkpoints:
        report.problems.append(
            f"{archive.conflicting_checkpoints} checkpoint(s) were recorded again with a "
            "different store digest or head hash (replicas of a cluster diverged)"
        )
    meta = archive.bootstrap_meta()
    if meta is None:
        if clusters:
            report.problems.append(
                "archive has no bootstrap metadata; balance replay impossible"
            )
        return report
    mapper = ShardMapper(
        num_shards=meta["num_shards"],
        accounts_per_shard=meta["accounts_per_shard"],
    )
    report.minted_total = (
        meta["num_shards"] * meta["accounts_per_shard"] * meta["initial_balance"]
    )
    out_applied: dict = {}
    in_applied: dict = {}
    total = sum(
        _replay_cluster(archive, shard, mapper, meta, report, out_applied, in_applied)
        for shard in range(meta["num_shards"])
    )
    # Cross-shard transfers whose counterpart side is beyond the other
    # cluster's archived height are legitimately one-sided; everything
    # else must reconcile exactly with the minted total.
    pending_out = sum(out_applied.values())
    pending_in = sum(in_applied.values())
    expected = report.minted_total - pending_out + pending_in
    if total != expected:
        report.problems.append(
            f"balance not conserved: replayed total {total} != minted "
            f"{report.minted_total} - {pending_out} in-flight out "
            f"+ {pending_in} in-flight in"
        )
    return report


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: ``python -m repro.storage.audit ARCHIVE.db``."""
    parser = argparse.ArgumentParser(description="Audit a pruned-history archive.")
    parser.add_argument("archive", help="path to the sqlite archive database")
    args = parser.parse_args(argv)
    report = audit_archive(args.archive)
    print(report.summary())
    for problem in report.problems:
        print(f"  problem: {problem}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
