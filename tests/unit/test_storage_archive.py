"""Unit tests for the archival tier (archive schema, writes, history, audit).

A small hash-chain-valid history is built by hand: two clusters, one
cross-shard block, every parent hash derived the way the live ledger
derives them — so the offline auditor's recomputation genuinely checks
the same encodings the system uses.
"""

import json
import os

import pytest

from repro.common.crypto import GENESIS_HASH, chain_hash
from repro.common.errors import ConfigurationError
from repro.ledger.block import GENESIS_BLOCK_ID, Block
from repro.storage import (
    ArrayAccountStore,
    SqliteArchive,
    audit_archive,
    open_archive,
)
from repro.txn.accounts import ShardMapper
from repro.txn.transaction import Transaction, Transfer

from helpers import archived_precedes

BOOTSTRAP = {
    "num_shards": 2,
    "accounts_per_shard": 4,
    "initial_balance": 100,
    "num_clients": 2,
}


def _tx(tx_id, source, destination, amount):
    return Transaction.multi_transfer(
        client=source % BOOTSTRAP["num_clients"],
        transfers=[Transfer(source=source, destination=destination, amount=amount)],
        timestamp=0.0,
        tx_id=tx_id,
    )


def _build_history():
    """Blocks of a 2-cluster run: 3 on cluster 0, 2 on cluster 1, one shared."""
    genesis = chain_hash(GENESIS_BLOCK_ID, GENESIS_HASH)
    b1 = Block.create(_tx("tx-a", 1, 2, 5), {0: 1}, proposer=0, parents={0: genesis})
    cross = Block.create(
        _tx("tx-x", 0, 5, 3),
        {0: 2, 1: 1},
        proposer=0,
        parents={0: b1.block_hash, 1: genesis},
    )
    b3 = Block.create(
        _tx("tx-b", 2, 3, 1), {0: 3}, proposer=0, parents={0: cross.block_hash}
    )
    b4 = Block.create(
        _tx("tx-c", 4, 6, 2), {1: 2}, proposer=1, parents={1: cross.block_hash}
    )
    return {"b1": b1, "cross": cross, "b3": b3, "b4": b4}


def _archived(record_checkpoint=True):
    archive = SqliteArchive(":memory:")
    archive.record_bootstrap(BOOTSTRAP)
    blocks = _build_history()
    archive.archive_blocks(0, [blocks["b1"], blocks["cross"], blocks["b3"]])
    archive.archive_blocks(1, [blocks["cross"], blocks["b4"]])
    if record_checkpoint:
        # The store digest cluster 0's replicas would have stabilised
        # after block 3: tx-a, the out-half of tx-x, then tx-b.
        mapper = ShardMapper(BOOTSTRAP["num_shards"], BOOTSTRAP["accounts_per_shard"])
        store = ArrayAccountStore.bootstrap(
            0, mapper, BOOTSTRAP["initial_balance"],
            owner_of=lambda account: account % BOOTSTRAP["num_clients"],
        )
        store.withdraw(1, 5)
        store.deposit(2, 5)
        store.withdraw(0, 3)
        store.withdraw(2, 1)
        store.deposit(3, 1)
        archive.record_checkpoint(0, 3, store.state_digest(), blocks["b3"].block_hash)
    return archive, blocks


class TestSqliteArchive:
    def test_roundtrip_counts(self):
        archive, _ = _archived()
        assert archive.clusters() == [0, 1]
        assert archive.blocks_archived() == 5  # 3 + 2 rows (cross appears twice)
        assert archive.tx_rows_archived() == 5
        assert archive.archived_height(0) == 3
        assert archive.archived_height(1) == 2
        assert archive.archived_height(7) == 0
        assert archive.checkpoints_archived() == 1

    def test_schema_holds_what_the_audit_reads_and_nothing_else(self):
        archive, _ = _archived()
        rows = archive.connection.execute(
            "SELECT type, name FROM sqlite_master WHERE sql IS NOT NULL ORDER BY type, name"
        ).fetchall()
        tables = [name for kind, name in rows if kind == "table"]
        indexes = [name for kind, name in rows if kind == "index"]
        assert tables == ["blocks", "checkpoints", "meta", "transfers", "txs"]
        assert indexes == ["txs_by_position"]  # the hash-chain walk's order

    def test_in_memory_archive_reports_its_page_footprint(self):
        archive, _ = _archived()
        conn = archive.connection
        pages = conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        assert archive.size_bytes() == pages * page_size > 0

    def test_on_disk_archive_reports_its_files(self, tmp_path):
        disk = SqliteArchive(str(tmp_path / "archive.db"))
        disk.archive_blocks(0, [_build_history()["b1"]])
        assert disk.size_bytes() >= os.path.getsize(tmp_path / "archive.db") > 0
        disk.close()

    def test_respill_is_idempotent(self):
        archive, blocks = _archived(record_checkpoint=False)
        written = archive.blocks_written
        added = archive.archive_blocks(0, [blocks["b1"], blocks["cross"]])
        assert added == 0
        assert archive.blocks_written == written
        assert archive.blocks_archived() == 5
        assert archive.tx_rows_archived() == 5

    def test_three_replicas_spilling_one_range_write_each_row_once(self):
        archive = SqliteArchive(":memory:")
        blocks = _build_history()
        spill = [blocks["b1"], blocks["cross"], blocks["b3"]]
        assert archive.archive_blocks(0, spill) == 3
        changes = archive.connection.total_changes
        for _replica in range(2):
            assert archive.archive_blocks(0, iter(spill)) == 0
            archive.record_checkpoint(0, 3, "digest", blocks["b3"].block_hash)
        # One checkpoint row from the first of the two calls; no block,
        # tx or transfer statement ran for the repeated range.
        assert archive.connection.total_changes == changes + 1
        assert archive.checkpoints_archived() == 1
        assert archive.blocks_written == 3
        assert archive.conflicting_checkpoints == 0
        # The mark is per cluster: cluster 1's copy of the cross block is new.
        assert archive.archive_blocks(1, [blocks["cross"], blocks["b4"]]) == 2

    def test_lagging_replica_and_overlapping_ranges(self):
        archive = SqliteArchive(":memory:")
        blocks = _build_history()
        assert archive.archive_blocks(0, [blocks["b1"], blocks["cross"]]) == 2
        assert archive.archive_blocks(0, [blocks["b1"]]) == 0  # a replica far behind
        # Overlap: only the part above the mark is built and written.
        assert archive.archive_blocks(0, [blocks["cross"], blocks["b3"]]) == 1
        assert archive.archive_blocks(0, [blocks["b3"]]) == 0
        assert archive.blocks_archived() == archive.blocks_written == 3
        assert archive.archived_height(0) == 3

    @pytest.mark.parametrize("reopen", [False, True])
    def test_out_of_order_spill_does_not_hide_the_gap_below_it(self, tmp_path, reopen):
        path = str(tmp_path / "archive.db")
        archive = SqliteArchive(path)
        blocks = _build_history()
        assert archive.archive_blocks(0, [blocks["b3"]]) == 1  # not a prefix: mark stays 0
        if reopen:  # the mark is seeded from the gap-free prefix, not MAX(position)
            archive.close()
            archive = SqliteArchive(path)
        assert archive.archive_blocks(0, [blocks["b1"], blocks["cross"]]) == 2
        assert archive.archive_blocks(0, [blocks["b1"], blocks["cross"], blocks["b3"]]) == 0
        assert audit_archive(archive).blocks_verified == 3

    def test_reopened_archive_resumes_at_its_height(self, tmp_path):
        path = str(tmp_path / "archive.db")
        blocks = _build_history()
        first = SqliteArchive(path)
        first.archive_blocks(0, [blocks["b1"], blocks["cross"]])
        first.record_checkpoint(0, 2, "digest-2", blocks["cross"].block_hash)
        first.close()
        reopened = SqliteArchive(path)
        changes = reopened.connection.total_changes
        assert reopened.archive_blocks(0, [blocks["b1"], blocks["cross"]]) == 0
        reopened.record_checkpoint(0, 2, "digest-2", blocks["cross"].block_hash)
        assert reopened.connection.total_changes == changes
        assert reopened.archive_blocks(0, [blocks["cross"], blocks["b3"]]) == 1
        assert reopened.blocks_archived() == 3
        reopened.record_checkpoint(0, 2, "forged", blocks["cross"].block_hash)
        assert reopened.conflicting_checkpoints == 1
        reopened.close()
        # The count is part of the archive, so an offline audit sees it.
        assert SqliteArchive(path).conflicting_checkpoints == 1
        assert not audit_archive(path).ok

    def test_older_checkpoint_of_a_lagging_replica_is_still_recorded(self):
        archive = SqliteArchive(":memory:")
        archive.record_checkpoint(0, 128, "d128", "h128")
        archive.record_checkpoint(0, 64, "d64", "h64")  # nobody recorded 64 before
        archive.record_checkpoint(0, 128, "d128", "h128")
        assert archive.checkpoints_archived() == 2
        assert archive.conflicting_checkpoints == 0

    def test_bootstrap_meta_roundtrip(self):
        archive, _ = _archived()
        assert archive.bootstrap_meta() == BOOTSTRAP
        assert SqliteArchive(":memory:").bootstrap_meta() is None

    def test_open_archive_rejects_missing_path(self, tmp_path):
        with pytest.raises(ConfigurationError):
            open_archive(tmp_path / "nope.db")

    def test_open_archive_passes_through(self):
        archive = SqliteArchive(":memory:")
        assert open_archive(archive) is archive

    def test_open_archive_reads_from_disk(self, tmp_path):
        path = tmp_path / "archive.db"
        archive, _ = _archived()
        # Rebuild on disk: :memory: archives cannot be reopened.
        disk = SqliteArchive(str(path))
        disk.record_bootstrap(BOOTSTRAP)
        blocks = _build_history()
        disk.archive_blocks(0, [blocks["b1"], blocks["cross"], blocks["b3"]])
        disk.close()
        reopened = open_archive(path)
        assert reopened.blocks_archived() == 3
        assert reopened.bootstrap_meta() == BOOTSTRAP
        reopened.close()


class TestHistoryQuery:
    """A history question is plain SQL over the tables the audit reads."""

    def test_block_at(self):
        archive, blocks = _archived()
        conn = archive.connection
        row = conn.execute(
            "SELECT block_hash, is_noop, positions FROM blocks WHERE cluster = 0 AND position = 2"
        ).fetchone()
        assert row[0] == blocks["cross"].block_hash
        assert not row[1]
        assert json.loads(row[2]) == [[0, 2], [1, 1]]
        tx_ids = conn.execute(
            "SELECT tx_id FROM txs WHERE cluster = 0 AND position = 2 ORDER BY tx_ord"
        ).fetchall()
        assert tx_ids == [("tx-x",)]
        assert json.loads(
            conn.execute("SELECT positions FROM blocks WHERE cluster = 0 AND position = 1")
            .fetchone()[0]
        ) == [[0, 1]]
        assert conn.execute(
            "SELECT 1 FROM blocks WHERE cluster = 0 AND position = 9"
        ).fetchone() is None

    def test_blocks_in_range(self):
        archive, blocks = _archived()
        rows = archive.connection.execute(
            "SELECT position, block_hash, parent_hash FROM blocks"
            " WHERE cluster = 0 AND position BETWEEN 2 AND 3 ORDER BY position"
        ).fetchall()
        assert [row[0] for row in rows] == [2, 3]
        assert rows[0][2] == blocks["b1"].block_hash
        assert rows[1][2] == rows[0][1] == blocks["cross"].block_hash

    def test_tx_by_id_spans_clusters(self):
        archive, _ = _archived()
        conn = archive.connection

        def where(tx_id):
            return conn.execute(
                "SELECT cluster, position FROM txs WHERE tx_id = ? ORDER BY cluster", (tx_id,)
            ).fetchall()

        assert where("tx-x") == [(0, 2), (1, 1)]
        # Each involved cluster keeps its own copy of the transfers.
        assert conn.execute(
            "SELECT cluster, source, destination, amount FROM transfers"
            " WHERE tx_id = 'tx-x' ORDER BY cluster"
        ).fetchall() == [(0, 0, 5, 3), (1, 0, 5, 3)]
        assert where("tx-c") == [(1, 2)]
        assert where("tx-missing") == []

    def test_account_activity_uses_home_cluster(self):
        archive, _ = _archived()
        meta = archive.bootstrap_meta()
        mapper = ShardMapper(meta["num_shards"], meta["accounts_per_shard"])

        def activity(account):
            return archive.connection.execute(
                "SELECT position, tx_id,"
                " CASE WHEN destination = ? THEN amount ELSE -amount END"
                " FROM transfers WHERE cluster = ? AND (source = ? OR destination = ?)"
                " ORDER BY position, idx",
                (account, mapper.shard_of(account), account, account),
            ).fetchall()

        assert activity(2) == [(1, "tx-a", 5), (3, "tx-b", -1)]  # shard 0
        # The cross-shard destination lives on cluster 1.
        assert activity(5) == [(1, "tx-x", 3)]

    def test_is_ancestor_same_cluster(self):
        archive, _ = _archived()
        assert archived_precedes(archive, (0, 1), (0, 3))
        assert not archived_precedes(archive, (0, 3), (0, 1))
        assert not archived_precedes(archive, (0, 2), (0, 2))

    def test_is_ancestor_single_hop(self):
        archive, _ = _archived()
        # b1 at (0,1) precedes the cross block, which precedes b4 at (1,2).
        assert archived_precedes(archive, (0, 1), (1, 2))
        assert archived_precedes(archive, (0, 2), (1, 2))
        # b4 commits after the cross block; nothing links it back to 0's chain.
        assert not archived_precedes(archive, (1, 2), (0, 3))

    def test_same_cross_block_is_not_its_own_ancestor(self):
        archive, _ = _archived()
        # (0,2) and (1,1) name the same cross-shard block.
        assert not archived_precedes(archive, (0, 2), (1, 1))
        assert not archived_precedes(archive, (1, 1), (0, 2))

    def test_is_ancestor_multi_hop(self):
        # Three clusters chained 0 -> 1 -> 2 through two cross blocks.
        archive = SqliteArchive(":memory:")
        archive.record_bootstrap(dict(BOOTSTRAP, num_shards=3))
        genesis = chain_hash(GENESIS_BLOCK_ID, GENESIS_HASH)
        hop1 = Block.create(
            _tx("tx-h1", 0, 5, 1), {0: 1, 1: 1}, proposer=0,
            parents={0: genesis, 1: genesis},
        )
        hop2 = Block.create(
            _tx("tx-h2", 4, 9, 1), {1: 2, 2: 1}, proposer=1,
            parents={1: hop1.block_hash, 2: genesis},
        )
        tail = Block.create(
            _tx("tx-h3", 8, 9, 1), {2: 2}, proposer=2, parents={2: hop2.block_hash}
        )
        archive.archive_blocks(0, [hop1])
        archive.archive_blocks(1, [hop1, hop2])
        archive.archive_blocks(2, [hop2, tail])
        assert archived_precedes(archive, (0, 1), (2, 2))
        assert not archived_precedes(archive, (2, 2), (0, 1))
        assert audit_archive(archive).ok


class TestAuditArchive:
    def test_clean_archive_passes(self):
        archive, _ = _archived()
        report = audit_archive(archive)
        assert report.ok, report.problems
        assert report.clusters_audited == 2
        assert report.blocks_verified == 5
        assert report.txs_replayed == 5
        assert report.checkpoints_verified == 1
        assert report.failed_replays == 0
        report.raise_if_failed()
        assert "2 clusters" in report.summary()

    def test_forged_second_spill_of_a_checkpoint_is_a_problem(self):
        """A skipped spill must not hide what INSERT OR IGNORE used to swallow."""
        archive, blocks = _archived()
        recorded = archive.connection.execute(
            "SELECT store_digest, head_hash FROM checkpoints WHERE cluster = 0 AND seq = 3"
        ).fetchone()
        archive.record_checkpoint(0, 3, *recorded)  # an honest peer: same row
        assert archive.conflicting_checkpoints == 0 and audit_archive(archive).ok
        archive.record_checkpoint(0, 3, "0" * 64, recorded[1])  # diverged store
        archive.record_checkpoint(0, 3, recorded[0], blocks["b1"].block_hash)  # diverged chain
        assert archive.conflicting_checkpoints == 2
        assert archive.checkpoints_archived() == 1  # the quorum's row is kept
        report = audit_archive(archive)
        assert not report.ok
        assert any("2 checkpoint(s)" in problem for problem in report.problems)

    def test_empty_archive_passes(self):
        assert audit_archive(SqliteArchive(":memory:")).ok

    def test_tampered_amount_detected(self):
        archive, _ = _archived()
        archive.connection.execute(
            "UPDATE transfers SET amount = 50 WHERE tx_id = 'tx-a'"
        )
        report = audit_archive(archive)
        assert not report.ok
        assert any(
            "digest" in problem or "conserv" in problem for problem in report.problems
        )
        with pytest.raises(Exception):
            report.raise_if_failed()

    def test_replay_reads_the_outcome_of_each_execution(self):
        """A re-attributed transaction fails ownership on replay: the audit
        counts it from ``ExecutionResult.success`` and the digests diverge."""
        archive, _ = _archived()
        archive.connection.execute("UPDATE txs SET client = 99 WHERE tx_id = 'tx-a'")
        report = audit_archive(archive)
        assert (report.txs_replayed, report.failed_replays) == (5, 1)
        assert not report.ok

    def test_tampered_block_hash_detected(self):
        archive, _ = _archived()
        archive.connection.execute(
            "UPDATE blocks SET block_hash = 'deadbeef' WHERE cluster = 0 AND position = 1"
        )
        report = audit_archive(archive)
        assert not report.ok

    def test_missing_block_breaks_contiguity(self):
        archive, _ = _archived(record_checkpoint=False)
        archive.connection.execute(
            "DELETE FROM blocks WHERE cluster = 0 AND position = 2"
        )
        report = audit_archive(archive)
        assert not report.ok
        assert any("contiguous" in problem or "gap" in problem for problem in report.problems)
