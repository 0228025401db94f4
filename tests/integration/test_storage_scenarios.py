"""End-to-end storage scenarios: pinned store outcomes, archived runs.

Integration acceptance for the storage subsystem:

* the state store reproduces the outcomes recorded at e3d5edf with the
  since-deleted dict backend (identical there to the columnar one) —
  same committed transactions, same chain heights, and bit-identical
  per-replica store digests, including under crash/recover churn with
  checkpointing and state transfer;
* a checkpointed run with an archive attached keeps the resident block
  count bounded while the archive absorbs the pruned history contiguously,
  and the live audit, which judges pruned history from the prune-time
  record, passes;
* the archive answers, over its own tables, what the live system can no
  longer answer after pruning.
"""

import hashlib

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.types import FaultModel
from repro.txn.workload import WorkloadConfig

from helpers import archived_precedes, assert_roles_follow_views


def storage_scenario(
    archive: str | None = None,
    checkpoint_interval: int | None = 20,
    faults: FaultSchedule | None = None,
    duration: float = 0.8,
    seed: int = 5,
) -> Scenario:
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=FaultModel.CRASH,
            num_clusters=3,
            checkpoint_interval=checkpoint_interval,
            archive=archive,
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=256),
        clients=12,
        duration=duration,
        seed=seed,
        faults=faults or FaultSchedule(),
    )


def assert_archive_contiguous(archive, clusters) -> None:
    """Every cluster's archived positions run 1..archived height, with no gap."""
    for cluster_id in clusters:
        height = archive.archived_height(int(cluster_id))
        assert height > 0
        positions = [
            row[0]
            for row in archive.connection.execute(
                "SELECT position FROM blocks WHERE cluster = ? ORDER BY position",
                (int(cluster_id),),
            )
        ]
        assert positions == list(range(1, height + 1))


def store_pins(result) -> dict:
    """Outcome of a run, with a sha256 over the sorted per-replica store digests."""
    digests = sorted(
        (int(pid), replica.store.state_digest())
        for pid, replica in result.system.replicas.items()
    )
    return {
        "committed": result.stats.committed,
        "committed_cross": result.stats.committed_cross,
        "chain_heights": {int(cluster): height for cluster, height in result.chain_heights.items()},
        "total_balance": result.total_balance,
        "replica_digests": hashlib.sha256(repr(digests).encode()).hexdigest(),
    }


#: ``store_pins`` of three scenarios, recorded at e3d5edf on the dict
#: backend (the columnar backend read the same values there).
PLAIN_PINNED = {
    "committed": 3872,
    "committed_cross": 375,
    "chain_heights": {0: 1544, 1: 1469, 2: 1599},
    "total_balance": 768000000,
    "replica_digests": "183846f0de49551d9436a1907f0eba204796004f28deb440bd9e6dfc302af304",
}
CRASH_RECOVER_PINNED = {
    "committed": 3920,
    "committed_cross": 362,
    "chain_heights": {0: 1532, 1: 1569, 2: 1560},
    "total_balance": 768000000,
    "replica_digests": "5dbaec0fa052110b299305c3f661bcf7d766a02ee4f62edcf99049a0a3445692",
}
ARCHIVED_PINNED = {
    "committed": 3860,
    "committed_cross": 379,
    "chain_heights": {0: 1485, 1: 1590, 2: 1523},
    "total_balance": 768000000,
    "replica_digests": "654fd085aaec6e80c6d50ab84cc07039ecf1db9b752193fcf328ba220cfa3111",
}


class TestPinnedStoreOutcomes:
    def test_store_reproduces_the_dict_backend_outcome(self):
        result = storage_scenario().run()
        result.raise_if_failed()
        assert store_pins(result) == PLAIN_PINNED

    def test_store_reproduces_the_dict_backend_under_crash_and_recovery(self):
        """The pins must survive checkpoint restore and state transfer."""
        faults = FaultSchedule().crash_node(at=0.2, node_id=2).recover_node(at=0.5, node_id=2)
        result = storage_scenario(faults=faults, seed=9).run()
        result.raise_if_failed()
        assert store_pins(result) == CRASH_RECOVER_PINNED
        # The recovered replica actually exercised snapshot restore.
        assert result.recovery.state_transfers_completed == 1


class TestArchivedRun:
    def test_bounded_residency_with_contiguous_archive(self):
        """Tentpole acceptance: prune spills, residency stays bounded."""
        interval = 20
        result = storage_scenario(archive=":memory:", checkpoint_interval=interval).run()
        result.raise_if_failed()
        storage = result.storage
        decided = min(result.chain_heights.values())
        assert decided >= 5 * interval, "run too short to prove anything"
        assert storage.archived
        assert storage.archive_blocks > 0
        assert storage.archive_tx_rows > 0
        assert storage.archive_checkpoints > 0
        # Resident blocks are bounded by the checkpoint window, not the
        # run length: the ledger never retains the full chain.
        assert storage.peak_ledger_blocks < decided
        assert storage.peak_ledger_blocks <= 4 * interval
        # The archive holds the pruned prefix contiguously.
        assert_archive_contiguous(result.system.archive, result.chain_heights)

    def test_archived_run_passes_the_live_audit_over_pruned_history(self):
        result = storage_scenario(archive=":memory:", checkpoint_interval=16, seed=7).run()
        result.raise_if_failed()
        assert result.audit.ok, result.audit.problems
        archive = result.system.archive
        assert_archive_contiguous(archive, result.chain_heights)
        assert archive.tx_rows_archived() > 0
        assert archive.checkpoints_archived() > 0
        assert archive.conflicting_checkpoints == 0
        # The audit judged cross-shard blocks that exist only in the archive.
        pruned = next(iter(result.system.replicas.values())).chain.pruned_cross
        assert pruned

    def test_archived_run_reproduces_the_dict_backend_outcome(self):
        result = storage_scenario(archive=":memory:", checkpoint_interval=16, seed=3).run()
        result.raise_if_failed()
        assert store_pins(result) == ARCHIVED_PINNED
        assert result.storage.archived
        assert result.audit.ok, result.audit.problems
        archive = result.system.archive
        assert_archive_contiguous(archive, result.chain_heights)
        # Block and tx rows recorded with the pins above, checkpoint rows
        # counted on the same run.
        assert (
            archive.blocks_archived(), archive.tx_rows_archived(), archive.checkpoints_archived()
        ) == (4573, 4573, 286)

    def test_storage_gauges_in_report(self):
        """Gauges surface on the result and in summary()."""
        result = storage_scenario(archive=":memory:", duration=0.4).run()
        # Summed over every replica: 3 clusters x 3 crash-model replicas.
        assert result.storage.resident_accounts == 9 * 256
        assert result.storage.archive_blocks > 0
        summary = result.summary()
        assert f"storage    : {9 * 256} resident accounts" in summary
        assert "archive" in summary

    def test_unarchived_run_reports_no_archive(self):
        result = storage_scenario(archive=None, duration=0.4).run()
        assert result.storage is not None
        assert not result.storage.archived
        assert result.storage.archive_blocks == 0


class TestHistoryOverArchivedRun:
    """The archive answers, in plain SQL, what pruning took from the live ledger."""

    @pytest.fixture(scope="class")
    def archived_result(self):
        result = storage_scenario(archive=":memory:", checkpoint_interval=16, seed=13).run()
        result.raise_if_failed()
        return result

    def test_archived_tx_queryable_by_id(self, archived_result):
        conn = archived_result.system.archive.connection
        tx_ids = conn.execute(
            "SELECT tx_id FROM txs WHERE cluster = 0 AND position = 1"
        ).fetchall()
        noop = conn.execute(
            "SELECT is_noop FROM blocks WHERE cluster = 0 AND position = 1"
        ).fetchone()[0]
        assert tx_ids or noop
        for (tx_id,) in tx_ids:
            where = conn.execute("SELECT cluster, position FROM txs WHERE tx_id = ?", (tx_id,))
            assert (0, 1) in where.fetchall()
            assert conn.execute(
                "SELECT COUNT(*) FROM transfers WHERE tx_id = ? AND cluster = 0", (tx_id,)
            ).fetchone()[0] > 0

    def test_account_activity_covers_pruned_prefix(self, archived_result):
        archive = archived_result.system.archive
        # Some account of shard 0 must have archived activity.
        row = archive.connection.execute(
            "SELECT source FROM transfers WHERE cluster = 0 LIMIT 1"
        ).fetchone()
        assert row is not None
        account = row[0]
        assert archived_result.system.workload_mapper.shard_of(account) == 0
        activity = archive.connection.execute(
            "SELECT position, amount FROM transfers"
            " WHERE cluster = 0 AND (source = ? OR destination = ?)",
            (account, account),
        ).fetchall()
        assert activity
        assert all(0 < position <= archive.archived_height(0) for position, _ in activity)
        assert all(amount > 0 for _, amount in activity)

    def test_cross_shard_ancestry_over_archive(self, archived_result):
        archive = archived_result.system.archive
        # A cross-shard block has one row per involved cluster, same hash.
        cross = archive.connection.execute(
            "SELECT a.cluster, a.position, b.cluster, b.position"
            " FROM blocks a JOIN blocks b ON a.block_hash = b.block_hash AND a.cluster < b.cluster"
            " WHERE b.position < (SELECT MAX(position) FROM blocks WHERE cluster = b.cluster)"
            " LIMIT 1"
        ).fetchone()
        assert cross is not None, "cross-shard workload produced no archived cross block"
        src, pre, dst, post = cross
        # The next block of the destination chain descends from the source
        # chain's history through the cross block.
        assert archived_precedes(archive, (src, pre), (dst, post + 1))
        if pre > 1:
            assert archived_precedes(archive, (src, 1), (dst, post + 1))
        assert not archived_precedes(archive, (src, pre), (dst, post))  # same block


def failover_scenario() -> Scenario:
    """``perf/workloads.py``'s ``failover_ckpt`` shape, scaled down (~1 s of wall)."""
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=FaultModel.CRASH,
            num_clusters=4,
            f=1,
            checkpoint_interval=64,
            archive=":memory:",
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=2048),
        clients=32,
        duration=1.2,
        warmup=0.06,
        seed=1,
        retry_timeout=0.5,
        faults=FaultSchedule().crash_primary(at=0.2, cluster=0).recover_node(at=0.9, node_id=0),
    )


def _sha(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


def failover_pins(result) -> dict:
    system = result.system
    conn = system.archive.connection
    tables = ("blocks", "txs", "transfers", "checkpoints")
    stable = [
        (pid, replica.checkpoints.stable.seq, replica.checkpoints.stable.digest,
         replica.checkpoints.stable.store_digest)
        for pid, replica in sorted(system.replicas.items())
    ]
    return {
        "stable_seqs": [seq for _, seq, _, _ in stable],
        "stable_digests": _sha(stable),
        "store_digests": _sha(
            replica.store.state_digest() for _, replica in sorted(system.replicas.items())
        ),
        "row_counts": {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] for table in tables
        },
        "row_hashes": {
            table: _sha(conn.execute(f"SELECT * FROM {table} ORDER BY 1, 2, 3")) for table in tables
        },
        "events": system.sim.processed_events,
        "messages": system.network.messages_sent,
        "committed": result.stats.committed,
        "checkpoints_stable": result.recovery.checkpoints_stable,
        "entries_truncated": result.recovery.entries_truncated,
    }


#: ``failover_pins(failover_scenario().run())`` recorded at 829c2e3, when
#: every replica scanned its own genesis table, hashed its own leaves and
#: spilled its own copy of each pruned block (minus the since-dropped
#: ``xlinks`` table).
FAILOVER_PINNED = {
    "stable_seqs": [960, 960, 960, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024],
    "stable_digests": "28e63d6151652b54",
    "store_digests": "0a1ead1c4a974316",
    "row_counts": {"blocks": 4028, "txs": 4022, "transfers": 4022, "checkpoints": 63},
    "row_hashes": {
        "blocks": "88e66747f650c423",
        "txs": "8880eb512abf8a7c",
        "transfers": "1871973b1b78bf57",
        "checkpoints": "c52b9ba39ec343be",
    },
    "events": 71981,
    "messages": 35411,
    "committed": 3035,
    "checkpoints_stable": 189,
    "entries_truncated": 12096,
}


class TestCheckpointOncePerCluster:
    def test_digests_archive_rows_and_event_counts_are_those_of_the_per_replica_path(self):
        result = failover_scenario().run()
        result.raise_if_failed()
        assert failover_pins(result) == FAILOVER_PINNED
        assert result.recovery.state_transfers_completed == 1
        # Role is state: after the view change and the recovered primary's
        # state-transfer adoption, every engine's role is its view's.
        assert_roles_follow_views(result.system.replicas.values())
        assert [r.intra.view for r in result.system.replicas_of(0)] == [1, 1, 1]
        assert result.audit.ok, result.audit.problems
        archive = result.system.archive
        # Each row was written once, by whichever replica pruned first.
        assert archive.blocks_written == FAILOVER_PINNED["row_counts"]["blocks"]
        assert archive.conflicting_checkpoints == 0
        assert_archive_contiguous(archive, result.chain_heights)
        # An in-memory archive has a size too.
        assert result.storage.archive_bytes > 0
        assert " 0 bytes" not in result.storage.summary()
        archive.close()
