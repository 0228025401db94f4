"""End-to-end storage scenarios: backend equivalence, archived runs.

Integration acceptance for the storage subsystem:

* the columnar backend is an *observationally identical* drop-in for the
  dict backend — same seed, same committed transactions, same chain
  heights, and bit-identical per-replica store digests, including under
  crash/recover churn with checkpointing and state transfer;
* a checkpointed run with an archive attached keeps the resident block
  count bounded while the archive absorbs the pruned history contiguously,
  and the offline auditor re-verifies the archived chain and balances;
* the archive answers, over its own tables, what the live system can no
  longer answer after pruning.
"""

import hashlib

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.types import FaultModel
from repro.storage import audit_archive
from repro.txn.accounts import ShardMapper
from repro.txn.workload import WorkloadConfig

from helpers import archived_precedes, assert_roles_follow_views


def storage_scenario(
    store_backend: str,
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
            store_backend=store_backend,
            archive=archive,
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=256),
        clients=12,
        duration=duration,
        seed=seed,
        faults=faults or FaultSchedule(),
    )


def replica_digests(result) -> dict:
    return {
        pid: replica.store.state_digest()
        for pid, replica in result.system.replicas.items()
    }


class TestDifferentialBackends:
    def test_columnar_is_observationally_identical_to_dict(self):
        """Satellite acceptance: backend equivalence, bit for bit."""
        dict_result = storage_scenario("dict").run()
        columnar_result = storage_scenario("columnar").run()
        dict_result.raise_if_failed()
        columnar_result.raise_if_failed()
        assert dict_result.stats.committed == columnar_result.stats.committed
        assert dict_result.stats.committed_cross == columnar_result.stats.committed_cross
        assert dict_result.chain_heights == columnar_result.chain_heights
        assert dict_result.total_balance == columnar_result.total_balance
        assert replica_digests(dict_result) == replica_digests(columnar_result)
        assert dict_result.storage.backend == "dict"
        assert columnar_result.storage.backend == "columnar"

    def test_backends_identical_under_crash_and_recovery(self):
        """Equivalence must survive checkpoint restore and state transfer."""
        def faults():
            return (
                FaultSchedule()
                .crash_node(at=0.2, node_id=2)
                .recover_node(at=0.5, node_id=2)
            )

        dict_result = storage_scenario("dict", faults=faults(), seed=9).run()
        columnar_result = storage_scenario("columnar", faults=faults(), seed=9).run()
        dict_result.raise_if_failed()
        columnar_result.raise_if_failed()
        assert dict_result.stats.committed == columnar_result.stats.committed
        assert dict_result.chain_heights == columnar_result.chain_heights
        assert replica_digests(dict_result) == replica_digests(columnar_result)
        # The recovered replica actually exercised snapshot restore.
        assert dict_result.recovery.state_transfers_completed > 0
        assert columnar_result.recovery.state_transfers_completed > 0


class TestArchivedRun:
    def test_bounded_residency_with_contiguous_archive(self):
        """Tentpole acceptance: prune spills, residency stays bounded."""
        interval = 20
        result = storage_scenario(
            "columnar", archive=":memory:", checkpoint_interval=interval
        ).run()
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
        archive = result.system.archive
        for cluster_id in result.chain_heights:
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

    def test_offline_audit_passes_on_archived_run(self):
        result = storage_scenario(
            "columnar", archive=":memory:", checkpoint_interval=16, seed=7
        ).run()
        result.raise_if_failed()
        report = audit_archive(result.system.archive)
        assert report.ok, report.problems
        assert report.blocks_verified > 0
        assert report.txs_replayed > 0
        assert report.checkpoints_verified > 0
        assert report.failed_replays == 0

    def test_dict_backend_archives_too(self):
        result = storage_scenario(
            "dict", archive=":memory:", checkpoint_interval=16, seed=3
        ).run()
        result.raise_if_failed()
        assert result.storage.archived
        report = audit_archive(result.system.archive)
        assert report.ok, report.problems

    def test_storage_gauges_in_report(self):
        """Gauges surface on the result and in summary()."""
        result = storage_scenario(
            "columnar", archive=":memory:", duration=0.4
        ).run()
        assert result.storage.backend == "columnar"
        # Summed over every replica: 3 clusters x 3 crash-model replicas.
        assert result.storage.resident_accounts == 9 * 256
        assert result.storage.archive_blocks > 0
        summary = result.summary()
        assert "storage" in summary
        assert "columnar" in summary
        assert "archive" in summary

    def test_unarchived_run_reports_no_archive(self):
        result = storage_scenario("columnar", archive=None, duration=0.4).run()
        assert result.storage is not None
        assert not result.storage.archived
        assert result.storage.archive_blocks == 0


class TestHistoryOverArchivedRun:
    """The archive answers, in plain SQL, what pruning took from the live ledger."""

    @pytest.fixture(scope="class")
    def archived_result(self):
        result = storage_scenario(
            "columnar", archive=":memory:", checkpoint_interval=16, seed=13
        ).run()
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
        meta = archive.bootstrap_meta()
        assert ShardMapper(meta["num_shards"], meta["accounts_per_shard"]).shard_of(account) == 0
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
            store_backend="columnar",
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
        archive = result.system.archive
        # Each row was written once, by whichever replica pruned first.
        assert archive.blocks_written == FAILOVER_PINNED["row_counts"]["blocks"]
        assert archive.conflicting_checkpoints == 0
        report = audit_archive(archive)
        assert report.ok, report.problems
        assert report.blocks_verified == FAILOVER_PINNED["row_counts"]["blocks"]
        # An in-memory archive has a size too.
        assert result.storage.archive_bytes > 0
        assert " 0 bytes" not in result.storage.summary()
        archive.close()
