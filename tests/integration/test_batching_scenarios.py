"""End-to-end batching scenarios: the differential acceptance tests.

The batching pipeline's contract has two halves:

* **batch=1 is bit-identical** — with batching disabled (the default),
  every run is indistinguishable from the pre-batching tree: same event
  count, same messages, same commits, same per-replica state digests,
  including under primary-crash view changes.  The pipeline-depth knob
  is unenforced at batch=1 and must not perturb anything either.
* **batch>1 is per-transaction equivalent** — batched runs order the
  same client traffic through fewer, fatter slots: every audit passes,
  balances are conserved, replies stay per-request, and the safety
  auditor holds under Byzantine behaviour and view changes mid-batch.

Pattern follows ``test_storage_scenarios.py``'s differential style.
"""

import dataclasses

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario, run_scenarios
from repro.common.types import ClusterId, FaultModel
from repro.txn.workload import WorkloadConfig


def batching_scenario(
    batch_size: int | None = None,
    pipeline_depth: int | None = None,
    fault_model: FaultModel = FaultModel.CRASH,
    cross_shard_fraction: float = 0.1,
    clients: int = 24,
    duration: float = 0.6,
    seed: int = 5,
    faults: FaultSchedule | None = None,
    **overrides,
) -> Scenario:
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=fault_model,
            num_clusters=3,
            batch_size=batch_size,
            pipeline_depth=pipeline_depth,
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_shard_fraction, accounts_per_shard=64
        ),
        clients=clients,
        duration=duration,
        seed=seed,
        faults=faults or FaultSchedule(),
        **overrides,
    )


def replica_digests(result) -> dict:
    return {
        pid: replica.store.state_digest()
        for pid, replica in result.system.replicas.items()
    }


def batcher_totals(result) -> dict:
    """Summed BatchPipeline counters across every armed replica."""
    totals: dict[str, int] = {}
    for replica in result.system.replicas.values():
        batcher = getattr(replica, "batcher", None)
        if batcher is None:
            continue
        for key, value in batcher.stats().items():
            totals[key] = totals.get(key, 0) + value
        totals["max_batch"] = max(
            totals.get("max_batch", 0), batcher.max_batch
        )
    return totals


def assert_identical(first, second) -> None:
    first.raise_if_failed()
    second.raise_if_failed()
    assert first.stats.committed == second.stats.committed
    assert first.stats.committed_cross == second.stats.committed_cross
    assert first.chain_heights == second.chain_heights
    assert first.total_balance == second.total_balance
    assert replica_digests(first) == replica_digests(second)
    assert (
        first.system.network.messages_sent == second.system.network.messages_sent
    )
    assert first.system.sim.processed_events == second.system.sim.processed_events


class TestBatchOneBitIdentical:
    def test_batch_one_identical_to_default(self):
        """Acceptance: batch=1/depth=1 is the pre-batching tree, bit for bit."""
        default = batching_scenario().run()
        explicit = batching_scenario(batch_size=1, pipeline_depth=1).run()
        assert_identical(default, explicit)
        # One submission path: the pipeline is always there, and at
        # batch=1 every slot it proposed carries exactly one bare request.
        totals = batcher_totals(explicit)
        assert totals["batches_proposed"] == 0
        # No client retried, so each submitted transaction was proposed once.
        assert sum(client.resubmissions for client in explicit.system.clients) == 0
        assert totals["singletons_proposed"] == explicit.stats.submitted

    def test_pipeline_depth_is_inert_at_batch_one(self):
        """The window is unenforced when batching is off: the legacy
        behaviour *is* an unbounded pipeline of single-request slots."""
        shallow = batching_scenario(batch_size=1, pipeline_depth=1).run()
        deep = batching_scenario(batch_size=1, pipeline_depth=256).run()
        assert_identical(shallow, deep)

    def test_batch_one_identical_under_primary_crash(self):
        """Bit-identity must survive a view change mid-run."""
        def faults():
            return FaultSchedule().crash_primary(at=0.2, cluster=0)

        default = batching_scenario(faults=faults(), seed=9).run()
        explicit = batching_scenario(
            batch_size=1, pipeline_depth=1, faults=faults(), seed=9
        ).run()
        assert_identical(default, explicit)

    def test_batch_one_identical_byzantine(self):
        default = batching_scenario(fault_model=FaultModel.BYZANTINE, seed=3).run()
        explicit = batching_scenario(
            batch_size=1, pipeline_depth=1, fault_model=FaultModel.BYZANTINE, seed=3
        ).run()
        assert_identical(default, explicit)


class TestBatchedPerTxEquivalent:
    def test_batched_run_is_per_tx_equivalent(self):
        """Batched ordering changes slots, never transaction semantics."""
        unbatched = batching_scenario().run()
        batched = batching_scenario(batch_size=8, pipeline_depth=4).run()
        unbatched.raise_if_failed()
        batched.raise_if_failed()
        # Same minted money, conserved; audits green on both sides.
        assert batched.total_balance == unbatched.total_balance
        assert batched.stats.committed > 0
        assert batched.stats.committed_cross > 0
        # Batches genuinely formed (the run was loaded enough to chunk).
        totals = batcher_totals(batched)
        assert totals["batches_proposed"] > 0
        assert totals["max_batch"] > 1
        assert totals["batched_requests"] > totals["batches_proposed"]
        # Fewer slots than transactions: the chains are shorter even
        # though the committed traffic is comparable.
        assert sum(batched.chain_heights.values()) < sum(
            unbatched.chain_heights.values()
        )

    def test_batched_cross_shard_commits_atomically(self):
        result = batching_scenario(
            batch_size=8, pipeline_depth=4, cross_shard_fraction=0.3, seed=11
        ).run()
        result.raise_if_failed()
        assert result.stats.committed_cross > 0
        assert batcher_totals(result)["batches_proposed"] > 0

    def test_batched_run_survives_primary_crash(self):
        """View change mid-batch: the window resets, queues re-route, and
        the cluster keeps committing under the new primary."""
        result = batching_scenario(
            batch_size=8,
            pipeline_depth=4,
            faults=FaultSchedule().crash_primary(at=0.2, cluster=0),
            seed=9,
            duration=0.8,
        ).run()
        result.raise_if_failed()
        attacked = result.system.replicas_of(ClusterId(0))
        survivors = [replica for replica in attacked if not replica.crashed]
        assert any(replica.intra.view >= 1 for replica in survivors)
        totals = batcher_totals(result)
        assert totals["view_resets"] > 0
        assert totals["batches_proposed"] > 0
        assert all(height > 0 for height in result.chain_heights.values())

    def test_batched_byzantine_passes_the_safety_audit(self):
        """Acceptance: SafetyAuditor holds with batching enabled while a
        silent primary forces a view change mid-batch."""
        result = batching_scenario(
            batch_size=8,
            pipeline_depth=4,
            fault_model=FaultModel.BYZANTINE,
            clients=16,
            duration=1.2,
            # Short client retry: a silent primary leaves backups nothing
            # to monitor, so suspicion starts from a retry reaching one.
            retry_timeout=0.2,
            faults=FaultSchedule().make_primary_byzantine(
                at=0.05, cluster=0, behavior="silent-primary"
            ),
        ).run()
        assert result.safety is not None
        assert result.ok, (
            (result.audit.problems if result.audit else [])
            + result.safety.problems
        )
        attacked = result.system.replicas_of(ClusterId(0))
        assert any(
            replica.intra.view >= 1
            for replica in attacked
            if not replica.byzantine
        )
        assert batcher_totals(result)["batches_proposed"] > 0

    def test_batched_checkpointing_and_recovery(self):
        """Batching composes with checkpoints, GC, and state transfer."""
        scenario = batching_scenario(
            batch_size=8,
            pipeline_depth=4,
            faults=FaultSchedule()
            .crash_node(at=0.2, node_id=2)
            .recover_node(at=0.5, node_id=2),
            seed=7,
            duration=0.8,
        )
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper",
                fault_model=FaultModel.CRASH,
                num_clusters=3,
                batch_size=8,
                pipeline_depth=4,
                checkpoint_interval=20,
            ),
            workload=scenario.workload,
            clients=scenario.clients,
            duration=scenario.duration,
            seed=scenario.seed,
            faults=scenario.faults,
        )
        result = scenario.run()
        result.raise_if_failed()
        assert result.recovery is not None
        assert result.recovery.state_transfers_completed > 0
        assert result.recovery.checkpoints_stable > 0
        assert batcher_totals(result)["batches_proposed"] > 0


class TestRetriesUnderFailover:
    """Client retries racing a primary crash and recovery, at every batch size.

    The schedule ``failover_ckpt`` runs at batch=1, with an impatient
    client (``retry_timeout=0.1``): retries of in-flight cross-shard
    requests reach the initiator while cluster 0 fails over.  A pipeline
    that swallows them instead of re-driving the riding item leaves
    clusters ordering shared blocks differently (or forking) on seeds 5
    (batch 2), 2 and 4 (batch 4), 6 and 8 (batch 8).
    """

    @pytest.mark.parametrize("seed", range(1, 9))
    @pytest.mark.parametrize("batch_size,pipeline_depth", [(2, 32), (4, 4), (8, 4)])
    def test_batched_retries_survive_crash_and_recovery(
        self, batch_size, pipeline_depth, seed
    ):
        scenario = batching_scenario(
            batch_size=batch_size,
            pipeline_depth=pipeline_depth,
            seed=seed,
            retry_timeout=0.1,
            faults=FaultSchedule()
            .crash_primary(at=0.1, cluster=0)
            .recover_node(at=0.4, node_id=0),
        )
        deployment = dataclasses.replace(scenario.deployment, checkpoint_interval=16)
        result = dataclasses.replace(scenario, deployment=deployment).run()
        assert result.ok, result.summary()


class TestDeterminism:
    def test_batched_runs_are_bit_identical_per_seed(self):
        first = batching_scenario(batch_size=8, pipeline_depth=4, seed=4).run()
        second = batching_scenario(batch_size=8, pipeline_depth=4, seed=4).run()
        assert first.stats.committed == second.stats.committed
        assert first.chain_heights == second.chain_heights
        assert replica_digests(first) == replica_digests(second)
        assert first.system.sim.processed_events == second.system.sim.processed_events

    def test_serial_and_pooled_batched_runs_agree(self):
        """Acceptance: serial vs pooled bit-identity holds with batching."""
        base = batching_scenario(batch_size=8, pipeline_depth=4, duration=0.3)
        scenarios = [dataclasses.replace(base, seed=seed) for seed in (1, 2)]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for s, p in zip(serial, pooled):
            assert p.system is None  # detached across the process boundary
            assert s.stats.committed == p.stats.committed
            assert s.stats.committed_cross == p.stats.committed_cross
            assert s.chain_heights == p.chain_heights
            assert s.total_balance == p.total_balance
