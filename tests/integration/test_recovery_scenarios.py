"""End-to-end recovery scenarios: bounded logs, churn, determinism.

Integration acceptance for the recovery subsystem:

* a long run with checkpointing decides many multiples of the interval
  yet keeps every replica's ordering log bounded by ``2 x interval``,
  while the identical run without checkpointing grows with the run;
* a replica that crashes and recovers mid-run state-transfers the
  missed (and garbage-collected) slots, reaches the cluster's applied
  height, and participates in later quorums;
* everything stays bit-identical between serial and pooled execution,
  and the safety auditor passes across truncation.
"""

import hashlib

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario, run_scenarios
from repro.bench.experiments import churn_scenario, longrun_scenario
from repro.common.types import ClusterId, FaultModel
from repro.txn.workload import WorkloadConfig


def quick_longrun(checkpoint_interval: int, **overrides) -> Scenario:
    defaults = dict(checkpoint_interval=checkpoint_interval, duration=0.8, clients=8)
    defaults.update(overrides)
    return longrun_scenario(**defaults)


class TestBoundedMemory:
    def test_checkpointing_bounds_the_ordering_log(self):
        interval = 25
        result = quick_longrun(interval).run()
        result.raise_if_failed()
        decided = min(result.chain_heights.values())
        assert decided >= 20 * interval, "run too short to prove anything"
        recovery = result.recovery
        assert recovery.checkpoints_stable > 0
        assert recovery.peak_log_entries <= 2 * interval
        assert recovery.entries_truncated > 0
        assert recovery.blocks_pruned > 0
        assert recovery.divergent_checkpoints == 0
        # Every replica's live log is bounded, not just the peak gauge.
        for replica in result.system.replicas.values():
            assert replica.log.entry_count <= 2 * interval
            assert replica.log.peak_entry_count <= 2 * interval

    def test_without_checkpointing_the_log_grows_with_the_run(self):
        result = quick_longrun(0).run()
        result.raise_if_failed()
        assert result.recovery.checkpoints_stable == 0
        assert result.recovery.peak_log_entries >= min(result.chain_heights.values())

    def test_byzantine_deployment_checkpoints_too(self):
        interval = 25
        result = quick_longrun(
            interval, fault_model=FaultModel.BYZANTINE, duration=0.6
        ).run()
        result.raise_if_failed()
        assert result.recovery.checkpoints_stable > 0
        assert result.recovery.peak_log_entries <= 2 * interval


class TestByzantineCrossShardStateBounded:
    """Decided cross-shard instances are compacted on backups, not only on primaries."""

    #: (events, messages, sha256 over per-replica height / head hash / state
    #: digest / engine counters), recorded at the commit where only the
    #: primaries compacted — the fix must not move any of them.
    PINNED = (170076, 84998, "ca3ccd22db109ce5363666a8771292e00805eadf3b2f8292c9dab8f3b713f0da")

    def test_every_replica_holds_only_in_flight_instances(self):
        interval, clients = 16, 24
        result = Scenario(
            deployment=DeploymentSpec(
                system="sharper",
                fault_model=FaultModel.BYZANTINE,
                num_clusters=2,
                checkpoint_interval=interval,
            ),
            workload=WorkloadConfig(cross_shard_fraction=0.8, accounts_per_shard=256),
            clients=clients,
            duration=0.6,
            warmup=0.05,
            seed=1,
        ).run()
        result.raise_if_failed()
        system = result.system
        replicas = [system.replicas[pid] for pid in sorted(system.replicas)]
        fingerprint = hashlib.sha256()
        for replica in replicas:
            cross = replica.cross
            assert cross.committed >= 20 * interval, "run too short to prove anything"
            # Drained, so nothing is in flight: what remains is the decided
            # tail above the last stable checkpoint (the parent kept all 622).
            assert len(cross._states) <= interval + clients
            assert all(state.request is not None for state in cross._states.values())
            fingerprint.update(
                repr(
                    (
                        replica.pid,
                        replica.chain.height,
                        replica.chain.head_hash,
                        replica.store.state_digest(),
                        cross.initiated,
                        cross.committed,
                        cross.retries,
                        cross.aborted,
                        cross.late_commits,
                    )
                ).encode()
            )
        wire = (system.sim.processed_events, system.network.messages_sent)
        assert wire + (fingerprint.hexdigest(),) == self.PINNED


class TestChurnRecovery:
    def test_crashed_replica_recovers_catches_up_and_serves(self):
        """Satellite acceptance: recover-after-crash liveness.

        The replica crashes mid-run, its peers checkpoint past the slots
        it missed, and on recovery it state-transfers and rejoins: its
        applied height must reach the cluster's, and it must have applied
        slots decided *after* its recovery (participation in later
        quorums, not just a one-shot copy).
        """
        scenario = churn_scenario(checkpoint_interval=25, seed=3)
        node = scenario.faults.events[0].node_id
        result = scenario.run()
        result.raise_if_failed()
        recovered = result.system.replicas[node]
        peers = [
            replica
            for pid, replica in result.system.replicas.items()
            if replica.cluster_id == recovered.cluster_id and pid != node
        ]
        assert not recovered.crashed
        assert result.recovery.state_transfers_completed >= 1
        # Caught up to the cluster's applied height exactly.
        peer_height = max(replica.chain.height for replica in peers)
        assert recovered.chain.height == peer_height
        assert recovered.log.next_apply == max(r.log.next_apply for r in peers)
        # It kept applying past the snapshot it installed: slots decided
        # after rejoin went through its ordinary consensus path.
        assert recovered.chain.height > result.recovery.max_stable_seq - 25
        # Safety holds across truncation and replay.
        assert result.safety is not None and result.safety.ok, result.safety.problems

    def test_recovery_works_without_checkpoints_via_full_replay(self):
        scenario = churn_scenario(checkpoint_interval=0, seed=5, duration=0.6)
        node = scenario.faults.events[0].node_id
        result = scenario.run()
        result.raise_if_failed()
        recovered = result.system.replicas[node]
        peers = [
            replica
            for pid, replica in result.system.replicas.items()
            if replica.cluster_id == recovered.cluster_id and pid != node
        ]
        assert recovered.chain.height == max(r.chain.height for r in peers)
        # No snapshot existed; the suffix replay alone carried catch-up.
        assert result.recovery.snapshots_installed == 0
        assert result.recovery.state_transfers_completed >= 1

    def test_byzantine_churn_passes_the_safety_auditor(self):
        scenario = churn_scenario(
            checkpoint_interval=20, fault_model=FaultModel.BYZANTINE, seed=7,
            node=2, duration=0.7,
        )
        result = scenario.run()
        result.raise_if_failed()
        node = scenario.faults.events[0].node_id
        recovered = result.system.replicas[node]
        peers = [
            replica
            for pid, replica in result.system.replicas.items()
            if replica.cluster_id == recovered.cluster_id and pid != node
        ]
        assert recovered.chain.height == max(r.chain.height for r in peers)
        assert result.safety is not None and result.safety.ok, result.safety.problems


class TestDeterminism:
    def test_recovery_runs_are_bit_identical_serial_vs_pooled(self):
        scenarios = [
            quick_longrun(25, duration=0.5, seed=11),
            churn_scenario(checkpoint_interval=20, seed=11, duration=0.6),
        ]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for one, two in zip(serial, pooled):
            assert one.as_dict() == two.as_dict()
            assert one.recovery.__dict__ == two.recovery.__dict__
            assert one.chain_heights == two.chain_heights


class TestLateCommitsSurfaced:
    def test_late_commits_flow_into_stats_and_reports(self):
        result = quick_longrun(0, duration=0.3).run()
        assert result.stats.late_commits == 0  # faultless: no races
        row = result.as_dict()
        assert "late_commits" in row
        assert row["late_commits"] == 0

    def test_summary_mentions_recovery_when_active(self):
        result = quick_longrun(25, duration=0.4).run()
        assert "recovery" in result.summary()
        assert "checkpoints" in result.summary()
