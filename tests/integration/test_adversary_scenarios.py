"""Integration tests: SharPer under scripted Byzantine behaviour.

These are the paper's Byzantine claims made executable: with at most
``f`` adversarial replicas per cluster, every attack in the behaviour
library may slow the system down or force view changes, but safety (no
fork among correct replicas, balance conservation, at-most-once
execution) must hold, and liveness must return once the view change
elects a correct primary.
"""

import dataclasses

import pytest

from repro import FaultModel, WorkloadConfig
from repro.adversary import CoalitionMember, available_behaviors
from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.metrics import MetricsCollector
from repro.common.types import ClusterId


def byzantine_scenario(
    behavior,
    cross_shard_fraction=0.2,
    seed=1,
    duration=0.8,
    at=0.05,
    num_clusters=2,
    **overrides,
):
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=num_clusters
        ),
        workload=WorkloadConfig(cross_shard_fraction=cross_shard_fraction, accounts_per_shard=64),
        clients=8,
        duration=duration,
        warmup=0.06,
        seed=seed,
        faults=FaultSchedule().make_primary_byzantine(at=at, cluster=0, behavior=behavior),
        **overrides,
    )


class TestEveryBehaviorIsSafe:
    @pytest.mark.parametrize("behavior", sorted(available_behaviors()))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_attack_passes_the_safety_audit(self, behavior, seed):
        result = byzantine_scenario(behavior, seed=seed).run()
        assert result.safety is not None, "adversary events must arm the safety audit"
        problems = (result.audit.problems if result.audit else []) + result.safety.problems
        assert result.ok, problems
        # The Byzantine node is excluded, every correct replica checked.
        assert result.safety.byzantine_nodes == (0,)
        assert result.safety.replicas_checked == 7
        # Despite the attack the system keeps committing (drain included).
        assert all(height > 0 for height in result.chain_heights.values())


class TestViewChangeLiveness:
    def test_silent_primary_forces_view_change_and_commits_resume(self):
        """A silent (not crashed) primary must not stall its cluster.

        Backups time out waiting for the muted pre-prepares/commits,
        rotate the view, and client traffic commits again — the
        liveness half of Section 3.1's fail-over argument, exercised by
        real misbehaviour instead of a crash.
        """
        # Short client retry: a fully muted primary leaves the backups
        # nothing to monitor, so suspicion starts from a client retry
        # reaching a backup (the PBFT request timer).
        scenario = byzantine_scenario(
            "silent-primary", at=0.05, duration=2.0, retry_timeout=0.2
        )
        system = scenario.build_system()
        metrics = MetricsCollector(warmup=scenario.warmup, measure_until=scenario.duration)
        clients = system.spawn_clients(scenario.clients, metrics, retry_timeout=scenario.retry_timeout)
        system.start_clients(clients)
        scenario.faults.arm(system)

        # Run until just after the adversary activates.
        system.sim.run(until=0.06)
        attacked = system.replicas_of(ClusterId(0))
        height_at_fault = max(replica.chain.height for replica in attacked)
        assert all(replica.intra.view == 0 for replica in attacked)

        # Give the backups time to suspect the primary and fail over
        # (view_change_timeout is 0.5s), then keep serving traffic.
        system.sim.run(until=scenario.duration)

        correct = [replica for replica in attacked if not replica.byzantine]
        # Backups timed out and rotated the view...
        assert all(replica.intra.view >= 1 for replica in correct)
        assert any(
            replica.intra.view_change.view_changes_completed >= 1 for replica in correct
        )
        new_primary = next(replica for replica in correct if replica.intra.is_primary)
        assert int(new_primary.pid) != 0
        # ...and the cluster committed new transactions under the new view.
        height_after = max(replica.chain.height for replica in correct)
        assert height_after > height_at_fault

        # The run stays safe end to end.
        system.drain(2.0)
        assert system.audit().ok
        report = system.safety_audit()
        assert report.ok, report.problems

    def test_silent_primary_scenario_api_end_to_end(self):
        result = byzantine_scenario(
            "silent-primary", duration=1.2, retry_timeout=0.2
        ).run()
        assert result.ok
        replicas = result.system.replicas_of(ClusterId(0))
        assert any(
            replica.intra.view >= 1 for replica in replicas if not replica.byzantine
        )


class TestComposition:
    def test_adversary_composes_with_crash_and_partition(self):
        """One declarative schedule mixes Byzantine, crash, and partition."""
        faults = (
            FaultSchedule()
            .make_primary_byzantine(at=0.05, cluster=0, behavior="vote-withholder")
            .crash_node(at=0.10, node_id=5)
            .partition(at=0.15, groups=[[0], [1]])
            .heal(at=0.25)
            .recover_node(at=0.30, node_id=5)
        )
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
            ),
            workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=64),
            clients=8,
            duration=0.6,
            seed=2,
            faults=faults,
        )
        result = scenario.run()
        assert result.safety is not None
        assert result.ok, (result.audit.problems if result.audit else []) + result.safety.problems

    def test_restore_returns_the_node_to_correct_behavior(self):
        faults = (
            FaultSchedule()
            .make_byzantine(at=0.05, node=0, behavior="silent-primary")
            .restore(at=0.2, node=0)
        )
        scenario = dataclasses.replace(
            byzantine_scenario("silent-primary", duration=0.6), faults=faults
        )
        result = scenario.run()
        process = result.system.replicas[0]
        assert not process.byzantine
        assert process.interceptor is None
        # A restored node is audited again (byzantine set is empty).
        assert result.safety is not None
        assert result.safety.byzantine_nodes == ()
        assert result.safety.replicas_checked == 8
        assert result.ok


class TestWorkerPool:
    def test_behavior_instances_survive_the_jobs_pool(self):
        """A schedule carrying a behavior *instance* must stay picklable.

        Attachment is per-run runtime state: after a serial run armed
        the schedule, shipping the same scenarios to a worker pool must
        neither drag the live system through pickle nor leak one run's
        adversary RNG state into the next — per-seed results stay
        bit-identical between serial and pooled execution.
        """
        from repro.adversary import SelectiveSilence
        from repro.api import run_scenarios

        behavior = SelectiveSilence(seed=7, targets=[1, 2])
        base = byzantine_scenario(behavior, duration=0.3)
        scenarios = [dataclasses.replace(base, seed=seed) for seed in (1, 2)]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for s, p in zip(serial, pooled):
            assert p.system is None
            assert s.stats.committed == p.stats.committed
            assert s.chain_heights == p.chain_heights
            assert s.safety is not None and p.safety is not None
            assert s.safety.byzantine_nodes == p.safety.byzantine_nodes


class TestDeterminism:
    def test_attacked_runs_are_bit_identical_per_seed(self):
        first = byzantine_scenario("equivocating-primary", seed=3, duration=0.5).run()
        second = byzantine_scenario("equivocating-primary", seed=3, duration=0.5).run()
        assert first.stats.committed == second.stats.committed
        assert first.chain_heights == second.chain_heights
        assert first.stats.avg_latency == second.stats.avg_latency
        assert first.system.network.messages_sent == second.system.network.messages_sent
        assert first.system.sim.processed_events == second.system.sim.processed_events

    def test_seeds_differ(self):
        first = byzantine_scenario("delay-attacker", seed=1, duration=0.4).run()
        second = byzantine_scenario("delay-attacker", seed=2, duration=0.4).run()
        assert (
            first.system.sim.processed_events != second.system.sim.processed_events
            or first.chain_heights != second.chain_heights
        )


class TestAttackSweepRouting:
    def test_sweep_routes_replica_client_and_coalition_attacks(self):
        """One sweep covers all three adversary classes, all safe."""
        from repro.bench.experiments import run_attack_sweep

        results = run_attack_sweep(
            behaviors=["forged-view", "duplicating-client", "coalition"],
            cross_fractions=(0.2,),
            seeds=(1,),
            duration=0.3,
        )
        assert len(results) == 3
        forged, duplicating, coalition = results
        for result in results:
            assert result.safety is not None
            assert result.ok, (
                (result.audit.problems if result.audit else [])
                + result.safety.problems
            )
        # Each name landed on the scenario shape its target needs.
        assert forged.safety.byzantine_nodes == (0,)
        assert duplicating.system.clients[0].byzantine
        assert duplicating.safety.byzantine_nodes == ()
        assert coalition.safety.byzantine_nodes == (0, 5)
        assert all(
            isinstance(coalition.system.replicas[node].interceptor, CoalitionMember)
            for node in (0, 5)
        )

    def test_default_names_cover_every_registered_target(self):
        from repro.bench.experiments import COALITION_ATTACK, default_attack_names

        names = default_attack_names()
        assert set(available_behaviors()) <= set(names)
        assert set(available_behaviors("client")) <= set(names)
        assert COALITION_ATTACK in names


class TestFaultlessPathUnchanged:
    def test_no_adversary_means_no_safety_audit_and_no_interceptors(self):
        """Faultless sweeps must not pay for the adversary subsystem."""
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
            ),
            workload=WorkloadConfig(accounts_per_shard=64),
            clients=8,
            duration=0.2,
        )
        result = scenario.run()
        assert result.safety is None
        assert all(
            process.interceptor is None for process in result.system.processes()
        )
        assert result.ok

    def test_audit_safety_flag_forces_the_audit_on_clean_runs(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
            ),
            workload=WorkloadConfig(accounts_per_shard=64),
            clients=8,
            duration=0.2,
            audit_safety=True,
        )
        result = scenario.run()
        assert result.safety is not None
        assert result.safety.ok


class TestCheckpointSuppression:
    def test_gc_stall_is_bounded_by_quorum_stability(self):
        """A checkpoint-suppressing primary cannot starve garbage collection.

        Checkpoint stability needs an intra-quorum of matching digests;
        with one suppressor in a 4-node Byzantine cluster the remaining
        2f + 1 correct replicas still form it, and the suppressor itself
        keeps garbage-collecting too — it still *receives* its peers'
        checkpoints and counts its own unsent vote.  The observable
        stall bound: every replica's log, the attacked cluster included,
        truncates below a stable mark despite the dropped messages.
        """
        from repro.adversary import CheckpointSuppressor

        behavior = CheckpointSuppressor()
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper",
                fault_model=FaultModel.BYZANTINE,
                num_clusters=2,
                checkpoint_interval=16,
            ),
            workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=64),
            clients=8,
            duration=0.8,
            seed=1,
            faults=FaultSchedule().make_primary_byzantine(
                at=0.05, cluster=0, behavior=behavior
            ),
        )
        result = scenario.run()
        # The attack actually fired (arming copies the instance so runs
        # never share adversary RNG state — read the attached copy).
        attached = result.system.replicas[0].interceptor
        assert attached.suppressed_checkpoints > 0
        # ...yet the run stays safe and garbage collection proceeds.
        assert result.safety is not None
        assert result.ok, (
            (result.audit.problems if result.audit else [])
            + result.safety.problems
        )
        assert result.recovery is not None
        assert result.recovery.checkpoints_stable > 0
        assert result.recovery.entries_truncated > 0
        # Quorum stability is cluster-local: even the suppressor's own
        # cluster (and the suppressor itself) truncated its log.
        for replica in result.system.replicas_of(ClusterId(0)):
            assert replica.log.low_water_mark > 0
