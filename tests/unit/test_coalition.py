"""Colluding adversaries: the Coalition coordinator.

A coalition binds one Byzantine replica per cluster — in *different*
clusters — to one shared script via a common target set.  These tests
pin the mechanism (targets registered by the spotter, members gating
registry behaviours on them) and the end-to-end claim: the canonical
delay-attacker + vote-withholder pair squeezes cross-shard transactions
from both ends, yet every run passes the cross-replica safety audit.
"""

import dataclasses

import pytest

from repro import FaultModel, WorkloadConfig
from repro.adversary import Coalition, CoalitionMember, DelayAttacker, VoteWithholder
from repro.api import DeploymentSpec, FaultSchedule, FormCoalition, Scenario
from repro.bench.experiments import COALITION_ATTACK, attack_point, coalition_members
from repro.common.types import ClusterId
from repro.consensus.messages import CrossAcceptB, CrossProposeB, Prepare


def coalition_of(system):
    """The run's one coalition, reached through its members' interceptors."""
    (coalition,) = {
        id(process.interceptor.coalition): process.interceptor.coalition
        for process in system.processes()
        if process.byzantine
    }.values()
    return coalition


class TestCoalitionMechanism:
    def test_members_resolve_registry_behaviors(self):
        coalition = Coalition(seed=7)
        delayer = coalition.member("delay-attacker")
        withholder = coalition.member("vote-withholder")
        assert isinstance(delayer, CoalitionMember)
        assert isinstance(delayer.inner, DelayAttacker)
        assert isinstance(withholder.inner, VoteWithholder)
        assert len(coalition.members) == 2
        # Derived seeds differ, keeping members mutually deterministic.
        assert delayer.inner.seed != withholder.inner.seed

    def test_spotting_registers_targets_once(self):
        coalition = Coalition()
        member = coalition.member("vote-withholder")
        propose = CrossProposeB(
            digest="d1", request=None, involved=(ClusterId(0), ClusterId(1)),
            initiator_cluster=ClusterId(0), initiator_slot=1,
        )
        member.outbound(4, propose)
        member.outbound(5, propose)
        assert coalition.targets == {"d1"}
        assert coalition.targeted == 1

    def test_targeted_votes_are_withheld_untargeted_pass(self):
        coalition = Coalition()
        coalition.register_target("d1")
        member = coalition.member("vote-withholder")
        targeted = CrossAcceptB(digest="d1", cluster=ClusterId(1), node=5, slot=3)
        untargeted = CrossAcceptB(digest="d2", cluster=ClusterId(1), node=5, slot=4)
        assert member.outbound(0, targeted) == ()  # dropped by the inner behaviour
        assert member.outbound(0, untargeted) is None  # honest pass-through
        assert coalition.attacked == 1
        assert member.dropped == 1

    def test_messages_without_digest_pass_through(self):
        coalition = Coalition()
        coalition.register_target("d1")
        member = coalition.member("vote-withholder")
        # Intra-shard votes carry a digest too, but only *targeted*
        # digests are attacked; a NewView-style digest-less message is
        # always honest.
        prepare = Prepare(view=0, slot=1, digest="other", node=2)
        assert member.outbound(0, prepare) is None

    def test_form_coalition_event_is_adversarial_and_picklable(self):
        import pickle

        schedule = FaultSchedule().form_coalition(
            at=0.1, members={0: "delay-attacker", 5: "vote-withholder"}
        )
        (event,) = schedule.events
        assert isinstance(event, FormCoalition)
        assert event.adversarial
        assert event.members == ((0, "delay-attacker"), (5, "vote-withholder"))
        assert "coalition" in event.describe()
        restored = pickle.loads(pickle.dumps(schedule))
        assert restored.events == schedule.events

    def test_default_members_span_two_clusters_within_f(self):
        members = coalition_members(num_clusters=2, byzantine=True)
        assert members == {0: "delay-attacker", 5: "vote-withholder"}
        with pytest.raises(ValueError):
            coalition_members(num_clusters=1)


class TestCoalitionEndToEnd:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_coalition_passes_the_safety_audit(self, seed):
        result = attack_point(COALITION_ATTACK, 0.2, seed=seed).run()
        assert result.safety is not None
        problems = (result.audit.problems if result.audit else []) + result.safety.problems
        assert result.ok, problems
        system = result.system
        # One Byzantine replica per cluster — the paper's f = 1 bound in each.
        assert result.safety.byzantine_nodes == (0, 5)
        per_cluster = {}
        for node in result.safety.byzantine_nodes:
            (cluster,) = (c.cluster_id for c in system.config.clusters if node in c.node_ids)
            per_cluster[cluster] = per_cluster.get(cluster, 0) + 1
        assert all(count <= 1 for count in per_cluster.values())
        # The shared script actually fired: targets spotted, members acted.
        coalition = coalition_of(system)
        assert coalition.targeted > 0
        assert coalition.attacked > 0
        # Despite the squeeze the system keeps committing (drain included).
        assert all(height > 0 for height in result.chain_heights.values())

    def test_members_coordinate_across_clusters(self):
        result = attack_point(COALITION_ATTACK, 0.2, seed=1).run()
        coalition = coalition_of(result.system)
        delayer, withholder = coalition.members
        # The delayer (initiator primary) spotted targets and delayed them;
        # the withholder in the remote cluster attacked the *same* digests.
        assert delayer.inner.injected > 0
        assert withholder.inner.dropped > 0

    def test_no_cross_shard_traffic_means_no_targets(self):
        result = attack_point(COALITION_ATTACK, 0.0, duration=0.3).run()
        assert result.ok
        coalition = coalition_of(result.system)
        assert coalition.targeted == 0
        # With nothing to collude on, both members stay scrupulously honest.
        assert result.stats.committed > 0

    def test_serial_and_pooled_runs_are_bit_identical(self):
        from repro.api import run_scenarios

        base = attack_point(COALITION_ATTACK, 0.2, duration=0.3)
        scenarios = [dataclasses.replace(base, seed=seed) for seed in (1, 2)]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for s, p in zip(serial, pooled):
            assert p.system is None
            assert s.stats.committed == p.stats.committed
            assert s.chain_heights == p.chain_heights
