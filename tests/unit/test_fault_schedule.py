"""Unit tests for FaultSchedule ordering, value semantics, arming, and adversary events."""

import dataclasses
import pickle

import pytest

from repro import FaultModel, WorkloadConfig
from repro.adversary import DuplicatingClient, SilentPrimary
from repro.api import (
    CrashNode,
    FaultSchedule,
    Heal,
    MakeByzantine,
    MakeClientByzantine,
    MakePrimaryByzantine,
    RecoverNode,
    RestoreNode,
)
from repro.api.scenario import DeploymentSpec, Scenario
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsCollector
from repro.core.guard import InertGuard, RequestGuard


def build_system(num_clusters=2, fault_model=FaultModel.BYZANTINE, clients=0):
    system = Scenario(
        deployment=DeploymentSpec(system="sharper", fault_model=fault_model,
                                  num_clusters=num_clusters),
        workload=WorkloadConfig(accounts_per_shard=16),
    ).build_system()
    system.spawn_clients(clients, MetricsCollector())
    return system


def byzantine_pids(system):
    return [int(process.pid) for process in system.processes() if process.byzantine]


class TestOrdering:
    def test_add_keeps_events_sorted_by_time(self):
        schedule = FaultSchedule().crash_node(at=0.3, node_id=1)
        schedule = schedule.heal(at=0.1).recover_node(at=0.2, node_id=1)
        assert [type(event) for event in schedule.events] == [Heal, RecoverNode, CrashNode]
        assert [event.time for event in schedule.events] == [0.1, 0.2, 0.3]

    def test_ties_keep_insertion_order(self):
        schedule = FaultSchedule()
        for node in (1, 2, 3):
            schedule = schedule.crash_node(at=0.1, node_id=node)
        assert [event.node_id for event in schedule.events] == [1, 2, 3]

    def test_constructor_sorts_initial_events(self):
        schedule = FaultSchedule([CrashNode(time=0.5, node_id=0), Heal(time=0.1)])
        assert [event.time for event in schedule.events] == [0.1, 0.5]

    def test_interleaved_adds_stay_sorted(self):
        schedule = FaultSchedule()
        for at in (0.5, 0.1, 0.9, 0.3, 0.7):
            schedule = schedule.heal(at=at)
        assert [event.time for event in schedule.events] == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().crash_node(at=-0.1, node_id=0)


class TestValueSemantics:
    def test_default_scenarios_are_equal_and_hash_equal(self):
        assert Scenario() == Scenario()
        assert hash(Scenario()) == hash(Scenario())

    def test_equal_schedules_are_equal_and_hash_equal(self):
        def build():
            return FaultSchedule().crash_primary(at=0.1, cluster=0).partition(
                at=0.2, groups=[[0], [1]]
            )

        assert build() == build()
        assert hash(build()) == hash(build())
        assert build() != build().heal(at=0.3)

    def test_builders_return_a_new_schedule(self):
        empty = FaultSchedule()
        crashed = empty.crash_node(at=0.1, node_id=1)
        assert len(empty) == 0 and not empty
        assert len(crashed) == 1 and crashed

    def test_building_on_a_replaced_copy_leaves_the_original_alone(self):
        original = Scenario(faults=FaultSchedule().crash_primary(at=0.1, cluster=0))
        copy = dataclasses.replace(original)
        copy = dataclasses.replace(copy, faults=copy.faults.crash_node(at=0.2, node_id=1))
        assert len(original.faults) == 1
        assert len(copy.faults) == 2
        assert original != copy

    def test_pickle_round_trip_is_equal(self):
        scenario = Scenario(
            faults=FaultSchedule()
            .crash_primary(at=0.1, cluster=0)
            .form_coalition(at=0.05, members={0: "delay-attacker", 5: "vote-withholder"})
        )
        assert pickle.loads(pickle.dumps(scenario)) == scenario
        assert pickle.loads(pickle.dumps(scenario.faults)) == scenario.faults

    def test_repr_lists_the_events(self):
        schedule = FaultSchedule().crash_node(at=0.1, node_id=1).heal(at=0.2)
        assert repr(schedule) == (
            "FaultSchedule(crash node 1 @ t=0.100s; heal network @ t=0.200s)"
        )
        assert repr(FaultSchedule()) == "FaultSchedule(empty)"


class TestArming:
    def test_arm_schedules_every_event(self):
        system = build_system()
        schedule = FaultSchedule().crash_node(at=0.1, node_id=1).heal(at=0.2)
        before = system.sim.pending_events
        schedule.arm(system)
        assert system.sim.pending_events == before + 2

    def test_double_arm_on_same_system_is_a_noop(self):
        system = build_system()
        schedule = FaultSchedule().crash_node(at=0.1, node_id=1)
        schedule.arm(system)
        after_first = system.sim.pending_events
        schedule.arm(system)
        # An equal schedule is the same value: arming it is a no-op too.
        FaultSchedule().crash_node(at=0.1, node_id=1).arm(system)
        assert system.sim.pending_events == after_first

    def test_arming_a_different_system_schedules_again(self):
        schedule = FaultSchedule().crash_node(at=0.1, node_id=1)
        first = build_system()
        second = build_system()
        schedule.arm(first)
        before = second.sim.pending_events
        schedule.arm(second)
        assert second.sim.pending_events == before + 1

    def test_pickled_schedule_arms_a_fresh_system(self):
        schedule = FaultSchedule().crash_node(at=0.1, node_id=1)
        schedule.arm(build_system())
        clone = pickle.loads(pickle.dumps(schedule))
        fresh = build_system()
        before = fresh.sim.pending_events
        clone.arm(fresh)
        assert fresh.sim.pending_events == before + 1

    @pytest.mark.parametrize(
        "faults",
        [
            FaultSchedule().crash_node(at=0.05, node_id=999),
            FaultSchedule().crash_primary(at=0.05, cluster=9),
            FaultSchedule().make_primary_byzantine(at=0.05, cluster=9),
            FaultSchedule().partition(at=0.05, groups=[[0], [9]]),
            FaultSchedule().make_client_byzantine(at=0.05, client=40),
            FaultSchedule().form_coalition(
                at=0.05, members={0: "delay-attacker", 999: "vote-withholder"}
            ),
            FaultSchedule().restore(at=0.05, node=999),
        ],
        ids=["node", "primary", "byzantine-primary", "partition", "client", "coalition", "restore"],
    )
    def test_a_missing_target_fails_at_arm_time(self, faults):
        system = build_system(clients=32)
        before = system.sim.pending_events
        with pytest.raises(ConfigurationError):
            faults.arm(system)
        assert system.sim.now == 0
        assert system.sim.pending_events == before
        assert not system.armed_faults

    def test_arming_acts_only_at_the_event_time(self):
        system = build_system(clients=1)
        FaultSchedule().make_client_byzantine(at=0.05, client=0).arm(system)
        assert not system.clients[0].byzantine
        assert all(isinstance(process.request_guard, InertGuard) for process in system.processes())
        system.sim.run(until=0.06)
        assert system.clients[0].byzantine
        assert all(
            isinstance(process.request_guard, RequestGuard) for process in system.processes()
        )


class TestAdversaryEvents:
    def test_make_byzantine_attaches_behavior(self):
        system = build_system()
        MakeByzantine(time=0.0, node_id=1, behavior="silent-primary").bind(system)()
        process = system.replicas[1]
        assert process.byzantine
        assert isinstance(process.interceptor, SilentPrimary)
        assert byzantine_pids(system) == [1]

    def test_byzantine_is_read_only_and_follows_the_interceptor(self):
        process = build_system().replicas[1]
        with pytest.raises(AttributeError):
            process.byzantine = True
        process.set_interceptor(SilentPrimary())
        assert process.byzantine

    def test_make_primary_byzantine_targets_the_initial_primary(self):
        system = build_system()
        MakePrimaryByzantine(time=0.0, cluster=1, behavior="silent-primary").bind(system)()
        assert byzantine_pids(system) == [int(system.config.cluster(1).primary)]

    def test_restore_detaches_and_clears_flags(self):
        system = build_system()
        MakeByzantine(time=0.0, node_id=1, behavior="silent-primary").bind(system)()
        RestoreNode(time=0.0, node_id=1).bind(system)()
        process = system.replicas[1]
        assert not process.byzantine
        assert process.interceptor is None
        assert byzantine_pids(system) == []

    def test_adversarial_marker_drives_scenario_autodetection(self):
        clean = Scenario(faults=FaultSchedule().crash_node(at=0.1, node_id=0))
        assert not clean.has_adversary
        attacked = Scenario(
            faults=FaultSchedule().make_byzantine(at=0.1, node=0, behavior="silent-primary")
        )
        assert attacked.has_adversary

    def test_describe_mentions_the_behavior(self):
        event = MakeByzantine(time=0.25, node_id=3, behavior="equivocating-primary")
        assert "equivocating-primary" in event.describe()
        assert "node 3" in event.describe()


class TestBehaviorTargets:
    @pytest.mark.parametrize(
        "build, behavior, target",
        [
            (
                lambda: FaultSchedule().make_client_byzantine(
                    at=0.05, client=0, behavior="silent-primary"
                ),
                "silent-primary",
                "replica",
            ),
            (
                lambda: FaultSchedule().make_byzantine(
                    at=0.05, node=1, behavior="duplicating-client"
                ),
                "duplicating-client",
                "client",
            ),
            (
                lambda: FaultSchedule().make_primary_byzantine(
                    at=0.05, cluster=0, behavior="forged-signature-client"
                ),
                "forged-signature-client",
                "client",
            ),
            (
                lambda: FaultSchedule().form_coalition(
                    at=0.05, members={0: "delay-attacker", 5: "ownership-violator-client"}
                ),
                "ownership-violator-client",
                "client",
            ),
            (
                lambda: MakeByzantine(time=0.05, node_id=1, behavior=DuplicatingClient()),
                "duplicating-client",
                "client",
            ),
            (
                lambda: MakeClientByzantine(time=0.05, client=0, behavior=SilentPrimary()),
                "silent-primary",
                "replica",
            ),
        ],
        ids=[
            "client-event-replica-name",
            "replica-event-client-name",
            "primary-event-client-name",
            "coalition-client-member",
            "replica-event-client-instance",
            "client-event-replica-instance",
        ],
    )
    def test_a_behavior_aimed_at_the_wrong_target_is_refused(self, build, behavior, target):
        with pytest.raises(ConfigurationError, match=f"'{behavior}' has target '{target}'"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FaultSchedule().make_byzantine(at=0.05, node=1, behavior="silent"),
            lambda: FaultSchedule().make_client_byzantine(at=0.05, client=0, behavior="nope"),
            lambda: FaultSchedule().form_coalition(at=0.05, members={0: "gc-staller"}),
        ],
        ids=["replica", "client", "coalition"],
    )
    def test_an_unknown_behavior_is_refused_at_build_time(self, build):
        with pytest.raises(ConfigurationError, match="unknown adversary behavior"):
            build()
