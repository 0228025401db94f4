"""The quorum-aware (adaptive) equivocator from the ROADMAP gap list.

Unit tests pin the adaptive trigger — equivocate exactly when, counting
the votes this multicast is about to contribute, the quorum is one peer
vote short — and an end-to-end attack run checks that the
:class:`repro.adversary.SafetyAuditor` still passes with the behaviour
active (satellite acceptance for this PR).
"""

from repro.adversary import QuorumAwareEquivocator, available_behaviors, make_behavior
from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.types import FaultModel
from repro.consensus.messages import Prepare
from repro.core.system import SharPerSystem
from repro.txn.workload import WorkloadConfig


def build_replica():
    config = DeploymentSpec(
        system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=1
    ).resolve(seed=4)
    system = SharPerSystem(config, WorkloadConfig(accounts_per_shard=64), seed=4)
    return system.replicas[1]  # a backup of the 4-node cluster


class TestRegistration:
    def test_registered_under_roadmap_name(self):
        behaviors = available_behaviors()
        assert "quorum-aware-equivocator" in behaviors
        instance = make_behavior("quorum-aware-equivocator", seed=7)
        assert isinstance(instance, QuorumAwareEquivocator)


class TestAdaptiveTrigger:
    def test_equivocates_only_when_one_vote_short(self):
        replica = build_replica()
        behavior = QuorumAwareEquivocator(seed=3)
        behavior.attach(replica)
        vote = Prepare(view=0, slot=1, digest="d" * 8, node=replica.node_id)
        # Fresh slot: after this prepare lands (own + the pre-prepare it
        # doubles for), the 2f+1 quorum is exactly one peer vote short —
        # the pivotal moment.  A seeded half of the peers gets a forged
        # digest, the rest the truth.
        outcomes = {dst: behavior.outbound(dst, vote) for dst in behavior.cluster_peers()}
        forged = [dst for dst, actions in outcomes.items() if actions is not None]
        honest = [dst for dst, actions in outcomes.items() if actions is None]
        assert forged and honest
        for dst in forged:
            (action,) = outcomes[dst]
            assert action.message.digest != vote.digest
            assert action.message.slot == vote.slot
        assert behavior.equivocations == len(forged)

    def test_stays_honest_when_cluster_is_already_ahead(self):
        replica = build_replica()
        behavior = QuorumAwareEquivocator(seed=3)
        behavior.attach(replica)
        vote = Prepare(view=0, slot=2, digest="e" * 8, node=replica.node_id)
        # Two peer prepares arrived before our own (e.g. a delayed
        # pre-prepare): the quorum completes regardless of us, the vote
        # is not pivotal, and the behaviour passes everything through.
        key = (vote.view, vote.slot, vote.digest)
        replica.intra._prepares.vote(key, 2)
        replica.intra._prepares.vote(key, 3)
        for dst in behavior.cluster_peers():
            assert behavior.outbound(dst, vote) is None
        assert behavior.equivocations == 0

    def test_non_vote_traffic_passes_through(self):
        replica = build_replica()
        behavior = QuorumAwareEquivocator(seed=3)
        behavior.attach(replica)
        assert behavior.outbound(2, object()) is None


class TestAttackRun:
    def test_auditor_passes_under_the_adaptive_attack(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
            ),
            workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=128),
            clients=16,
            duration=0.4,
            warmup=0.05,
            seed=2,
            faults=FaultSchedule().make_byzantine(
                at=0.05, node=1, behavior="quorum-aware-equivocator"
            ),
        )
        result = scenario.run()
        assert result.safety is not None
        assert result.ok, (
            (result.audit.problems if result.audit else [])
            + (result.safety.problems if result.safety else [])
        )
        adversary = result.system.replicas[1].interceptor
        # The attack genuinely fired and the cluster kept committing.
        assert adversary is not None and adversary.equivocations > 0
        assert result.stats.committed > 0
