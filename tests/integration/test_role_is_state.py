"""Role is state: ``engine.primary`` / ``engine.is_primary`` follow ``engine.view``.

They used to be properties re-derived from the view on every read, so
they could not disagree with it; now they are attributes resolved where
``view`` is assigned.  These tests drive each of the ways a view changes
— a completed view change on a crashed primary (Paxos and PBFT), a Paxos
backup adopting a newer view from an ``accept``, a recovered node
adopting the helpers' attested view through state transfer — and check
the invariant over every replica afterwards.
"""

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.bench.experiments import churn_scenario
from repro.common.config import ProtocolTuning
from repro.common.types import FaultModel
from repro.consensus.log import item_digest
from repro.consensus.messages import PaxosAccept, PaxosAccepted
from repro.consensus.paxos import PaxosEngine
from repro.consensus.pbft import PBFTEngine
from repro.recovery.state_transfer import StateTransferManager
from repro.txn.workload import WorkloadConfig

from helpers import (
    FakeHost,
    assert_roles_follow_views,
    byzantine_cluster,
    crash_cluster,
    simple_transfer,
)


@pytest.mark.parametrize("make_cluster, engine_class", [
    (crash_cluster, PaxosEngine), (byzantine_cluster, PBFTEngine),
])
def test_every_assignment_of_view_resolves_the_role(make_cluster, engine_class):
    cluster = make_cluster()
    for node in cluster.node_ids:
        engine = engine_class(FakeHost(node, cluster))
        for view in (0, 1, 2, len(cluster.node_ids), 7, 3):
            engine.view = view
            assert engine.view == view
            assert engine.primary == cluster.primary_for_view(view)
            assert engine.is_primary == (node == engine.primary)


class TestPaxosAdoptsANewerViewFromAnAccept:
    def accept(self, view, tx):
        return PaxosAccept(view=view, slot=1, digest=item_digest(tx), item=tx)

    def test_backup_adopts_and_answers_the_new_primary(self):
        cluster = crash_cluster()
        host = FakeHost(2, cluster)
        engine = PaxosEngine(host)
        tx = simple_transfer()
        engine.handle(self.accept(1, tx), src=1)  # node 1 leads view 1
        assert (engine.view, engine.primary, engine.is_primary) == (1, 1, False)
        [sent] = host.sent
        assert isinstance(sent.message, PaxosAccepted) and sent.destination == 1
        assert sent.message.view == 1

    def test_adopting_the_view_one_leads_makes_one_the_primary(self):
        cluster = crash_cluster()
        engine = PaxosEngine(FakeHost(2, cluster))
        # view 4 elects node 1 again; view 5 elects node 2 — an accept for
        # it can only come from node 2 itself, so node 0 adopts it instead.
        engine.handle(self.accept(4, simple_transfer()), src=1)
        assert (engine.view, engine.primary, engine.is_primary) == (4, 1, False)
        other = PaxosEngine(FakeHost(0, cluster))
        other.handle(self.accept(5, simple_transfer()), src=2)
        assert (other.view, other.primary, other.is_primary) == (5, 2, False)

    def test_a_newer_view_from_the_wrong_sender_or_an_older_view_changes_nothing(self):
        cluster = crash_cluster()
        host = FakeHost(2, cluster)
        engine = PaxosEngine(host)
        engine.handle(self.accept(1, simple_transfer()), src=0)  # 0 does not lead view 1
        assert (engine.view, engine.primary, host.sent) == (0, 0, [])
        engine.view = 3
        engine.handle(self.accept(1, simple_transfer()), src=1)  # stale view
        assert (engine.view, engine.primary, host.sent) == (3, 0, [])
        assert host.log.entry(1) is None


class TestCompletedViewChange:
    @pytest.mark.parametrize("fault_model", [FaultModel.CRASH, FaultModel.BYZANTINE])
    def test_crashed_primary_is_replaced_and_every_role_follows(self, fault_model):
        result = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=fault_model, num_clusters=2,
                tuning=ProtocolTuning(view_change_timeout=0.05),
            ),
            workload=WorkloadConfig(cross_shard_fraction=0.0, accounts_per_shard=32, num_clients=8),
            clients=4,
            duration=0.8,
            warmup=0.0,
            retry_timeout=0.1,
            seed=11,
            faults=FaultSchedule().crash_primary(at=0.05, cluster=0),
            verify=False,
        ).run()
        system = result.system
        assert_roles_follow_views(system.replicas.values())
        cluster = system.config.clusters[0]
        survivors = [r for r in system.replicas_of(cluster.cluster_id) if not r.crashed]
        assert all(replica.intra.view >= 1 for replica in survivors)
        assert all(r.intra.view_change.view_changes_completed >= 1 for r in survivors)
        leaders = [replica for replica in survivors if replica.intra.is_primary]
        assert len(leaders) == 1 and leaders[0].node_id != cluster.primary
        assert leaders[0].committed_count > 0


class TestStateTransferAdoption:
    def test_recovered_primary_adopts_the_attested_view_and_steps_down(self, monkeypatch):
        adoptions = []
        adopt = StateTransferManager._adopt_attested_view

        def spy(self, view, src):
            before = self.host.intra.view
            adopt(self, view, src)
            if self.host.intra.view != before:
                adoptions.append((int(self.host.node_id), before, self.host.intra.view))

        monkeypatch.setattr(StateTransferManager, "_adopt_attested_view", spy)
        result = churn_scenario(
            checkpoint_interval=20, seed=7, node=0, duration=1.6, crash_at=0.15, recover_at=0.9
        ).run()
        result.raise_if_failed()
        # The view moved on while node 0 was down; it learned that from its
        # helpers' attested claims, not from a view-change vote of its own.
        assert adoptions == [(0, 0, 1)]
        recovered = result.system.replicas[0]
        assert recovered.intra.view_change.view_changes_completed == 0
        assert (recovered.intra.view, recovered.intra.primary, recovered.intra.is_primary) == (1, 1, False)
        assert_roles_follow_views(result.system.replicas.values())
