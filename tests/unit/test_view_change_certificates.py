"""Authenticated view changes: signed votes, certificates, forged views.

The simplified view change used to trust ``message.view`` outright; the
forged-view adversary (a Byzantine replica inflating views to a round
where the rotation elects it) showed why that is unsafe.  These tests
pin the defence:

* view-change votes are signed and individually verifiable;
* a ``NewView`` installs only with a verifying quorum certificate, and
  fabricated certificates (forged signatures) never verify;
* PBFT backups park pre-prepares for uninstalled views instead of
  adopting them;
* the ``forged-view`` behaviour never captures the primary seat while
  the safety audit passes;
* an *honest* view change — under crash faults and under Byzantine
  silence — still completes through the certificate check;
* remote clusters update their primary tables only through
  certificate-verified announcements.
"""

from dataclasses import replace

import pytest

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.config import ClusterConfig
from repro.common.crypto import Signature
from repro.common.types import ClusterId, FaultModel as FM, NodeId
from repro.consensus.messages import NewViewAnnouncement, ViewChange
from repro.consensus.view_change import (
    sign_view_change,
    verify_new_view_certificate,
    verify_view_change_signature,
)


def make_cluster(fault_model=FM.BYZANTINE, f=1, base=0):
    size = fault_model.min_cluster_size(f)
    return ClusterConfig(
        cluster_id=ClusterId(0),
        node_ids=tuple(NodeId(base + i) for i in range(size)),
        fault_model=fault_model,
        f=f,
    )


def signed_vote(node, new_view=1, checkpoint=0):
    vote = ViewChange(
        new_view=new_view,
        node=NodeId(node),
        decided=((3, "d3"),),
        accepted=((3, "d3", None), (4, "d4", None)),
        checkpoint=checkpoint,
    )
    return replace(vote, signature=sign_view_change(vote))


class TestViewChangeSignatures:
    def test_signed_vote_verifies(self):
        assert verify_view_change_signature(signed_vote(2))

    def test_unsigned_vote_does_not_verify(self):
        vote = replace(signed_vote(2), signature=None)
        assert not verify_view_change_signature(vote)

    def test_forged_signature_does_not_verify(self):
        vote = signed_vote(2)
        forged = replace(
            vote, signature=Signature(signer=2, payload_digest="forged", forged=True)
        )
        assert not verify_view_change_signature(forged)

    def test_signer_must_match_claimed_node(self):
        vote = signed_vote(2)
        stolen = replace(signed_vote(3), node=NodeId(2))
        assert verify_view_change_signature(vote)
        assert not verify_view_change_signature(stolen)

    def test_signature_binds_the_log_summary(self):
        vote = signed_vote(2)
        tampered = replace(vote, decided=((3, "forged-digest"),))
        assert not verify_view_change_signature(tampered)

    def test_signature_binds_the_checkpoint(self):
        vote = signed_vote(2, checkpoint=0)
        inflated = replace(vote, checkpoint=50)
        assert not verify_view_change_signature(inflated)


class TestNewViewCertificates:
    def test_honest_quorum_verifies(self):
        cluster = make_cluster()
        certificate = tuple(signed_vote(node) for node in (1, 2, 3))
        assert verify_new_view_certificate(certificate, 1, cluster)

    def test_sub_quorum_fails(self):
        cluster = make_cluster()
        certificate = tuple(signed_vote(node) for node in (1, 2))
        assert not verify_new_view_certificate(certificate, 1, cluster)

    def test_duplicate_signers_do_not_inflate_the_count(self):
        cluster = make_cluster()
        certificate = tuple(signed_vote(1) for _ in range(4))
        assert not verify_new_view_certificate(certificate, 1, cluster)

    def test_votes_for_other_views_are_ignored(self):
        cluster = make_cluster()
        certificate = (signed_vote(1), signed_vote(2), signed_vote(3, new_view=2))
        assert not verify_new_view_certificate(certificate, 1, cluster)

    def test_non_members_are_ignored(self):
        cluster = make_cluster()
        certificate = (signed_vote(1), signed_vote(2), signed_vote(99))
        assert not verify_new_view_certificate(certificate, 1, cluster)

    def test_fabricated_certificate_fails(self):
        """What the forged-view behaviour sends: forged peer signatures."""
        cluster = make_cluster()
        certificate = tuple(
            ViewChange(
                new_view=1,
                node=NodeId(node),
                decided=(),
                accepted=(),
                checkpoint=0,
                signature=Signature(signer=node, payload_digest="forged", forged=True),
            )
            for node in (0, 1, 2, 3)
        )
        assert not verify_new_view_certificate(certificate, 1, cluster)

    def test_crash_model_quorum_is_f_plus_one(self):
        cluster = make_cluster(fault_model=FM.CRASH)
        assert verify_new_view_certificate(
            (signed_vote(0), signed_vote(1)), 1, cluster
        )
        assert not verify_new_view_certificate((signed_vote(0),), 1, cluster)


def byzantine_scenario(behavior, duration=1.2, seed=1, **overrides):
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=64),
        clients=8,
        duration=duration,
        warmup=0.06,
        seed=seed,
        retry_timeout=0.2,
        faults=FaultSchedule().make_primary_byzantine(at=0.05, cluster=0, behavior=behavior),
        **overrides,
    )


class TestForgedViewRejection:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_forged_view_does_not_capture_the_primary_seat(self, seed):
        """The headline property: self-election by view inflation fails.

        The attacker (initial primary of cluster 0) rewrites its
        pre-prepares to the next view whose rotation elects it and
        fabricates the NewView/announcement paperwork.  Correct backups
        must never install a view led by the attacker; instead the
        honest timeout path rotates to a correct primary and the run
        stays safe and live.
        """
        result = byzantine_scenario("forged-view", seed=seed).run()
        assert result.safety is not None
        assert result.ok, (
            (result.audit.problems if result.audit else []) + result.safety.problems
        )
        system = result.system
        attacker = 0
        correct = [r for r in system.replicas_of(ClusterId(0)) if not r.byzantine]
        for replica in correct:
            view = replica.intra.view
            assert int(replica.cluster.primary_for_view(view)) != attacker
            # The fabricated NewView was seen and rejected at least once.
            assert replica.journal.totals["new_view_rejected"] >= 1
        # The honest fail-over still happened (liveness restored).
        assert any(r.intra.view >= 1 for r in correct)
        assert all(height > 0 for height in result.chain_heights.values())

    def test_forged_pre_prepares_are_parked_not_adopted(self):
        result = byzantine_scenario("forged-view").run()
        correct = [
            r for r in result.system.replicas_of(ClusterId(0)) if not r.byzantine
        ]
        # Backups stashed the inflated pre-prepares instead of adopting
        # their view, and the stash respects its bound.
        assert any(r.intra._parked_count > 0 for r in correct)
        for replica in correct:
            assert replica.intra._parked_count <= replica.intra.MAX_PARKED

    def test_remote_clusters_ignore_the_forged_announcement(self):
        result = byzantine_scenario("forged-view").run()
        attacker = 0
        for replica in result.system.replicas_of(ClusterId(1)):
            assert replica._remote_primaries[ClusterId(0)] != attacker or (
                # Initial primary *was* node 0; the table may only point
                # at it if no verified view change replaced it — never
                # because of the forged announcement's inflated view.
                replica._remote_views.get(ClusterId(0), 0) == 0
            )


class TestStateTransferViewAttestation:
    """State transfer adopts only quorum-attested views — and a claim of
    view v vouches for every view below it, so split claims still let
    the honest floor through."""

    def _manager(self):
        from repro.recovery.state_transfer import StateTransferManager

        class _Intra:
            view = 0

            def on_view_installed(self, view):
                self.installed = view

        class _Host:
            cluster = make_cluster()
            intra = _Intra()

        return StateTransferManager(_Host()), _Host

    def test_single_inflated_claim_is_not_adopted(self):
        manager, host = self._manager()
        manager._adopt_attested_view(99, src=1)
        assert host.intra.view == 0

    def test_split_claims_adopt_the_quorum_floor(self):
        manager, host = self._manager()
        manager._adopt_attested_view(99, src=1)  # Byzantine inflation
        manager._adopt_attested_view(2, src=2)   # honest helper
        # quorum = f + 1 = 2: two helpers attest at least view 2.
        assert host.intra.view == 2
        assert host.intra.installed == 2

    def test_matching_honest_claims_adopt_their_view(self):
        manager, host = self._manager()
        manager._adopt_attested_view(3, src=1)
        assert host.intra.view == 0
        manager._adopt_attested_view(3, src=2)
        assert host.intra.view == 3


class TestStashEviction:
    def test_nearer_views_evict_farther_stashed_junk(self):
        from repro.consensus.messages import PrePrepare
        from repro.consensus.pbft import PBFTEngine

        engine = PBFTEngine.__new__(PBFTEngine)
        engine._parked = {}
        engine._parked_count = 0
        junk = PrePrepare(view=40, slot=1, digest="d", item=None)
        for _ in range(PBFTEngine.MAX_PARKED):
            engine._park(junk, src=0)
        assert engine._parked_count == PBFTEngine.MAX_PARKED
        # A farther-or-equal view is dropped outright once full...
        engine._park(PrePrepare(view=41, slot=1, digest="d", item=None), src=0)
        assert 41 not in engine._parked
        # ...but the legitimate next view always finds room.
        near = PrePrepare(view=1, slot=1, digest="d", item=None)
        engine._park(near, src=2)
        assert engine._parked[1] == [(near, 2)]
        assert engine._parked_count == PBFTEngine.MAX_PARKED


class TestHonestViewChangesStillComplete:
    def test_certificate_accepts_honest_view_change_under_crash_faults(self):
        """The defence must not break the legitimate fail-over path."""
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
            ),
            workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=64),
            clients=8,
            duration=0.8,
            seed=1,
            faults=FaultSchedule().crash_primary(at=0.1, cluster=0),
        )
        result = scenario.run()
        assert result.ok
        survivors = [
            r for r in result.system.replicas_of(ClusterId(0)) if not r.crashed
        ]
        assert all(r.intra.view >= 1 for r in survivors)
        assert all(
            r.intra.view_change.view_changes_completed >= 1 for r in survivors
        )
        assert all(r.journal.totals["new_view_rejected"] == 0 for r in survivors)
        assert all(height > 0 for height in result.chain_heights.values())

    def test_certificate_accepts_honest_view_change_under_byzantine_silence(self):
        result = byzantine_scenario("silent-primary", duration=1.2).run()
        assert result.ok
        correct = [
            r for r in result.system.replicas_of(ClusterId(0)) if not r.byzantine
        ]
        assert any(r.intra.view >= 1 for r in correct)
        assert all(r.journal.totals["new_view_rejected"] == 0 for r in correct)

    def test_announcement_updates_remote_primary_tables(self):
        """A real view change propagates to other clusters, verified."""
        result = byzantine_scenario("silent-primary", duration=1.2).run()
        assert result.ok
        cluster0 = result.system.config.cluster(ClusterId(0))
        correct0 = [
            r for r in result.system.replicas_of(ClusterId(0)) if not r.byzantine
        ]
        new_view = max(r.intra.view for r in correct0)
        assert new_view >= 1
        expected = int(cluster0.primary_for_view(new_view))
        remote = result.system.replicas_of(ClusterId(1))
        updated = [r for r in remote if r._remote_views.get(ClusterId(0), 0) >= 1]
        assert updated, "no remote replica verified the announcement"
        for replica in updated:
            assert replica._remote_primaries[ClusterId(0)] == int(
                cluster0.primary_for_view(replica._remote_views[ClusterId(0)])
            )
        assert any(
            r._remote_primaries[ClusterId(0)] == expected for r in updated
        )

    def test_announcement_for_an_unknown_cluster_changes_nothing(self):
        """``config.cluster`` says "unknown" with ``ConfigurationError`` — the one
        failure the handler swallows (anything else is a bug and propagates)."""
        replica = byzantine_scenario("silent-primary").build_system().replicas[0]
        before = dict(replica._remote_primaries)
        claim = NewViewAnnouncement(cluster=ClusterId(99), view=1, node=NodeId(4), certificate=())
        replica._on_new_view_announcement(claim, src=4)
        assert replica._remote_primaries == before and not replica._remote_views
