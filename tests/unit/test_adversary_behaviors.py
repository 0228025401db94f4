"""Unit tests for the attack catalogue and its name lookup."""

import pytest

from repro.adversary import (
    ATTACKS,
    AdversaryBehavior,
    available_behaviors,
    get_behavior,
    make_behavior,
)
from repro.common.errors import ConfigurationError
from repro.consensus.log import Noop, item_digest
from repro.consensus.messages import PBFTCommit, Prepare, PrePrepare

from helpers import byzantine_cluster


class FakeReplica:
    """Just enough of a replica for behaviours to introspect on attach."""

    def __init__(self, pid=0, cluster=None, view_change_timeout=0.5):
        self.pid = pid
        self.cluster = cluster or byzantine_cluster()
        self.view_change_timeout = view_change_timeout


class TestRegistry:
    def test_builtins_are_registered(self):
        names = set(available_behaviors())
        assert {
            "delay-attacker",
            "equivocating-primary",
            "selective-silence",
            "silent-primary",
            "tampered-digest",
            "vote-withholder",
        } <= names

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="silent-primary"):
            get_behavior("nonsense")

    def test_unknown_name_lists_the_thirteen_registered_names(self):
        with pytest.raises(ConfigurationError) as raised:
            get_behavior("equivocator")
        listed = str(raised.value).split("choose from ", 1)[1]
        assert listed == str(sorted(available_behaviors(None)))
        assert len(available_behaviors(None)) == 13

    def test_make_behavior_from_name_and_instance(self):
        built = make_behavior("delay-attacker", seed=7)
        assert isinstance(built, AdversaryBehavior)
        assert built.name == "delay-attacker"
        assert built.seed == 7
        instance = make_behavior("silent-primary", seed=3)
        assert make_behavior(instance, seed=99) is instance  # own seed wins

    def test_make_behavior_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            make_behavior(42)


class TestSilence:
    def test_silent_primary_drops_everything(self):
        behavior = make_behavior("silent-primary")
        assert behavior.outbound(1, "anything") == ()
        assert behavior.outbound(2, Prepare(view=0, slot=1, digest="d", node=0)) == ()
        assert behavior.dropped == 2

    def test_selective_silence_samples_peers_deterministically(self):
        first = make_behavior("selective-silence", seed=5)
        second = make_behavior("selective-silence", seed=5)
        first.attach(FakeReplica(pid=0))
        second.attach(FakeReplica(pid=0))
        # The peers are sampled on the first message, not on attach.
        assert "muted" not in first.memo
        first.outbound(1, "x")
        second.outbound(1, "x")
        muted = first.memo["muted"]
        assert muted == second.memo["muted"]
        assert muted  # non-empty
        peers = {1, 2, 3}
        assert muted < peers or muted == peers
        # Exactly the sampled peers are silenced; the rest hear everything.
        for dst in sorted(peers):
            assert first.outbound(dst, "x") == (() if dst in muted else None)


class TestDelayAttacker:
    def test_delay_defaults_to_fraction_of_view_change_timeout(self):
        behavior = make_behavior("delay-attacker")
        behavior.attach(FakeReplica(view_change_timeout=1.0))
        actions = behavior.outbound(1, "m")
        assert [a.extra_delay for a in actions] == [pytest.approx(0.9)]
        assert actions[0].message == "m"


class TestVoteTargeting:
    def test_withholder_drops_votes_only(self):
        behavior = make_behavior("vote-withholder")
        vote = Prepare(view=0, slot=1, digest="d", node=0)
        proposal = PrePrepare(view=0, slot=1, digest="d", item="tx")
        assert behavior.outbound(1, vote) == ()
        assert behavior.outbound(1, proposal) is None

    def test_tamperer_rewrites_digest_deterministically(self):
        behavior = make_behavior("tampered-digest", seed=1)
        vote = PBFTCommit(view=0, slot=4, digest="real", node=0)
        (action,) = behavior.outbound(1, vote)
        assert action.message.digest != "real"
        assert action.message.slot == 4
        # Same seed, same original digest -> same forgery.
        (again,) = make_behavior("tampered-digest", seed=1).outbound(2, vote)
        assert again.message.digest == action.message.digest
        # Different seed forges differently.
        (other,) = make_behavior("tampered-digest", seed=2).outbound(1, vote)
        assert other.message.digest != action.message.digest

    def test_tamperer_passes_proposals_through(self):
        behavior = make_behavior("tampered-digest")
        proposal = PrePrepare(view=0, slot=1, digest="d", item="tx")
        assert behavior.outbound(1, proposal) is None


class TestEquivocatingPrimary:
    def _pre_prepare(self, slot=1, view=0):
        item = Noop(reason="real")
        return PrePrepare(view=view, slot=slot, digest=item_digest(item), item=item)

    def test_two_disjoint_halves_get_conflicting_proposals(self):
        behavior = make_behavior("equivocating-primary", seed=1)
        behavior.attach(FakeReplica(pid=0))
        message = self._pre_prepare()
        outcomes = {dst: behavior.outbound(dst, message) for dst in (1, 2, 3)}
        victims = {dst for dst, result in outcomes.items() if result is not None}
        honest = set(outcomes) - victims
        assert victims and honest  # both halves non-empty
        forged = {outcomes[dst][0].message for dst in victims}
        assert len(forged) == 1  # internally consistent fork
        fork = forged.pop()
        assert fork.digest != message.digest
        assert fork.slot == message.slot and fork.view == message.view

    def test_fork_is_deterministic_per_seed(self):
        first = make_behavior("equivocating-primary", seed=9)
        second = make_behavior("equivocating-primary", seed=9)
        for behavior in (first, second):
            behavior.attach(FakeReplica(pid=0))
        message = self._pre_prepare(slot=7)
        for dst in (1, 2, 3):
            a = first.outbound(dst, message)
            b = second.outbound(dst, message)
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0].message.digest == b[0].message.digest

    def test_non_proposal_traffic_passes(self):
        behavior = make_behavior("equivocating-primary")
        behavior.attach(FakeReplica(pid=0))
        assert behavior.outbound(1, Prepare(view=0, slot=1, digest="d", node=0)) is None


class TestAdaptiveMuting:
    """mute-during-view-change: silent exactly while an election runs."""

    class FakeManager:
        def __init__(self):
            self.in_view_change = False

    def _attached(self):
        behavior = make_behavior("mute-during-view-change")
        replica = FakeReplica(pid=1)
        replica.intra = type("FakeEngine", (), {})()
        replica.intra.view_change = self.FakeManager()
        behavior.attach(replica)
        return behavior, replica.intra.view_change

    def test_steady_state_traffic_passes(self):
        behavior, _ = self._attached()
        assert behavior.outbound(2, Prepare(view=0, slot=1, digest="d", node=1)) is None
        assert behavior.dropped == 0

    def test_everything_drops_during_a_view_change(self):
        behavior, manager = self._attached()
        manager.in_view_change = True
        assert behavior.outbound(2, "view-change-vote") == ()
        assert behavior.outbound(3, Prepare(view=0, slot=1, digest="d", node=1)) == ()
        assert behavior.dropped == 2

    def test_voice_returns_once_the_view_installs(self):
        behavior, manager = self._attached()
        manager.in_view_change = True
        assert behavior.outbound(2, "vote") == ()
        manager.in_view_change = False  # _enter_view clears the flag
        assert behavior.outbound(2, "new-view-traffic") is None
        assert behavior.dropped == 1

    def test_registered(self):
        assert get_behavior("mute-during-view-change") is ATTACKS["mute-during-view-change"]
        assert ATTACKS["mute-during-view-change"].target == "replica"
        assert "mute-during-view-change" in available_behaviors()


class TestCheckpointSuppressor:
    def test_drops_checkpoints_only(self):
        from repro.recovery.messages import Checkpoint

        behavior = make_behavior("checkpoint-suppressor")
        behavior.attach(FakeReplica(pid=0))
        checkpoint = Checkpoint(seq=16, digest="d", node=0)
        assert behavior.outbound(1, checkpoint) == ()
        assert behavior.outbound(1, Prepare(view=0, slot=1, digest="d", node=0)) is None
        assert behavior.dropped == 1

    def test_registered(self):
        assert get_behavior("checkpoint-suppressor") is ATTACKS["checkpoint-suppressor"]
        assert ATTACKS["checkpoint-suppressor"].target == "replica"
        assert "checkpoint-suppressor" in available_behaviors()
