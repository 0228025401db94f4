"""Unit tests for the adversary behaviour library and its registry."""

import pytest

from repro.adversary import (
    AdversaryBehavior,
    DelayAttacker,
    EquivocatingPrimary,
    SelectiveSilence,
    SilentPrimary,
    TamperedDigest,
    VoteWithholder,
    available_behaviors,
    get_behavior,
    make_behavior,
    register_behavior,
)
from repro.adversary.behaviors import _BEHAVIORS
from repro.common.errors import ConfigurationError, RegistrationError
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

    def test_conflicting_registration_raises(self):
        with pytest.raises(RegistrationError):

            @register_behavior("silent-primary")
            class Impostor(AdversaryBehavior):
                pass

    def test_registration_is_reversible_for_tests(self):
        @register_behavior("test-noop-behavior")
        class TestBehavior(AdversaryBehavior):
            pass

        try:
            assert get_behavior("test-noop-behavior") is TestBehavior
        finally:
            del _BEHAVIORS["test-noop-behavior"]

    def test_make_behavior_from_name_and_instance(self):
        built = make_behavior("delay-attacker", seed=7)
        assert isinstance(built, DelayAttacker)
        assert built.seed == 7
        instance = SilentPrimary(seed=3)
        assert make_behavior(instance, seed=99) is instance  # own seed wins

    def test_make_behavior_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            make_behavior(42)


class TestSilence:
    def test_silent_primary_drops_everything(self):
        behavior = SilentPrimary()
        assert behavior.outbound(1, "anything") == ()
        assert behavior.outbound(2, Prepare(view=0, slot=1, digest="d", node=0)) == ()
        assert behavior.dropped == 2

    def test_selective_silence_explicit_targets(self):
        behavior = SelectiveSilence(targets=[2, 3])
        behavior.attach(FakeReplica(pid=0))
        assert behavior.outbound(2, "x") == ()
        assert behavior.outbound(1, "x") is None

    def test_selective_silence_samples_peers_deterministically(self):
        first = SelectiveSilence(seed=5)
        second = SelectiveSilence(seed=5)
        first.attach(FakeReplica(pid=0))
        second.attach(FakeReplica(pid=0))
        assert first.muted == second.muted
        assert first.muted  # non-empty
        peers = {1, 2, 3}
        assert first.muted < peers or first.muted == peers

    def test_selective_silence_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            SelectiveSilence(fraction=0.0)


class TestDelayAttacker:
    def test_delay_defaults_to_fraction_of_view_change_timeout(self):
        behavior = DelayAttacker()
        behavior.attach(FakeReplica(view_change_timeout=1.0))
        assert behavior.delay == pytest.approx(0.9)

    def test_explicit_delay_wins(self):
        behavior = DelayAttacker(delay=0.123)
        behavior.attach(FakeReplica())
        actions = behavior.outbound(1, "m")
        assert [a.extra_delay for a in actions] == [pytest.approx(0.123)]
        assert actions[0].message == "m"


class TestVoteTargeting:
    def test_withholder_drops_votes_only(self):
        behavior = VoteWithholder()
        vote = Prepare(view=0, slot=1, digest="d", node=0)
        proposal = PrePrepare(view=0, slot=1, digest="d", item="tx")
        assert behavior.outbound(1, vote) == ()
        assert behavior.outbound(1, proposal) is None

    def test_tamperer_rewrites_digest_deterministically(self):
        behavior = TamperedDigest(seed=1)
        vote = PBFTCommit(view=0, slot=4, digest="real", node=0)
        (action,) = behavior.outbound(1, vote)
        assert action.message.digest != "real"
        assert action.message.slot == 4
        # Same seed, same original digest -> same forgery.
        (again,) = TamperedDigest(seed=1).outbound(2, vote)
        assert again.message.digest == action.message.digest
        # Different seed forges differently.
        (other,) = TamperedDigest(seed=2).outbound(1, vote)
        assert other.message.digest != action.message.digest

    def test_tamperer_passes_proposals_through(self):
        behavior = TamperedDigest()
        proposal = PrePrepare(view=0, slot=1, digest="d", item="tx")
        assert behavior.outbound(1, proposal) is None


class TestEquivocatingPrimary:
    def _pre_prepare(self, slot=1, view=0):
        item = Noop(reason="real")
        return PrePrepare(view=view, slot=slot, digest=item_digest(item), item=item)

    def test_two_disjoint_halves_get_conflicting_proposals(self):
        behavior = EquivocatingPrimary(seed=1)
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
        first = EquivocatingPrimary(seed=9)
        second = EquivocatingPrimary(seed=9)
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
        behavior = EquivocatingPrimary()
        behavior.attach(FakeReplica(pid=0))
        assert behavior.outbound(1, Prepare(view=0, slot=1, digest="d", node=0)) is None


class TestAdaptiveMuting:
    """mute-during-view-change: silent exactly while an election runs."""

    class FakeManager:
        def __init__(self):
            self.in_view_change = False

    def _attached(self):
        from repro.adversary import MuteDuringViewChange

        behavior = MuteDuringViewChange()
        replica = FakeReplica(pid=1)
        replica.intra = type("FakeEngine", (), {})()
        replica.intra.view_change = self.FakeManager()
        behavior.attach(replica)
        return behavior, replica.intra.view_change

    def test_steady_state_traffic_passes(self):
        behavior, _ = self._attached()
        assert behavior.outbound(2, Prepare(view=0, slot=1, digest="d", node=1)) is None
        assert behavior.muted_messages == 0

    def test_everything_drops_during_a_view_change(self):
        behavior, manager = self._attached()
        manager.in_view_change = True
        assert behavior.outbound(2, "view-change-vote") == ()
        assert behavior.outbound(3, Prepare(view=0, slot=1, digest="d", node=1)) == ()
        assert behavior.muted_messages == 2

    def test_voice_returns_once_the_view_installs(self):
        behavior, manager = self._attached()
        manager.in_view_change = True
        assert behavior.outbound(2, "vote") == ()
        manager.in_view_change = False  # _enter_view clears the flag
        assert behavior.outbound(2, "new-view-traffic") is None
        assert behavior.muted_messages == 1

    def test_registered(self):
        from repro.adversary import MuteDuringViewChange

        assert get_behavior("mute-during-view-change") is MuteDuringViewChange
        assert "mute-during-view-change" in available_behaviors()


class TestCheckpointSuppressor:
    def test_drops_checkpoints_only(self):
        from repro.adversary import CheckpointSuppressor
        from repro.recovery.messages import Checkpoint

        behavior = CheckpointSuppressor()
        behavior.attach(FakeReplica(pid=0))
        checkpoint = Checkpoint(seq=16, digest="d", node=0)
        assert behavior.outbound(1, checkpoint) == ()
        assert behavior.outbound(1, Prepare(view=0, slot=1, digest="d", node=0)) is None
        assert behavior.suppressed_checkpoints == 1

    def test_registered(self):
        from repro.adversary import CheckpointSuppressor

        assert get_behavior("checkpoint-suppressor") is CheckpointSuppressor
        assert "checkpoint-suppressor" in available_behaviors()
