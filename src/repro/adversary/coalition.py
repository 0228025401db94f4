"""Colluding adversaries: one shared script across Byzantine replicas.

The behaviours in :mod:`repro.adversary.behaviors` act alone.  A
:class:`Coalition` binds up to ``f`` Byzantine replicas *per cluster* —
in different clusters — to one script: the members share a target set
(the adversary's out-of-band channel, which the paper's model grants it
for free), and each member unleashes its inner behaviour only against
messages of a shared target.

The canonical play, from the ROADMAP gap list: a ``delay-attacker``
member sitting on the initiator cluster's primary spots every
cross-shard transaction it proposes and registers its digest as a
coalition target; a ``vote-withholder`` member in a *remote* involved
cluster then withholds its accept/commit votes for exactly those
digests.  Each member stays within the per-cluster fault bound ``f``,
and each looks almost honest in isolation — the delay is formally
timely, the withholder only mutes votes for a few digests — yet
together they squeeze the same transactions from both ends.  Safety
must still hold: quorums of ``2f + 1`` form from the correct replicas,
so the coalition can at worst slow the targeted instances or force
retries, and the :class:`~repro.adversary.auditor.SafetyAuditor` keeps
passing.

Members *wrap* registry behaviours (`Coalition.member("delay-attacker")`
resolves through :func:`~repro.adversary.behaviors.make_behavior`), so
any registered replica behaviour can join a coalition.  Coalitions are
formed when their :class:`~repro.api.faults.FormCoalition` event applies
(:meth:`repro.api.FaultSchedule.form_coalition`), which keeps
schedules picklable and lets pool workers build private instances —
per-seed results stay bit-identical between serial and pooled runs.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from ..consensus.messages import CrossPropose, CrossProposeB
from .behaviors import AdversaryBehavior, make_behavior
from .interceptor import Outbound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..sim.process import Process

__all__ = ["Coalition", "CoalitionMember"]

#: message types whose appearance on a member's wire marks a new target
#: (only the initiator cluster's primary multicasts these).
_SPOTTER_TYPES: tuple[type, ...] = (CrossPropose, CrossProposeB)


class Coalition:
    """Shared state binding coalition members to one script."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: request digests of the cross-shard transactions under attack.
        self.targets: set[str] = set()
        self.members: list["CoalitionMember"] = []
        #: distinct targets ever registered.
        self.targeted = 0
        #: messages a member handed to its inner behaviour.
        self.attacked = 0

    def member(
        self, behavior: "str | AdversaryBehavior" = "delay-attacker"
    ) -> "CoalitionMember":
        """Create a member whose inner behaviour is gated on the targets.

        ``behavior`` is resolved through the ordinary behaviour registry
        (or taken as a ready instance), so coalitions compose from the
        same library solo attacks use.  Members get distinct derived
        seeds, keeping the whole coalition deterministic per run seed.
        """
        inner = make_behavior(behavior, seed=self.seed + 31 * (len(self.members) + 1))
        member = CoalitionMember(coalition=self, inner=inner)
        self.members.append(member)
        return member

    def register_target(self, digest: str) -> None:
        """Add a cross-shard instance to the shared target set."""
        if digest not in self.targets:
            self.targets.add(digest)
            self.targeted += 1


class CoalitionMember(AdversaryBehavior):
    """One replica's seat in a coalition: an inner behaviour, target-gated.

    The member is honest toward everything except coalition targets.
    Whenever the host is about to multicast a cross-shard proposal, the
    member registers the instance's digest with the coalition — the
    shared channel by which, in the same simulated instant, every other
    member learns what to attack.  Messages carrying a targeted digest
    are handed to the inner behaviour (delay, withhold, tamper, …);
    everything else passes through untouched, keeping each member under
    the detection radar its inner behaviour would otherwise trip.
    """

    def __init__(self, coalition: Coalition, inner: AdversaryBehavior) -> None:
        super().__init__(seed=inner.seed)
        self.coalition = coalition
        self.inner = inner

    # ------------------------------------------------------------------
    # lifecycle (keep the inner behaviour attached alongside)
    # ------------------------------------------------------------------
    def attach(self, process: "Process") -> None:
        super().attach(process)
        self.inner.attach(process)

    def detach(self) -> None:
        self.inner.detach()
        super().detach()

    # ------------------------------------------------------------------
    # the hook
    # ------------------------------------------------------------------
    def outbound(self, dst: int, message: object) -> Sequence[Outbound] | None:
        digest = getattr(message, "digest", None)
        if digest is None:
            return self.pass_through()
        coalition = self.coalition
        if type(message) in _SPOTTER_TYPES:
            coalition.register_target(digest)
        if digest not in coalition.targets:
            return self.pass_through()
        coalition.attacked += 1
        verdict = self.inner.outbound(dst, message)
        if verdict is None:
            self.passed += 1
            return None
        # Mirror the inner behaviour's verdict in this member's counters
        # (the inner behaviour already counted it for itself).
        if len(verdict) == 0:
            self.dropped += 1
        else:
            self.injected += len(verdict)
        return verdict
