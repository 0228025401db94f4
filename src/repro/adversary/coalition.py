"""Colluding adversaries: one shared target set across Byzantine replicas.

A lone behaviour acts on its own.  A :class:`Coalition` binds up to
``f`` Byzantine replicas *per cluster* — in different clusters — to one
script: the members share a target set (the adversary's out-of-band
channel, which the paper's model grants it for free), and each member
runs its catalogue row only against messages of a shared target.

The canonical play: a ``delay-attacker`` member on the initiator
cluster's primary spots every cross-shard transaction it proposes and
registers its digest as a target; a ``vote-withholder`` member in a
*remote* involved cluster then withholds its accept/commit votes for
exactly those digests.  Each member stays within its cluster's bound
``f`` and looks almost honest alone, yet together they squeeze the same
transactions from both ends.  Safety must still hold: quorums of
``2f + 1`` form from the correct replicas, so the coalition can at worst
slow the targeted instances or force retries, and the
:class:`~repro.adversary.auditor.SafetyAuditor` keeps passing.

A coalition is not an interceptor: it is the gate a member
(:class:`~repro.adversary.behaviors.AdversaryBehavior` with
``coalition`` set) checks before its row.  Coalitions are formed when
their :class:`~repro.api.faults.FormCoalition` event applies
(:meth:`repro.api.FaultSchedule.form_coalition`), which keeps schedules
picklable and lets pool workers build private instances — per-seed
results stay bit-identical between serial and pooled runs.
"""

from __future__ import annotations

from ..consensus.messages import CrossPropose, CrossProposeB
from .behaviors import AdversaryBehavior

__all__ = ["Coalition"]

#: message types whose appearance on a member's wire marks a new target
#: (only the initiator cluster's primary multicasts these).
_SPOTTER_TYPES: tuple[type, ...] = (CrossPropose, CrossProposeB)


class Coalition:
    """The target set shared by a coalition's members."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: request digests of the cross-shard transactions under attack.
        self.targets: set[str] = set()
        self.members: list[AdversaryBehavior] = []
        #: distinct targets ever registered.
        self.targeted = 0
        #: messages a member attacked (handed to its row).
        self.attacked = 0

    def member(self, behavior: str = "delay-attacker") -> AdversaryBehavior:
        """A member running catalogue row ``behavior`` on coalition targets only.

        Members get distinct derived seeds, keeping the whole coalition
        deterministic per run seed.
        """
        seed = self.seed + 31 * (len(self.members) + 1)
        member = AdversaryBehavior(behavior, seed, coalition=self)
        self.members.append(member)
        return member

    def register_target(self, digest: str) -> None:
        """Add a cross-shard instance to the shared target set."""
        if digest not in self.targets:
            self.targets.add(digest)
            self.targeted += 1

    def admits(self, message: object) -> bool:
        """Whether a member attacks ``message``: it carries a target's digest.

        A cross-shard proposal on a member's wire registers its digest
        first — the shared channel by which, in the same simulated
        instant, every other member learns what to attack.
        """
        digest = getattr(message, "digest", None)
        if digest is None:
            return False
        if type(message) in _SPOTTER_TYPES:
            self.register_target(digest)
        if digest not in self.targets:
            return False
        self.attacked += 1
        return True
