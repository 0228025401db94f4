"""Adversary subsystem: scripted Byzantine behaviour + safety auditing.

The paper claims safety and liveness with up to ``f`` **Byzantine**
replicas per cluster and correct clients (Section 2.1); this package
makes both halves of that claim testable instead of assumed:

* :class:`MessageInterceptor` / :class:`Outbound` — the transport hook:
  a per-process outbound filter that can drop, delay, duplicate, or
  rewrite messages per destination (attached with
  :meth:`repro.sim.process.Process.set_interceptor`).
* the attack catalogue (:mod:`repro.adversary.behaviors`) — one
  seeded interceptor, :class:`AdversaryBehavior`, running one row of the
  :data:`ATTACKS` table: ten replica attacks (equivocation, silence,
  delays, withheld or tampered votes, the adaptive quorum-aware
  equivocator, forged views, election muting, checkpoint suppression)
  and three client attacks on the request path the paper assumes
  correct (duplicates and replays, forged signatures, ownership
  violations), selected by name (:func:`get_behavior` /
  :func:`make_behavior`; :func:`available_behaviors` filters by target).
* :class:`Coalition` — colluding adversaries: up to ``f`` Byzantine
  replicas per cluster, in *different* clusters, gated on one shared
  target set (:meth:`repro.api.FaultSchedule.form_coalition`).
* :class:`SafetyAuditor` / :class:`SafetyReport` — post-run checks
  across every correct replica; a process is Byzantine exactly while an
  interceptor is attached to it (:attr:`repro.sim.process.Process.byzantine`).

Invariants this package asserts (and the protocol hardening defends),
regardless of which behaviours are armed, as long as at most ``f``
replicas per cluster are Byzantine:

* **no fork** — correct replicas of a cluster never commit different
  blocks at the same chain position (pruned history is vouched for by
  its stable-checkpoint quorum);
* **balance conservation** — one correct store per shard sums to
  exactly the minted total;
* **at-most-once execution** — no transaction id commits twice in any
  correct chain, under duplicated, replayed, or mutated client
  requests included (the :class:`~repro.core.guard.RequestGuard` door
  screen plus the apply-time no-op backstop);
* **authenticated elections** — no replica adopts a view, and no node
  updates its remote-primary table, without a verifying quorum
  certificate of signed view-change votes (``2f + 1`` Byzantine,
  ``f + 1`` crash).

Adversaries compose with crashes and partitions in one declarative
schedule through :class:`repro.api.FaultSchedule`
(``make_byzantine`` / ``make_client_byzantine`` / ``form_coalition`` /
``restore``), and every shipped scenario is expected to pass the
auditor — see ``examples/byzantine_attacks.py`` and
``docs/adversary.md``.
"""

from .auditor import SafetyAuditor, SafetyReport
from .behaviors import (
    ATTACKS,
    AdversaryBehavior,
    Attack,
    available_behaviors,
    get_behavior,
    make_behavior,
)
from .coalition import Coalition
from .interceptor import MessageInterceptor, Outbound

__all__ = [
    "ATTACKS",
    "AdversaryBehavior",
    "Attack",
    "Coalition",
    "MessageInterceptor",
    "Outbound",
    "SafetyAuditor",
    "SafetyReport",
    "available_behaviors",
    "get_behavior",
    "make_behavior",
]
