"""Intra-shard consensus for crash-only clusters (Paxos, Figure 3(a)).

The cluster primary receives client requests, assigns the next sequence
number (the role the hash of the previous block plays in the paper),
multicasts an ``accept`` to its backups, waits for ``f`` matching
``accepted`` replies (``f + 1`` votes counting itself — a majority of the
``2f + 1`` cluster), and multicasts a ``commit``.  Backups execute and
append once they receive the commit.

Consensus instances are pipelined over sequence numbers (Multi-Paxos
style); the ledger layer applies decided slots strictly in order, so the
chain every replica materialises is identical to the one the paper's
hash-chained formulation produces.  Paxos is one :data:`PAXOS` row of the
intra-shard engine (:class:`~repro.consensus.base.ConsensusEngine`).
"""

from __future__ import annotations

from .base import ConsensusEngine, _handlers, _Phases
from .messages import PaxosAccept, PaxosAccepted, PaxosCommit

__all__ = ["PAXOS", "PaxosEngine"]

#: accept → accepted (to the primary, f + 1 counting itself) → the primary's commit.
PAXOS = _Phases(
    propose=PaxosAccept, vote=PaxosAccepted, commit=PaxosCommit,
    quorum=lambda cluster: cluster.f + 1, vote_kind="accept",
    votes_to_all=False, parks_later_views=False, optimistic=False,
)


class PaxosEngine(ConsensusEngine):
    """Multi-Paxos ordering engine for one crash-only cluster."""

    PHASES = PAXOS
    HANDLERS = _handlers(PAXOS)
