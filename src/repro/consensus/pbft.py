"""Intra-shard consensus for Byzantine clusters (PBFT, Figure 3(b)).

Normal-case operation over a cluster of ``3f + 1`` nodes:

1. the primary assigns the next sequence number and multicasts a signed
   ``pre-prepare``;
2. every replica that accepts the pre-prepare multicasts a signed
   ``prepare``; a replica is *prepared* once it holds ``2f + 1`` matching
   prepares (its own included);
3. prepared replicas multicast a signed ``commit``; a slot is decided at a
   replica once it holds ``2f + 1`` matching commits.

Replicas execute decided slots in order and reply to the client, which
waits for ``f + 1`` matching replies.  PBFT is one :data:`PBFT` row of
the intra-shard engine (:class:`~repro.consensus.base.ConsensusEngine`):
a pre-prepare of a later view is parked, never adopted, until a
certificate-verified NewView installs that view.
"""

from __future__ import annotations

from .base import ConsensusEngine, _handlers, _Phases
from .messages import PBFTCommit, PrePrepare, Prepare

__all__ = ["PBFT", "PBFTEngine"]

#: pre-prepare → prepare (to all, 2f + 1) → commit (to all, 2f + 1); later views parked.
PBFT = _Phases(
    propose=PrePrepare, vote=Prepare, commit=PBFTCommit,
    quorum=lambda cluster: 2 * cluster.f + 1, vote_kind="prepare",
    votes_to_all=True, parks_later_views=True, optimistic=False,
)


class PBFTEngine(ConsensusEngine):
    """PBFT ordering engine for one Byzantine cluster."""

    PHASES = PBFT
    HANDLERS = _handlers(PBFT)
