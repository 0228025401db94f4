"""Recovery subsystem: checkpointing, log compaction, and state transfer.

SharPer inherits PBFT's checkpoint/garbage-collection machinery; this
package supplies it for the reproduction, in three pillars:

* **Checkpointing + log compaction** (:class:`CheckpointManager`) —
  every ``checkpoint_interval`` applied slots a replica multicasts a
  signed ``Checkpoint(seq, state_digest)`` to its cluster.  Invariant:
  the digest is taken inside the apply loop, so it covers the state
  produced by exactly slots 1..seq at every correct replica — which is
  what makes digests comparable cluster-wide.  Once an
  intra-shard quorum of matching digests arrives the checkpoint is
  *stable*: the :class:`~repro.consensus.log.OrderingLog` truncates
  entries and dedup indexes at or below the low-water mark, the
  :class:`~repro.ledger.view.ClusterView` prunes superseded blocks, and
  the consensus engines drop vote bookkeeping for compacted slots —
  bounding per-replica memory for arbitrarily long runs.
* **State transfer** (:class:`StateTransferManager`) — a recovered or
  lagging replica asks its cluster peers for the latest stable
  checkpoint plus the suffix of decided slots, verifies the digests
  (``f + 1`` matching responses in the Byzantine model), installs the
  snapshot, replays the suffix through the ordinary apply path, and
  rejoins consensus.
* **Cross-shard termination** (:class:`CrossShardTerminator`) — a new
  primary installing a view runs a termination round for in-flight
  cross-shard instances instead of immediately no-op-filling their
  slots, so a commit quorum formed just before the view change is
  adopted rather than raced (closing the residual atomicity window the
  engines previously papered over, a ``late_commit`` journal row each).

Checkpointing is off by default (``ProtocolTuning.checkpoint_interval
= 0``), so faultless benchmark runs are byte-identical to previous
revisions; state transfer still works without checkpoints by replaying
the full decided suffix.
"""

from .checkpoint import CheckpointManager, StableCheckpoint, checkpoint_digest
from .messages import (
    Checkpoint,
    StateRequest,
    StateResponse,
    TerminationDecision,
    TerminationReply,
    TerminationRequest,
)
from .state_transfer import StateTransferManager
from .stats import RecoveryStats, collect_recovery_stats
from .termination import CrossShardTerminator

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CrossShardTerminator",
    "RecoveryStats",
    "StableCheckpoint",
    "StateRequest",
    "StateResponse",
    "StateTransferManager",
    "TerminationDecision",
    "TerminationReply",
    "TerminationRequest",
    "checkpoint_digest",
    "collect_recovery_stats",
]
