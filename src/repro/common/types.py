"""Core identifier types and enums shared across the SharPer reproduction.

The paper partitions *nodes* into *clusters* and assigns one *data shard*
per cluster (Section 2.2).  Throughout the code base we keep the paper's
terminology:

* ``NodeId`` — a single replica (crash-only or Byzantine).
* ``ClusterId`` — a cluster ``p_i`` of ``2f+1`` / ``3f+1`` nodes.
* ``ShardId`` — the data shard ``d_i`` assigned to cluster ``p_i``; shard
  and cluster ids coincide by construction but the types are kept distinct
  to keep call sites readable.
* ``ClientId`` — an application client submitting transactions.
"""

from __future__ import annotations

import enum
from typing import NewType

NodeId = NewType("NodeId", int)
ClusterId = NewType("ClusterId", int)
ShardId = NewType("ShardId", int)
ClientId = NewType("ClientId", int)
AccountId = NewType("AccountId", int)

#: Simulated time is expressed in seconds (floats).
Timestamp = float


class FaultModel(enum.Enum):
    """Failure model assumed for the nodes of a cluster (Section 2.1)."""

    CRASH = "crash"
    BYZANTINE = "byzantine"

    @property
    def cluster_size(self) -> int:
        """Minimum cluster size for ``f = 1`` under this fault model."""
        return self.min_cluster_size(1)

    def min_cluster_size(self, f: int) -> int:
        """Minimum number of nodes needed to tolerate ``f`` faults.

        Crash-only clusters need ``2f + 1`` nodes (Paxos), Byzantine
        clusters need ``3f + 1`` nodes (PBFT).
        """
        if f < 0:
            raise ValueError(f"f must be non-negative, got {f}")
        if self is FaultModel.CRASH:
            return 2 * f + 1
        return 3 * f + 1

    def quorum_size(self, f: int) -> int:
        """Per-cluster quorum used by the cross-shard protocols.

        Algorithm 1 (crash) collects ``f + 1`` matching accepts per
        involved cluster; Algorithm 2 (Byzantine) collects ``2f + 1``.
        """
        if f < 0:
            raise ValueError(f"f must be non-negative, got {f}")
        if self is FaultModel.CRASH:
            return f + 1
        return 2 * f + 1


class NodeRole(enum.Enum):
    """Role a node currently plays inside its cluster."""

    PRIMARY = "primary"
    BACKUP = "backup"
    PASSIVE = "passive"


def node_label(node_id: NodeId, cluster_id: ClusterId | None = None) -> str:
    """Human-readable label used in logs and error messages."""
    if cluster_id is None:
        return f"n{node_id}"
    return f"n{node_id}@p{cluster_id}"
