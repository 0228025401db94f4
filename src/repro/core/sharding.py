"""Shard/cluster topology helpers and the super-primary policy.

In SharPer data shard ``d_i`` is replicated over cluster ``p_i``
(Section 2.2), so shard and cluster identifiers coincide.  This module
provides the small amount of topology glue the rest of the core needs:

* mapping a transaction to the clusters that must participate in its
  consensus;
* the *super primary* rule (Section 3.2): among the clusters involved in
  a cross-shard transaction, the cluster with the smallest identifier
  initiates the consensus, which removes most conflicts between
  concurrent cross-shard transactions;
* the Section 3.4 optimisation for clustered networks is provided by
  :func:`repro.common.config.plan_clusters_grouped` and wrapped here in
  :func:`build_grouped_system` for convenience.
"""

from __future__ import annotations

from typing import Sequence

from ..common.config import (
    ClusterConfig,
    NodeGroup,
    PerformanceModel,
    ProtocolTuning,
    SystemConfig,
    plan_clusters_grouped,
)
from ..common.errors import ConfigurationError
from ..common.types import ClusterId, NodeId, ShardId
from ..txn.accounts import ShardMapper
from ..txn.transaction import Transaction

__all__ = [
    "shard_to_cluster",
    "cluster_to_shard",
    "involved_clusters",
    "super_primary_cluster",
    "initiator_cluster",
    "build_grouped_system",
]


def shard_to_cluster(shard: ShardId) -> ClusterId:
    """Cluster that maintains ``shard`` (identity mapping, ``d_i ↔ p_i``)."""
    return ClusterId(int(shard))


def cluster_to_shard(cluster: ClusterId) -> ShardId:
    """Shard maintained by ``cluster`` (identity mapping)."""
    return ShardId(int(cluster))


def involved_clusters(transaction: Transaction, mapper: ShardMapper) -> tuple[ClusterId, ...]:
    """Sorted tuple of clusters whose shards ``transaction`` accesses.

    The one classification memo: kept in a slot of the transaction for the mapper
    that asked last, known by identity — a run has one mapper — so
    client, router and every replica share one tuple object, which also
    keeps the per-involved-set memos downstream (destination tuples,
    network routes) on their fast probe.
    """
    cached = getattr(transaction, "_involved_clusters", None)
    if cached is not None and cached[0] is mapper:
        return cached[1]
    clusters = tuple(
        sorted(shard_to_cluster(shard) for shard in transaction.involved_shards(mapper))
    )
    object.__setattr__(transaction, "_involved_clusters", (mapper, clusters))
    return clusters


def super_primary_cluster(involved: Sequence[ClusterId]) -> ClusterId:
    """Cluster whose primary initiates a cross-shard transaction.

    "any transaction that accesses every cluster in P = {p_i, p_j, p_k, ..}
    is initiated by cluster i where i = min(i, j, k, ...)" (Section 3.2).
    """
    if not involved:
        raise ConfigurationError("a transaction must involve at least one cluster")
    return min(involved)


def initiator_cluster(
    transaction: Transaction,
    mapper: ShardMapper,
    use_super_primary: bool = True,
    fallback: ClusterId | None = None,
) -> ClusterId:
    """Cluster that should initiate consensus for ``transaction``.

    Intra-shard transactions are initiated by their own cluster.  For
    cross-shard transactions the super-primary rule picks the minimum
    involved cluster; with the rule disabled, ``fallback`` (e.g. the
    cluster a client happens to be attached to) is used if it is involved,
    otherwise the minimum involved cluster.
    """
    involved = involved_clusters(transaction, mapper)
    if len(involved) == 1:
        return involved[0]
    if use_super_primary:
        return super_primary_cluster(involved)
    if fallback is not None and fallback in involved:
        return fallback
    return involved[0]


def build_grouped_system(
    groups: Sequence[NodeGroup],
    fault_model,
    performance: PerformanceModel | None = None,
    tuning: ProtocolTuning | None = None,
    seed: int = 0,
) -> SystemConfig:
    """Build a :class:`SystemConfig` using the Section 3.4 optimisation.

    Each group is clustered independently using its own ``f``; the
    resulting clusters are concatenated into one system.  Groups too small
    to form a cluster contribute no clusters (their nodes would be used as
    passive replicas in a real deployment).
    """
    plan = plan_clusters_grouped(groups, fault_model)
    clusters: list[ClusterConfig] = []
    next_node = 0
    next_cluster = 0
    for group in groups:
        cluster_count = plan[group.name]
        size = fault_model.min_cluster_size(group.f)
        for _ in range(cluster_count):
            node_ids = tuple(NodeId(next_node + offset) for offset in range(size))
            next_node += size
            clusters.append(
                ClusterConfig(
                    cluster_id=ClusterId(next_cluster),
                    node_ids=node_ids,
                    fault_model=fault_model,
                    f=group.f,
                )
            )
            next_cluster += 1
    if not clusters:
        raise ConfigurationError("no group is large enough to form a cluster")
    return SystemConfig(
        clusters=tuple(clusters),
        fault_model=fault_model,
        performance=performance or PerformanceModel(),
        tuning=tuning or ProtocolTuning(),
        seed=seed,
    )
