"""SharPer core: replicas, cross-shard consensus, clients, system builder."""

from .client import CLIENT_PID_BASE, ClosedLoopClient
from .replica import SharPerReplica
from .sharding import (
    build_grouped_system,
    cluster_to_shard,
    initiator_cluster,
    involved_clusters,
    shard_to_cluster,
    super_primary_cluster,
)
from .system import BaseSystem, SharPerSystem

__all__ = [
    "BaseSystem",
    "CLIENT_PID_BASE",
    "ClosedLoopClient",
    "SharPerReplica",
    "SharPerSystem",
    "build_grouped_system",
    "cluster_to_shard",
    "initiator_cluster",
    "involved_clusters",
    "shard_to_cluster",
    "super_primary_cluster",
]
