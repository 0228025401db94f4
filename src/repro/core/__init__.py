"""SharPer core: replicas, cross-shard consensus, clients, system builder."""

from .client import CLIENT_PID_BASE, ClosedLoopClient
from .cross_shard import ByzantineCrossShardEngine, CrashCrossShardEngine
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
    "ByzantineCrossShardEngine",
    "CLIENT_PID_BASE",
    "ClosedLoopClient",
    "CrashCrossShardEngine",
    "SharPerReplica",
    "SharPerSystem",
    "build_grouped_system",
    "cluster_to_shard",
    "initiator_cluster",
    "involved_clusters",
    "shard_to_cluster",
    "super_primary_cluster",
]
