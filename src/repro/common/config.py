"""Configuration dataclasses describing a SharPer deployment.

A :class:`SystemConfig` captures everything needed to instantiate a
system inside the simulator: how many clusters exist, how many nodes each
cluster contains, the fault model, the performance model (message CPU
costs and link latencies), and protocol tuning knobs (timers, pipeline
depth).

Section 3.4 of the paper describes an optimisation for *clustered
networks*: when the nodes are grouped (e.g. different clouds) and the
maximum number of failures ``f`` is known per group, clustering can be
performed per group, yielding more (and therefore more parallel)
clusters.  :func:`plan_clusters` implements both the baseline formula
``|P| = N / (3f+1)`` and the per-group refinement, reproducing the
``n=23, f=3`` example from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ConfigurationError
from .types import ClusterId, FaultModel, NodeId

__all__ = [
    "PerformanceModel",
    "ProtocolTuning",
    "StorageSpec",
    "ClusterConfig",
    "SystemConfig",
    "NodeGroup",
    "plan_clusters",
    "plan_clusters_grouped",
]


@dataclass(frozen=True)
class PerformanceModel:
    """Calibration constants for the discrete-event performance model.

    All times are in seconds.  The defaults are calibrated so that a
    4-cluster crash-only deployment saturates in the tens of thousands of
    transactions per second with sub-second latency, matching the order of
    magnitude of the paper's EC2 experiments.  Absolute numbers are not
    meant to match the paper; relative behaviour between systems is.
    """

    #: one-way network latency between two nodes of the same cluster.
    intra_cluster_latency: float = 0.25e-3
    #: one-way network latency between nodes of different clusters.
    cross_cluster_latency: float = 1.0e-3
    #: one-way latency between a client and any node.
    client_latency: float = 0.5e-3
    #: random jitter applied to every link delay (uniform fraction).
    latency_jitter: float = 0.10
    #: CPU time to process one protocol message (receive or send side).
    message_cpu: float = 18e-6
    #: extra CPU time to verify one signature (Byzantine deployments).
    signature_verify_cpu: float = 25e-6
    #: extra CPU time to produce one signature (Byzantine deployments).
    signature_sign_cpu: float = 30e-6
    #: CPU time to execute a transaction against the account store.
    execution_cpu: float = 6e-6
    #: CPU time to append a block to the ledger view.
    append_cpu: float = 2e-6

    def scaled(self, factor: float) -> "PerformanceModel":
        """Return a copy with all CPU costs multiplied by ``factor``.

        Useful for sensitivity/ablation experiments.
        """
        return replace(
            self,
            message_cpu=self.message_cpu * factor,
            signature_verify_cpu=self.signature_verify_cpu * factor,
            signature_sign_cpu=self.signature_sign_cpu * factor,
            execution_cpu=self.execution_cpu * factor,
            append_cpu=self.append_cpu * factor,
        )


@dataclass(frozen=True)
class ProtocolTuning:
    """Protocol-level knobs shared by SharPer and the baselines."""

    #: timer used to detect a faulty primary and trigger a view change.
    view_change_timeout: float = 0.5
    #: back-off applied before re-initiating a conflicting cross-shard tx.
    conflict_retry_delay: float = 50e-3
    #: maximum number of retries before a cross-shard tx is aborted.
    max_conflict_retries: int = 20
    #: maximum consensus instances a primary keeps in flight before
    #: further requests queue at its pipeline.  Binds only when
    #: ``batch_size > 1``: a chunk of one can never fill, so at
    #: ``batch_size == 1`` the window is unbounded and a primary
    #: proposes every request the moment it arrives (the rule lives in
    #: :attr:`repro.consensus.batching.BatchPipeline.window`).
    pipeline_depth: int = 32
    #: client requests ordered per consensus slot (one signature, one
    #: quorum entry, one block per batch).  ``1`` — the default, and
    #: what the paper argues for — is the same submission path with
    #: chunks of one: the paper's one-transaction blocks, bit for bit.
    batch_size: int = 1
    #: whether the super-primary optimisation (Section 3.2) is enabled.
    use_super_primary: bool = True
    #: decided-slot interval between checkpoints (0 disables
    #: checkpointing and log/ledger garbage collection — the faultless
    #: benchmark default).  See :mod:`repro.recovery`.
    checkpoint_interval: int = 0


@dataclass(frozen=True)
class StorageSpec:
    """How replicas hold state and what happens to pruned history.

    ``store_backend`` selects the per-shard state store: ``"dict"`` (one
    :class:`~repro.storage.base.Account` object per account — the
    original backend) or ``"columnar"`` (flat array columns for
    million-account shards).  ``archive_path`` names a sqlite database
    that checkpoint GC spills pruned blocks into instead of dropping
    them (``":memory:"`` is accepted for tests); ``None`` keeps the
    original drop-on-prune behaviour.  See :mod:`repro.storage`.
    """

    store_backend: str = "dict"
    archive_path: str | None = None

    def __post_init__(self) -> None:
        if self.store_backend not in ("dict", "columnar"):
            raise ConfigurationError(
                f"unknown store backend {self.store_backend!r}; "
                "expected 'dict' or 'columnar'"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one cluster ``p_i`` and its shard ``d_i``."""

    cluster_id: ClusterId
    node_ids: tuple[NodeId, ...]
    fault_model: FaultModel
    f: int

    def __post_init__(self) -> None:
        minimum = self.fault_model.min_cluster_size(self.f)
        if len(self.node_ids) < minimum:
            raise ConfigurationError(
                f"cluster {self.cluster_id} has {len(self.node_ids)} nodes but "
                f"needs at least {minimum} for f={self.f} under {self.fault_model.value}"
            )
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigurationError(
                f"cluster {self.cluster_id} contains duplicate node ids"
            )

    @property
    def size(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.node_ids)

    @property
    def voter_bits(self) -> dict[int, int]:
        """Member pid → its bit in every vote tally: its index here, so masks stay small ints."""
        return {int(node): 1 << index for index, node in enumerate(self.node_ids)}

    @property
    def primary(self) -> NodeId:
        """The pre-elected primary (lowest node id, view 0)."""
        return self.node_ids[0]

    def primary_for_view(self, view: int) -> NodeId:
        """Primary after ``view`` view changes (round-robin rotation)."""
        return self.node_ids[view % len(self.node_ids)]

    @property
    def intra_quorum(self) -> int:
        """Quorum size used by the intra-shard protocol.

        Paxos commits with ``f + 1`` accepted messages (a majority of
        ``2f + 1``); PBFT requires ``2f + 1`` matching prepares/commits.
        """
        if self.fault_model is FaultModel.CRASH:
            return self.f + 1
        return 2 * self.f + 1

    @property
    def cross_quorum(self) -> int:
        """Per-cluster quorum for the cross-shard protocol (Alg. 1/2)."""
        return self.fault_model.quorum_size(self.f)


@dataclass(frozen=True)
class SystemConfig:
    """Full description of a deployment."""

    clusters: tuple[ClusterConfig, ...]
    fault_model: FaultModel
    performance: PerformanceModel = field(default_factory=PerformanceModel)
    tuning: ProtocolTuning = field(default_factory=ProtocolTuning)
    storage: StorageSpec = field(default_factory=StorageSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ConfigurationError("a system needs at least one cluster")
        seen: set[NodeId] = set()
        for cluster in self.clusters:
            if cluster.fault_model is not self.fault_model:
                raise ConfigurationError(
                    "mixed fault models require the hybrid configuration helpers"
                )
            overlap = seen.intersection(cluster.node_ids)
            if overlap:
                raise ConfigurationError(f"nodes {sorted(overlap)} appear in two clusters")
            seen.update(cluster.node_ids)
        # Lookup indexes (not fields: excluded from eq/hash/repr).  Built
        # in reverse so the first cluster with an id wins, as in a scan.
        object.__setattr__(
            self,
            "_cluster_by_id",
            {cluster.cluster_id: cluster for cluster in reversed(self.clusters)},
        )
        object.__setattr__(
            self,
            "_cluster_by_node",
            {node: cluster for cluster in self.clusters for node in cluster.node_ids},
        )

    @property
    def num_clusters(self) -> int:
        """Number of clusters ``|P|``."""
        return len(self.clusters)

    @property
    def num_nodes(self) -> int:
        """Total number of replica nodes ``N``."""
        return sum(cluster.size for cluster in self.clusters)

    @property
    def all_node_ids(self) -> tuple[NodeId, ...]:
        """All node ids across all clusters, in cluster order."""
        return tuple(node for cluster in self.clusters for node in cluster.node_ids)

    def cluster(self, cluster_id: ClusterId) -> ClusterConfig:
        """Return the configuration of cluster ``cluster_id``."""
        try:
            return self._cluster_by_id[cluster_id]
        except KeyError:
            raise ConfigurationError(f"unknown cluster {cluster_id}") from None

    def cluster_of_node(self, node_id: NodeId) -> ClusterConfig:
        """Return the cluster that ``node_id`` belongs to."""
        try:
            return self._cluster_by_node[node_id]
        except KeyError:
            raise ConfigurationError(f"node {node_id} does not belong to any cluster") from None

    @staticmethod
    def build(
        num_clusters: int,
        fault_model: FaultModel,
        f: int = 1,
        nodes_per_cluster: int | None = None,
        performance: PerformanceModel | None = None,
        tuning: ProtocolTuning | None = None,
        storage: "StorageSpec | None" = None,
        seed: int = 0,
    ) -> "SystemConfig":
        """Construct a homogeneous deployment.

        ``nodes_per_cluster`` defaults to the minimum required by the
        fault model (``2f+1`` or ``3f+1``), matching the paper's
        evaluation setup (clusters of 3 crash-only or 4 Byzantine nodes).
        """
        if num_clusters <= 0:
            raise ConfigurationError("num_clusters must be positive")
        size = nodes_per_cluster or fault_model.min_cluster_size(f)
        clusters = []
        next_node = 0
        for cluster_index in range(num_clusters):
            node_ids = tuple(NodeId(next_node + offset) for offset in range(size))
            next_node += size
            clusters.append(
                ClusterConfig(
                    cluster_id=ClusterId(cluster_index),
                    node_ids=node_ids,
                    fault_model=fault_model,
                    f=f,
                )
            )
        return SystemConfig(
            clusters=tuple(clusters),
            fault_model=fault_model,
            performance=performance or PerformanceModel(),
            tuning=tuning or ProtocolTuning(),
            storage=storage or StorageSpec(),
            seed=seed,
        )


@dataclass(frozen=True)
class NodeGroup:
    """A group of nodes with a known per-group failure bound (Section 3.4).

    Groups typically correspond to different cloud environments with
    different reliability characteristics.
    """

    name: str
    num_nodes: int
    f: int

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError(f"group {self.name!r} must have at least one node")
        if self.f < 0:
            raise ConfigurationError(f"group {self.name!r} has negative f")


def plan_clusters(num_nodes: int, f: int, fault_model: FaultModel) -> int:
    """Number of clusters obtainable without per-group knowledge.

    This is the paper's baseline formula ``|P| = N / (3f+1)`` (Byzantine)
    or ``N / (2f+1)`` (crash-only), rounded down.
    """
    if num_nodes <= 0:
        raise ConfigurationError("num_nodes must be positive")
    size = fault_model.min_cluster_size(f)
    count = num_nodes // size
    if count == 0:
        raise ConfigurationError(
            f"{num_nodes} nodes cannot form even one cluster of {size} "
            f"(f={f}, {fault_model.value})"
        )
    return count


def plan_clusters_grouped(groups: Sequence[NodeGroup], fault_model: FaultModel) -> dict[str, int]:
    """Per-group cluster counts using the Section 3.4 optimisation.

    Reproduces the paper's example: Byzantine nodes with ``n=23, f=3``
    split into groups ``A (n=7, f=2)`` and ``B (n=16, f=1)`` yields
    ``|P_A| = 1`` and ``|P_B| = 4`` — five clusters instead of two.
    """
    if not groups:
        raise ConfigurationError("at least one node group is required")
    plan: dict[str, int] = {}
    for group in groups:
        size = fault_model.min_cluster_size(group.f)
        plan[group.name] = group.num_nodes // size
    if sum(plan.values()) == 0:
        raise ConfigurationError("no group is large enough to form a cluster")
    return plan
