"""AHL-C / AHL-B: the reference-committee sharded baseline [21].

AHL (Dang et al., SIGMOD 2019) shards the nodes like SharPer but orders
cross-shard transactions through a dedicated *reference committee* (RC)
that runs two-phase commit on top of per-shard consensus:

1. the client sends the cross-shard transaction to the RC;
2. the RC orders a *prepare* decision through its own consensus protocol
   and sends prepare requests to every involved cluster;
3. each involved cluster orders the prepare through its intra-shard
   consensus and votes back to the RC;
4. the RC orders the *commit/abort* decision through its own consensus
   and sends it to the involved clusters;
5. each involved cluster orders the commit through its intra-shard
   consensus, executes the transaction, and replies.

Following the paper's evaluation setup, AHL-C/AHL-B use exactly the same
intra-shard protocol as SharPer (Paxos/PBFT); only the cross-shard path
differs.  Because a single RC orders *all* cross-shard transactions and
each step requires a full consensus round, cross-shard throughput is
bounded by the RC and cross-shard latency is much higher than SharPer's
three flattened phases — the effect Figures 6 and 7 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..api.registry import register_system
from ..common.config import ClusterConfig, SystemConfig
from ..common.errors import UnknownAccountError
from ..common.types import ClientId, ClusterId, FaultModel, NodeId
from ..consensus.log import item_digest
from ..consensus.messages import ClientRequest
from ..consensus.paxos import PaxosEngine
from ..consensus.pbft import PBFTEngine
from ..core.replica import ReplicaHost, SharPerReplica
from ..core.system import BaseSystem
from ..core import sharding
from ..ledger.block import Block
from ..ledger.view import ClusterView
from ..sim.process import Process
from ..txn.accounts import AccountStore
from ..txn.transaction import Transaction
from ..txn.workload import WorkloadConfig

__all__ = ["AHLSystem", "AHLReplica", "ReferenceCommitteeReplica"]


# ----------------------------------------------------------------------
# 2PC protocol messages and ordered markers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrepareMarker:
    """Ordered by an involved cluster: lock/validate the cross-shard tx."""

    request: ClientRequest
    phase: str = "prepare"


@dataclass(frozen=True)
class CommitMarker:
    """Ordered by an involved cluster: execute and append the cross-shard tx."""

    request: ClientRequest
    phase: str = "commit"


@dataclass(frozen=True)
class RCOrderMarker:
    """Ordered by the reference committee: a 2PC step decision."""

    request: ClientRequest
    phase: str  # "prepare" or "commit"


@dataclass(frozen=True)
class AHLPrepareRequest:
    """RC primary → involved cluster primary: please prepare the transaction."""

    request: ClientRequest
    digest: str


@dataclass(frozen=True)
class AHLVote:
    """Involved cluster primary → RC primary: prepare vote."""

    digest: str
    cluster: ClusterId
    vote: bool


@dataclass(frozen=True)
class AHLCommitRequest:
    """RC primary → involved cluster primary: commit (or abort) the transaction."""

    request: ClientRequest
    digest: str
    commit: bool


# ----------------------------------------------------------------------
# shard replicas
# ----------------------------------------------------------------------
class AHLReplica(SharPerReplica):
    """A shard replica of AHL.

    Intra-shard transactions follow the same path as SharPer.  Cross-shard
    client requests are redirected to the reference committee, and the
    replica additionally orders the RC-driven prepare/commit markers
    through its intra-shard consensus engine.
    """

    def __init__(self, *args, rc_primary_pid: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rc_primary_pid = rc_primary_pid
        self.prepared: set[str] = set()
        self.register_handler(AHLPrepareRequest, self._on_prepare_request)
        self.register_handler(AHLCommitRequest, self._on_commit_request)

    # Cross-shard client requests belong to the reference committee.
    def _handle_cross_request(self, request: ClientRequest, involved) -> None:
        self.send(self.rc_primary_pid, request)

    def _on_prepare_request(self, message: AHLPrepareRequest, src: int) -> None:
        if self.is_cluster_primary:
            self.intra.submit(PrepareMarker(request=message.request))

    def _on_commit_request(self, message: AHLCommitRequest, src: int) -> None:
        if self.is_cluster_primary and message.commit:
            self.intra.submit(CommitMarker(request=message.request))

    def on_marker_applied(self, entry, positions, parents, proposer) -> None:
        item = entry.item
        if isinstance(item, PrepareMarker):
            # The prepare only reserves the slot; it leaves no transaction
            # in the chain.  The primary votes back to the RC.
            self.chain.append(Block.noop(positions, proposer=proposer, parents=parents))
            self.prepared.add(item_digest(item.request))
            if self.is_cluster_primary:
                vote = AHLVote(
                    digest=item_digest(item.request), cluster=self.cluster_id, vote=True
                )
                self.send(self.rc_primary_pid, vote)
            return
        if isinstance(item, CommitMarker):
            request = item.request
            self.charge(self.cost_model.execution_cost)
            ((_, success),) = self._commit(request, (request,), positions, proposer, parents)
            self.committed_cross_count += 1
            if self._should_reply_cross():
                self._send_reply(request, success=success, cross_shard=True)
            return
        super().on_marker_applied(entry, positions, parents, proposer)

    def _should_reply_cross(self) -> bool:
        if self.cluster.fault_model is FaultModel.BYZANTINE:
            return True
        return self.is_cluster_primary


# ----------------------------------------------------------------------
# reference committee
# ----------------------------------------------------------------------
@dataclass
class _RC2PCState:
    """Coordinator-side state of one cross-shard transaction."""

    request: ClientRequest
    involved: tuple[ClusterId, ...]
    votes: set[ClusterId] = field(default_factory=set)
    prepare_sent: bool = False
    commit_sent: bool = False


class ReferenceCommitteeReplica(ReplicaHost):
    """A member of AHL's reference committee.

    The committee orders every 2PC step (prepare decision, commit
    decision) through its own consensus protocol; its primary acts as the
    two-phase-commit coordinator towards the involved clusters.
    """

    def __init__(
        self,
        node_id: NodeId,
        committee: ClusterConfig,
        config: SystemConfig,
        mapper,
        sim,
        network,
        cost_model,
    ) -> None:
        super().__init__(
            node_id, committee, config, mapper, sim, network, cost_model,
            name=f"rc-{node_id}",
        )
        if committee.fault_model is FaultModel.CRASH:
            self.intra = PaxosEngine(self)
        else:
            self.intra = PBFTEngine(self)
        self._states: dict[str, _RC2PCState] = {}
        self._voters = {c.cluster_id: c.voter_bits for c in config.clusters}
        #: votes refused: the sender is not a member of the cluster it speaks for.
        self.foreign_votes = 0
        self.coordinated = 0
        self.register_handler(ClientRequest, self._on_client_request)
        self.register_handler(AHLVote, self._on_vote)
        self.register_handlers(self.intra.handlers())

    # ------------------------------------------------------------------
    # message handling (table-driven; see Process.on_message)
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequest, src: int) -> None:
        if request.reply_to < 0:
            request = replace(request, reply_to=src)
        if not self.intra.is_primary:
            self.send(int(self.intra.primary), request)
            return
        digest = item_digest(request)
        if digest in self._states:
            return
        try:
            involved = sharding.involved_clusters(request.transaction, self.mapper)
        except UnknownAccountError:
            self._reject_unclassifiable(request)
            return
        self._states[digest] = _RC2PCState(request=request, involved=involved)
        # Step 1: the RC orders the prepare decision among its members.
        self.intra.submit(RCOrderMarker(request=request, phase="prepare"))

    def _on_vote(self, message: AHLVote, src: int) -> None:
        state = self._states.get(message.digest)
        if state is None or not self.intra.is_primary:
            return
        if src not in self._voters.get(message.cluster, ()):
            self.foreign_votes += 1
            return
        if message.vote:
            state.votes.add(message.cluster)
        if state.commit_sent or set(state.involved) - state.votes:
            return
        # Step 3: all involved clusters voted yes — order the commit decision.
        state.commit_sent = True
        self.intra.submit(RCOrderMarker(request=state.request, phase="commit"))

    # ------------------------------------------------------------------
    # applying RC decisions
    # ------------------------------------------------------------------
    def _apply(self, entry) -> None:
        positions = {self.cluster_id: entry.slot}
        parents = {self.cluster_id: self.chain.head_hash}
        self.charge(self.cost_model.append_cost)
        item = entry.item
        if not isinstance(item, RCOrderMarker):
            self.chain.append(Block.noop(positions, proposer=self.cluster_id, parents=parents))
            return
        # The RC's own chain records every 2PC decision as a no-op block
        # (it stores no application data).
        self.chain.append(Block.noop(positions, proposer=self.cluster_id, parents=parents))
        if not self.intra.is_primary:
            return
        digest = item_digest(item.request)
        state = self._states.get(digest)
        if state is None:
            return
        if item.phase == "prepare" and not state.prepare_sent:
            state.prepare_sent = True
            for cluster in state.involved:
                self.send(
                    int(self.config.cluster(cluster).primary),
                    AHLPrepareRequest(request=item.request, digest=digest),
                )
        elif item.phase == "commit":
            self.coordinated += 1
            for cluster in state.involved:
                self.send(
                    int(self.config.cluster(cluster).primary),
                    AHLCommitRequest(request=item.request, digest=digest, commit=True),
                )


# ----------------------------------------------------------------------
# the full AHL system
# ----------------------------------------------------------------------
@register_system("ahl")
class AHLSystem(BaseSystem):
    """AHL-C / AHL-B: SharPer's clusters plus a reference committee."""

    #: cluster id used for the reference committee (after the data clusters).
    RC_CLUSTER_OFFSET = 1000

    def __init__(
        self,
        config: SystemConfig,
        workload_config: WorkloadConfig,
        seed: int | None = None,
    ) -> None:
        super().__init__(config, workload_config, seed)
        f = config.clusters[0].f
        committee_size = config.fault_model.min_cluster_size(f)
        first_rc_pid = max(int(node) for node in config.all_node_ids) + 1
        self.committee = ClusterConfig(
            cluster_id=ClusterId(config.num_clusters + self.RC_CLUSTER_OFFSET),
            node_ids=tuple(NodeId(first_rc_pid + index) for index in range(committee_size)),
            fault_model=config.fault_model,
            f=f,
        )
        # The reference committee is its own cluster in the latency topology:
        # RC-internal links are intra-cluster, RC-to-shard links are
        # cross-cluster (the RC is a separate set of nodes in AHL).
        self.latency_model.cluster_of.update(
            {int(node): int(self.committee.cluster_id) for node in self.committee.node_ids}
        )
        rc_primary_pid = int(self.committee.primary)
        self.replicas: dict[int, AHLReplica] = {}
        for cluster in config.clusters:
            shard = sharding.cluster_to_shard(cluster.cluster_id)
            for node in cluster.node_ids:
                store = self._bootstrap_store(self.workload_mapper, shard)
                self.replicas[int(node)] = AHLReplica(
                    node_id=node,
                    cluster=cluster,
                    config=config,
                    mapper=self.workload_mapper,
                    store=store,
                    sim=self.sim,
                    network=self.network,
                    cost_model=self.cost_model,
                    rc_primary_pid=rc_primary_pid,
                )
        self.committee_replicas: dict[int, ReferenceCommitteeReplica] = {}
        for node in self.committee.node_ids:
            self.committee_replicas[int(node)] = ReferenceCommitteeReplica(
                node_id=node,
                committee=self.committee,
                config=config,
                mapper=self.workload_mapper,
                sim=self.sim,
                network=self.network,
                cost_model=self.cost_model,
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return "AHL-C" if self.config.fault_model is FaultModel.CRASH else "AHL-B"

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, transaction: Transaction) -> int:
        involved = sharding.involved_clusters(transaction, self.workload_mapper)
        if len(involved) == 1:
            return int(self.config.cluster(involved[0]).primary)
        return int(self.committee.primary)

    def fallback_route(self, transaction: Transaction, attempt: int) -> int:
        involved = sharding.involved_clusters(transaction, self.workload_mapper)
        if len(involved) == 1:
            nodes = self.config.cluster(involved[0]).node_ids
        else:
            nodes = self.committee.node_ids
        return int(nodes[attempt % len(nodes)])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def processes(self) -> list[Process]:
        return list(self.replicas.values()) + list(self.committee_replicas.values())

    def views(self) -> dict[ClusterId, ClusterView]:
        result: dict[ClusterId, ClusterView] = {}
        for cluster in self.config.clusters:
            replicas = [
                self.replicas[int(node)] for node in cluster.node_ids
            ]
            best = max(replicas, key=lambda replica: replica.chain.height)
            result[cluster.cluster_id] = best.chain
        return result

    def stores(self) -> list[AccountStore]:
        stores = []
        for cluster in self.config.clusters:
            replicas = [self.replicas[int(node)] for node in cluster.node_ids]
            best = max(replicas, key=lambda replica: replica.chain.height)
            stores.append(best.store)
        return stores
