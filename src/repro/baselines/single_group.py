"""Non-sharded baselines: APR-C/APR-B, FPaxos, and FaB.

The paper compares SharPer against the two standard ways of exploiting
extra nodes without sharding (Section 4):

* **active/passive replication** (APR-C for crash, APR-B for Byzantine):
  only ``2f + 1`` (or ``3f + 1``) *active* replicas run consensus and
  execute transactions; the remaining nodes are *passive* replicas that
  merely receive execution results.
* **fast consensus** (FPaxos for crash, FaB for Byzantine): ``3f + 1``
  (or ``5f + 1``) replicas are used to commit in one fewer communication
  phase than Paxos/PBFT.

None of these systems shard the data, so every transaction — intra- or
cross-shard under SharPer's partitioning — is ordered by the single
replica group; their performance is therefore insensitive to the
cross-shard percentage, which is exactly the behaviour Figures 6 and 7
show.

The fast rows (:data:`FAST_PAXOS`, :data:`FAB`) of the intra-shard engine
model the phase reduction: Fast Paxos replicas execute as soon as they
accept the leader's proposal and the leader replies after collecting the
(larger) fast quorum; FaB decides on its larger prepare quorum.  Neither
has an explicit commit phase.  This reproduces the latency/throughput
profile of Fast Paxos [34] and FaB [40] in fault-free runs, which is all
the paper's evaluation exercises.
"""

from __future__ import annotations

from dataclasses import replace

from ..api.registry import register_system
from ..common.config import ClusterConfig, SystemConfig
from ..common.errors import ConfigurationError, UnknownAccountError
from ..common.types import ClusterId, FaultModel, NodeId
from ..consensus.base import ConsensusEngine, _Phases
from ..consensus.log import Noop
from ..consensus.messages import ClientRequest, PassiveUpdate
from ..consensus.paxos import PAXOS
from ..consensus.pbft import PBFT
from ..core.replica import ReplicaHost
from ..core.system import BaseSystem
from ..ledger.block import Block
from ..ledger.view import ClusterView
from ..obs.journal import Journal
from ..sim.process import Process
from ..storage import StateStore
from ..txn.accounts import ShardMapper
from ..txn.execution import TransactionExecutor
from ..txn.transaction import Transaction
from ..txn.workload import WorkloadConfig

__all__ = [
    "FAST_PAXOS",
    "FAB",
    "SingleGroupReplica",
    "PassiveReplica",
    "ActivePassiveSystem",
    "FastConsensusSystem",
]


#: Fast Paxos [34]: ``3f + 1`` acceptors; everyone decides on the proposal
#: itself, and the leader decides (again) on a fast quorum of ``2f + 1``
#: accepted messages, with no commit phase.
FAST_PAXOS = PAXOS._replace(
    commit=None, quorum=lambda cluster: 2 * cluster.f + 1, optimistic=True
)
#: FaB [40]: ``5f + 1`` replicas decide on a prepare quorum of
#: ``⌈(n + 3f + 1)/2⌉``; PBFT's commit phase is skipped.
FAB = PBFT._replace(commit=None, quorum=lambda cluster: (cluster.size + 3 * cluster.f + 2) // 2)


class SingleGroupReplica(ReplicaHost):
    """An active replica of a non-sharded system.

    It orders every transaction with the configured engine over the single
    replica group, executes against the full (unsharded) account store,
    appends to a single linear chain, and forwards execution results to
    the passive replicas.
    """

    def __init__(
        self,
        node_id: NodeId,
        cluster: ClusterConfig,
        config: SystemConfig,
        mapper: ShardMapper,
        store: StateStore,
        sim,
        network,
        cost_model,
        phases: _Phases,
        passive_nodes: tuple[int, ...] = (),
    ) -> None:
        super().__init__(
            node_id, cluster, config, mapper, sim, network, cost_model,
            name=f"active-{node_id}",
        )
        self.store = store
        self.executor = TransactionExecutor(store, mapper, shard=0)
        self.passive_nodes = passive_nodes
        self.intra = ConsensusEngine(self, phases)
        self.register_handler(ClientRequest, self._on_client_request)
        self.register_handlers(self.intra.handlers())

    # ------------------------------------------------------------------
    # message handling (table-driven; see Process.register_handler)
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequest, src: int) -> None:
        if request.reply_to < 0:
            request = replace(request, reply_to=src)
        if self.chain.contains_tx(request.transaction.tx_id):
            self._send_reply(request, success=True)
            return
        try:
            request.transaction.involved_shards(self.mapper)
        except UnknownAccountError:
            self._reject_unclassifiable(request)
            return
        if not self.intra.is_primary:
            self.relay_to_primary(request)
            return
        self.intra.submit(request)

    # ------------------------------------------------------------------
    # applying decided slots
    # ------------------------------------------------------------------
    def _apply(self, entry) -> None:
        positions = {self.cluster_id: entry.slot}
        parents = {self.cluster_id: self.chain.head_hash}
        self.charge(self.cost_model.append_cost)
        item = entry.item
        if isinstance(item, ClientRequest):
            self.charge(self.cost_model.execution_cost)
            ((_, success),) = self._commit(item, (item,), positions, self.cluster_id, parents)
            if self._should_reply():
                self._send_reply(item, success=success)
            if self.intra.is_primary and self.passive_nodes:
                update = PassiveUpdate(slot=entry.slot, digest=entry.digest, item=item)
                self.multicast(list(self.passive_nodes), update)
        elif isinstance(item, Noop):
            self.chain.append(Block.noop(positions, proposer=self.cluster_id, parents=parents))

    def _should_reply(self) -> bool:
        if self.cluster.fault_model is FaultModel.BYZANTINE:
            return True
        return self.intra.is_primary


class PassiveReplica(Process):
    """A passive replica: applies execution results forwarded by the actives."""

    def __init__(self, pid, sim, network, cost_model, mapper, store) -> None:
        super().__init__(pid, sim, network, cost_model, name=f"passive-{pid}")
        self.mapper = mapper
        self.store = store
        self.executor = TransactionExecutor(store, mapper, shard=0)
        self.chain = ClusterView(ClusterId(0))
        self.journal = Journal(self)  # stays empty: a passive replica decides nothing
        self.applied = 0
        self.register_handler(PassiveUpdate, self._on_passive_update)

    def _on_passive_update(self, message: PassiveUpdate, src: int) -> None:
        item = message.item
        if not isinstance(item, ClientRequest):
            return
        if self.chain.contains_tx(item.transaction.tx_id):
            return
        self.charge(self.cost_model.execution_cost)
        self.executor.execute(item.transaction)
        positions = {ClusterId(0): self.chain.next_index}
        parents = {ClusterId(0): self.chain.head_hash}
        self.chain.append(
            Block.create(item.transaction, positions, proposer=ClusterId(0), parents=parents)
        )
        self.applied += 1


class _SingleGroupSystem(BaseSystem):
    """Shared builder for the non-sharded baselines."""

    #: the intra-shard row the active group runs, per fault model; subclasses set it.
    ROWS: dict[FaultModel, _Phases]

    #: number of active replicas as a function of ``f``; subclasses set it.
    def _active_count(self, f: int) -> int:
        raise NotImplementedError

    def __init__(
        self,
        config: SystemConfig,
        workload_config: WorkloadConfig,
        seed: int | None = None,
    ) -> None:
        super().__init__(config, workload_config, seed)
        f = config.clusters[0].f
        active = self._active_count(f)
        if config.num_nodes < active:
            raise ConfigurationError(
                f"{self.name} needs at least {active} nodes, got {config.num_nodes}"
            )
        all_nodes = list(config.all_node_ids)
        active_nodes = tuple(NodeId(int(node)) for node in all_nodes[:active])
        passive_nodes = tuple(int(node) for node in all_nodes[active:])
        self.active_cluster = ClusterConfig(
            cluster_id=ClusterId(0),
            node_ids=active_nodes,
            fault_model=config.fault_model,
            f=f,
        )
        # The data is not sharded: one mapper covering the whole keyspace.
        self.full_mapper = ShardMapper(
            num_shards=1,
            accounts_per_shard=self.workload_mapper.total_accounts,
        )
        self.replicas: dict[int, SingleGroupReplica] = {}
        self.passives: dict[int, PassiveReplica] = {}
        for node in active_nodes:
            store = self._bootstrap_store(self.full_mapper, 0)
            self.replicas[int(node)] = SingleGroupReplica(
                node_id=node,
                cluster=self.active_cluster,
                config=config,
                mapper=self.full_mapper,
                store=store,
                sim=self.sim,
                network=self.network,
                cost_model=self.cost_model,
                phases=self.ROWS[config.fault_model],
                passive_nodes=passive_nodes,
            )
        for pid in passive_nodes:
            store = self._bootstrap_store(self.full_mapper, 0)
            self.passives[pid] = PassiveReplica(
                pid, self.sim, self.network, self.cost_model, self.full_mapper, store
            )

    # ------------------------------------------------------------------
    # system interface
    # ------------------------------------------------------------------
    def route(self, transaction: Transaction) -> int:
        return int(self.active_cluster.primary)

    def fallback_route(self, transaction: Transaction, attempt: int) -> int:
        nodes = self.active_cluster.node_ids
        return int(nodes[attempt % len(nodes)])

    @property
    def required_replies(self) -> int:
        return self.active_cluster.reply_quorum

    def processes(self) -> list[Process]:
        return list(self.replicas.values()) + list(self.passives.values())

    def views(self) -> dict[ClusterId, ClusterView]:
        best = max(self.replicas.values(), key=lambda replica: replica.chain.height)
        return {ClusterId(0): best.chain}

    def stores(self) -> list[StateStore]:
        best = max(self.replicas.values(), key=lambda replica: replica.chain.height)
        return [best.store]

    def expected_total_balance(self) -> int:
        return (
            self.workload_config.initial_balance * self.full_mapper.total_accounts
        )

    def primary(self) -> SingleGroupReplica:
        """The (initial) primary active replica."""
        return self.replicas[int(self.active_cluster.primary)]


@register_system("apr")
class ActivePassiveSystem(_SingleGroupSystem):
    """APR-C / APR-B: consensus among the minimal active group, rest passive."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return "APR-C" if self.config.fault_model is FaultModel.CRASH else "APR-B"

    ROWS = {FaultModel.CRASH: PAXOS, FaultModel.BYZANTINE: PBFT}

    def _active_count(self, f: int) -> int:
        return self.config.fault_model.min_cluster_size(f)


@register_system("fast")
class FastConsensusSystem(_SingleGroupSystem):
    """FPaxos / FaB: extra replicas buy one fewer communication phase."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return "FPaxos" if self.config.fault_model is FaultModel.CRASH else "FaB"

    ROWS = {FaultModel.CRASH: FAST_PAXOS, FaultModel.BYZANTINE: FAB}

    def _active_count(self, f: int) -> int:
        if self.config.fault_model is FaultModel.CRASH:
            return 3 * f + 1
        return 5 * f + 1
