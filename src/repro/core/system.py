"""System builders: wire replicas, network, and state into a runnable system.

:class:`BaseSystem` owns the simulation scaffolding every evaluated system
shares (simulator, network, cost model, account bootstrap, client
spawning); :class:`SharPerSystem` builds the paper's system — one cluster
per shard, each cluster running intra-shard consensus plus the flattened
cross-shard protocol.  The baselines in :mod:`repro.baselines` subclass
:class:`BaseSystem` the same way.

Instruments are armed by swapping values: :meth:`BaseSystem.arm_recorder`
replaces the inert recorder every process, client and the network start
with, and :meth:`BaseSystem.arm_request_guards` replaces every replica's
inert guard, so the code that calls them never tests which one it holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable
from weakref import WeakValueDictionary

from ..adversary import SafetyAuditor, SafetyReport
from ..api.registry import register_system
from ..common.config import SystemConfig
from ..common.metrics import MetricsCollector
from ..common.types import AccountId, ClientId, ClusterId
from ..ledger.validation import AuditReport, audit_views
from ..ledger.view import ClusterView
from ..obs.recorder import INERT_RECORDER
from ..sim.costs import CostModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.simulator import Simulator
from ..storage import SqliteArchive, StateStore
from ..storage.base import owner_of
from ..txn.accounts import ShardMapper
from ..txn.transaction import Transaction
from ..txn.workload import WorkloadConfig, WorkloadGenerator
from . import sharding
from .client import CLIENT_PID_BASE, ClosedLoopClient
from .guard import InertGuard, RequestGuard
from .replica import SharPerReplica

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..api.faults import FaultSchedule

__all__ = ["BaseSystem", "SharPerSystem"]


class BaseSystem:
    """Scaffolding shared by SharPer and every baseline system."""

    #: human-readable name used by the benchmark reports.
    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        workload_config: WorkloadConfig,
        seed: int | None = None,
    ) -> None:
        self.config = config
        self.workload_config = workload_config
        self.seed = config.seed if seed is None else seed
        self.sim = Simulator(seed=self.seed)
        cluster_of = {
            int(node): int(cluster.cluster_id)
            for cluster in config.clusters
            for node in cluster.node_ids
        }
        self.network = Network(self.sim, config.performance, cluster_of)
        self.cost_model = CostModel(config.performance)
        #: the run's one shard mapper (one shard per cluster), shared by
        #: generators, router and replicas: a transaction is classified once.
        self.workload_mapper = ShardMapper(
            num_shards=config.num_clusters,
            accounts_per_shard=workload_config.accounts_per_shard,
        )
        #: bootstrap prototype per shard, held weakly: replicas receive
        #: clones, whose links keep it alive until their first digest.
        self._store_cache: WeakValueDictionary[int, StateStore] = WeakValueDictionary()
        #: archival backend checkpoint GC spills pruned blocks into.
        self.archive: SqliteArchive | None = None
        if config.archive_path is not None:
            self.archive = SqliteArchive(config.archive_path)
        self.clients: list[ClosedLoopClient] = []
        #: fault schedules armed on this system, so arming one twice is a
        #: no-op (:meth:`repro.api.FaultSchedule.arm`).
        self.armed_faults: set[FaultSchedule] = set()
        #: flight recorder (:mod:`repro.obs`) clients are spawned with;
        #: the inert one until :meth:`arm_recorder` swaps one in.
        self.recorder = INERT_RECORDER

    # ------------------------------------------------------------------
    # account bootstrap
    # ------------------------------------------------------------------
    def owner_of(self, account_id: AccountId) -> ClientId:
        """Application client owning ``account_id`` (matches the workload)."""
        return owner_of(account_id, self.workload_config.num_clients)

    def _bootstrap_store(self, mapper: ShardMapper, shard: int) -> StateStore:
        """Store for one replica of ``shard``.

        The shard is bootstrapped once into a weakly held prototype; each
        replica gets an independent :meth:`~repro.storage.StateStore.clone`.
        """
        prototype = self._store_cache.get(int(shard))
        if prototype is None:
            workload = self.workload_config
            prototype = StateStore.bootstrap(
                shard, mapper, workload.initial_balance, workload.num_clients
            )
            self._store_cache[int(shard)] = prototype
        return prototype.clone()

    # ------------------------------------------------------------------
    # interface implemented by concrete systems
    # ------------------------------------------------------------------
    def route(self, transaction: Transaction) -> int:
        """Process id the client should submit ``transaction`` to."""
        raise NotImplementedError

    def fallback_route(self, transaction: Transaction, attempt: int) -> int:
        """Alternative submission target used when a request times out."""
        return self.route(transaction)

    @property
    def required_replies(self) -> int:
        """Matching replies a client must collect: 1 crash, ``f + 1`` Byzantine."""
        return self.config.clusters[0].reply_quorum

    def views(self) -> dict[ClusterId, ClusterView]:
        """One representative ledger view per cluster (for audits)."""
        raise NotImplementedError

    def stores(self) -> list[StateStore]:
        """One representative account store per shard."""
        raise NotImplementedError

    def processes(self) -> list[Process]:
        """Every replica process of the system."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # workload and clients
    # ------------------------------------------------------------------
    def make_workload(self, seed_offset: int = 0) -> WorkloadGenerator:
        """Create a workload generator bound to this system's shard layout."""
        return WorkloadGenerator(
            self.workload_config,
            num_shards=self.config.num_clusters,
            seed=self.seed + 7919 * (seed_offset + 1),
            mapper=self.workload_mapper,
        )

    def spawn_clients(
        self,
        count: int,
        metrics: MetricsCollector,
        retry_timeout: float = 2.0,
    ) -> list[ClosedLoopClient]:
        """Create ``count`` closed-loop clients attached to this system."""
        clients, replicas = [], frozenset(int(process.pid) for process in self.processes())
        for index in range(count):
            client = ClosedLoopClient(
                pid=CLIENT_PID_BASE + len(self.clients),
                sim=self.sim,
                network=self.network,
                cost_model=self.cost_model,
                workload=self.make_workload(seed_offset=index),
                router=self.route,
                metrics=metrics,
                replicas=replicas,
                required_replies=self.required_replies,
                retry_timeout=retry_timeout,
                fallback_targets=self.fallback_route,
            )
            client.recorder = self.recorder
            self.clients.append(client)
            clients.append(client)
        return clients

    def start_clients(self, clients: Iterable[ClosedLoopClient], spread: float = 1e-3) -> None:
        """Start clients with small staggered offsets to avoid lock-step."""
        for index, client in enumerate(clients):
            client.start(initial_delay=spread * (index % 97) / 97.0)

    def drain(self, grace: float = 2.0) -> float:
        """Stop all clients and let in-flight transactions complete.

        Returns the simulated time at which the system went idle.  Call
        this before auditing so that every committed block has reached
        every involved cluster.
        """
        for client in self.clients:
            client.stop()
        return self.sim.run(until=self.sim.now + grace)

    # ------------------------------------------------------------------
    # arming: swap the inert instruments for real ones
    # ------------------------------------------------------------------
    def arm_request_guards(self) -> None:
        """Arm the Byzantine-client request guard on every replica.

        Called whenever any adversary (replica, client, or coalition)
        enters the run; idempotent, and a single simulator event arms the
        whole deployment, so screening decisions are identical
        system-wide.  Faultless runs never arm: their replicas keep the
        inert guard, which admits every request.
        """
        for process in self.processes():
            if isinstance(getattr(process, "request_guard", None), InertGuard):
                process.request_guard = RequestGuard(process.chain, process.journal, self.owner_of)

    def arm_recorder(self, recorder) -> None:
        """Arm the :mod:`repro.obs` flight recorder on the whole deployment.

        Swaps the inert recorder out: one attribute assignment per
        replica, client, and the network fabric.  Untraced runs never call
        this, so every hook stays the inert one's no-op and results are
        bit-identical with tracing off.  Clients spawned after arming get
        the recorder in :meth:`spawn_clients`.
        """
        self.recorder = recorder
        self.network.recorder = recorder
        for process in self.processes():
            process.recorder = recorder
        for client in self.clients:
            client.recorder = recorder

    # ------------------------------------------------------------------
    # correctness checks
    # ------------------------------------------------------------------
    def audit(self) -> AuditReport:
        """Run the ledger consistency audit over the representative views.

        Also reports every correct replica whose own checkpoint digest
        disagreed with the quorum its cluster stabilised.
        """
        report = audit_views(self.views())
        for process in self.processes():
            divergent = process.journal.totals["checkpoint_divergent"]
            if divergent and not process.byzantine:
                report.problems.append(
                    f"replica {process.pid}: {divergent} checkpoint(s) "
                    "diverged from its cluster's stable digest"
                )
        return report

    def safety_audit(self) -> SafetyReport:
        """Cross-replica safety audit (no fork, conservation, at-most-once).

        Complements :meth:`audit` — which checks one representative view
        per cluster — by comparing **every correct replica**, excluding
        the nodes currently marked Byzantine.  Run after :meth:`drain`.
        """
        return SafetyAuditor(self).audit()

    def total_balance(self) -> int:
        """Sum of balances across all shards (conservation invariant)."""
        return sum(store.total_balance() for store in self.stores())

    def expected_total_balance(self) -> int:
        """Total balance minted at bootstrap."""
        return (
            self.workload_config.initial_balance
            * self.workload_config.accounts_per_shard
            * self.config.num_clusters
        )


@register_system("sharper")
class SharPerSystem(BaseSystem):
    """The paper's system: sharded clusters + flattened cross-shard consensus."""

    name = "SharPer"

    def __init__(
        self,
        config: SystemConfig,
        workload_config: WorkloadConfig,
        seed: int | None = None,
    ) -> None:
        super().__init__(config, workload_config, seed)
        self.replicas: dict[int, SharPerReplica] = {}
        # Every view records the cross-shard blocks it prunes in one table.
        pruned_cross: dict = {}
        for cluster in config.clusters:
            shard = sharding.cluster_to_shard(cluster.cluster_id)
            for node in cluster.node_ids:
                store = self._bootstrap_store(self.workload_mapper, shard)
                replica = SharPerReplica(
                    node_id=node,
                    cluster=cluster,
                    config=config,
                    mapper=self.workload_mapper,
                    store=store,
                    sim=self.sim,
                    network=self.network,
                    cost_model=self.cost_model,
                )
                replica.chain.pruned_cross = pruned_cross
                if self.archive is not None:
                    replica.chain.archive = self.archive
                self.replicas[int(node)] = replica
        #: process ids of each cluster's nodes (initial primary first).
        self._node_pids = {
            cluster.cluster_id: tuple(int(node) for node in cluster.node_ids)
            for cluster in config.clusters
        }

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, transaction: Transaction) -> int:
        """Send the request to the primary of the initiating cluster.

        That is the smallest involved cluster under the super-primary rule
        and without it (a client has no cluster of its own to prefer).
        """
        involved = sharding.involved_clusters(transaction, self.workload_mapper)
        return self._node_pids[involved[0]][0]

    def fallback_route(self, transaction: Transaction, attempt: int) -> int:
        """On retry, try the next node of the initiating cluster (view change)."""
        involved = sharding.involved_clusters(transaction, self.workload_mapper)
        nodes = self._node_pids[involved[0]]
        return nodes[attempt % len(nodes)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def processes(self) -> list[Process]:
        return list(self.replicas.values())

    def replicas_of(self, cluster_id: ClusterId) -> list[SharPerReplica]:
        """All replicas of one cluster."""
        return [
            self.replicas[int(node)]
            for node in self.config.cluster(cluster_id).node_ids
        ]

    def representative_of(self, cluster_id: ClusterId) -> SharPerReplica:
        """The replica whose chain and store the audits report for a cluster.

        Correct (non-crashed, non-Byzantine) replicas are preferred; ties
        break toward the longest chain.  :meth:`views` and :meth:`stores`
        both use this rule so a post-fault audit compares a chain and
        store from the same replica.
        """
        replicas = self.replicas_of(cluster_id)
        candidates = [
            replica
            for replica in replicas
            if not replica.crashed and not replica.byzantine
        ] or [replica for replica in replicas if not replica.crashed] or replicas
        return max(candidates, key=lambda replica: replica.chain.height)

    def views(self) -> dict[ClusterId, ClusterView]:
        """Longest ledger view per cluster (non-crashed replicas preferred)."""
        return {
            cluster.cluster_id: self.representative_of(cluster.cluster_id).chain
            for cluster in self.config.clusters
        }

    def stores(self) -> list[StateStore]:
        return [
            self.representative_of(cluster.cluster_id).store
            for cluster in self.config.clusters
        ]
