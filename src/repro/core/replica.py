"""The SharPer replica: one node of one cluster.

A replica glues together everything a node of the paper's system runs:

* the intra-shard consensus engine (Paxos for crash-only clusters, PBFT
  for Byzantine clusters — Section 3.1);
* the flattened cross-shard consensus engine (Algorithm 1 or 2);
* one :class:`~repro.consensus.log.OrderingLog`, shared by both engines,
  so intra- and cross-shard transactions of the cluster are totally
  ordered together;
* the cluster's view of the DAG ledger and the shard's account store,
  updated strictly in slot order;
* client reply handling (the primary replies in the crash model, every
  replica replies in the Byzantine model, where clients wait for ``f + 1``
  matching replies).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable
from weakref import ref

from ..common.config import ClusterConfig, SystemConfig
from ..common.errors import ConfigurationError, UnknownAccountError
from ..common.types import ClusterId, FaultModel, NodeId
from ..consensus.batching import BatchPipeline, member_requests
from ..consensus.log import Noop, OrderingLog, item_digest
from ..consensus.messages import ClientReply, ClientRequest, NewViewAnnouncement
from ..consensus.paxos import PaxosEngine
from ..consensus.pbft import PBFTEngine
from ..consensus.view_change import verify_new_view_certificate
from ..ledger.block import Block
from ..ledger.view import ClusterView
from ..recovery import CheckpointManager, CrossShardTerminator, StateTransferManager
from ..sim.costs import CostModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.simulator import Simulator
from ..storage import StateStore
from ..txn.accounts import ShardMapper
from ..txn.execution import TransactionExecutor
from ..txn.transaction import Transaction
from . import sharding
from .cross_shard import ByzantineCrossShardEngine, CrashCrossShardEngine
from .guard import ADMIT, REFUSE, InertGuard, RequestGuard

__all__ = ["SharPerReplica"]


def _shared_block(item, transactions, positions, proposer, parents) -> Block:
    """The block ``item``'s slot appends, shared by the replicas that build it.

    Every replica of a cluster decides the same ``(item, positions,
    proposer)`` for a slot and executes the same members of it — and
    block identity excludes parent hashes — so the first replica to
    apply the slot builds (and hashes) the block and the rest reuse the
    object through the ``_block_memo`` slot of the shared ``item``
    payload.  The memo is the bare block: a hit is decided against the
    block's own fields, parents and executed ``transactions`` included —
    each cluster of a cross-shard item materialises a block carrying its
    own parent reference, and may have skipped different members.

    The memo holds the block *weakly*: a payload must never point back at
    its holder, or ``Transaction → Block → Transaction`` would be a cycle
    that outlives :meth:`ClusterView.prune` until a cyclic collection
    runs — and the run phase runs none (see
    :meth:`repro.sim.simulator.Simulator.run`).  The memo is only ever an
    optimisation: once every chain has released the block, a replica that
    applies the slot late builds an equal one.
    """
    memo = getattr(item, "_block_memo", None)
    block = memo() if memo is not None else None
    if (
        block is not None
        and block.proposer == proposer
        and block.transactions == transactions
        and block.positions == Block.sorted_items(positions)
        and block.parents == Block.sorted_items(parents)
    ):
        return block
    block = Block.create(transactions, positions, proposer, parents)
    object.__setattr__(item, "_block_memo", ref(block))
    return block


class ReplicaHost(Process):
    """The :class:`~repro.consensus.base.Host` every replica kind is.

    One ordering log and one ledger view per node, the routing tables the
    engines read, the in-order apply loop, the execute-and-append step of
    replicas that own an ``executor``, and the client reply.  SharPer's
    replica, the non-sharded baselines' active replica and AHL's
    reference-committee member extend it with the engine(s) they run
    (``self.intra``) and their ``_apply``.
    """

    def __init__(
        self,
        node_id: NodeId,
        cluster: ClusterConfig,
        config: SystemConfig,
        mapper: ShardMapper,
        sim: Simulator,
        network: Network,
        cost_model: CostModel,
        name: str,
    ) -> None:
        super().__init__(int(node_id), sim, network, cost_model, name=name)
        self.node_id = node_id
        self.cluster = cluster
        #: identifier of the cluster (and shard) this replica belongs to.
        self.cluster_id = cluster.cluster_id
        self.config = config
        self.mapper = mapper
        self.tuning = config.tuning
        self.log = OrderingLog(cluster.cluster_id)
        self.chain = ClusterView(cluster.cluster_id)
        #: client requests refused at intake: an account outside the keyspace.
        self.rejected_requests = 0
        # Stable destination tuple: the network memoises a route per
        # (sender, destination tuple), so hand it the same tuple object
        # for the whole run instead of rebuilding a list per multicast.
        self.peers = tuple(int(node) for node in cluster.node_ids if node != node_id)
        #: per cluster: (cross-shard quorum, member pid → voter bit), resolved once.
        self.voting = {c.cluster_id: (c.cross_quorum, c.voter_bits) for c in config.clusters}
        # Remote-primary table: who currently speaks for each other
        # cluster.  Pre-resolved to plain pids (replacing a linear config
        # scan per lookup) and updated only through certificate-verified
        # NewViewAnnouncements — a bare claim never changes it.
        self._remote_primaries: dict[ClusterId, int] = {
            remote.cluster_id: int(remote.primary) for remote in config.clusters
        }
        #: memoised destination tuples per involved-cluster set (stable
        #: objects, for the same reason as ``peers``).
        self._nodes_of: dict[tuple[ClusterId, ...], tuple[int, ...]] = {}

    def relay_to_primary(self, request: ClientRequest) -> None:
        """Hand a client request to this cluster's primary."""
        self.send(int(self.intra.primary), request)

    # The cross-shard part of the Host surface, inert here: no cross-shard
    # engine, termination rounds, client screen or items, no remote
    # clusters tracking this one, nothing view-scoped, no state transfer.
    cross = terminator = request_guard = None

    def spans_clusters(self, item: object) -> bool:
        return False

    def on_cross_shard_abort(self, item: object) -> None:
        pass

    def announce_new_view(self, view: int, certificate: tuple) -> None:
        pass

    def on_intra_view_installed(self, view: int) -> None:
        pass

    def request_catch_up(self) -> None:
        pass

    def primary_pid_of(self, cluster_id: ClusterId) -> int:
        """Process id of the primary of ``cluster_id``.

        For the local cluster the current view is used; remote primaries
        come from the pre-resolved table, which starts at every cluster's
        initial view and advances only through certificate-verified
        :class:`~repro.consensus.messages.NewViewAnnouncement` messages
        (see :meth:`SharPerReplica._on_new_view_announcement`).
        """
        if cluster_id == self.cluster_id:
            return int(self.intra.primary)
        return self._remote_primaries[cluster_id]

    def nodes_of_clusters(self, clusters: Iterable[ClusterId]) -> tuple[int, ...]:
        """Process ids of every node of the given clusters (memoised per set)."""
        if clusters.__class__ is not tuple:
            clusters = tuple(clusters)
        nodes = self._nodes_of.get(clusters)
        if nodes is None:
            nodes = self._nodes_of[clusters] = tuple(
                int(node)
                for cluster_id in clusters
                for node in self.config.cluster(cluster_id).node_ids
            )
        return nodes

    def involved_clusters_of(self, transaction: Transaction) -> tuple[ClusterId, ...]:
        """Clusters whose shards ``transaction`` accesses."""
        return sharding.involved_clusters(transaction, self.mapper)

    def after_decide(self) -> None:
        """Apply every decided slot that is next in line (in slot order)."""
        for entry in self.log.pop_applicable():
            self._apply(entry)

    def _commit(
        self, item: object, requests, positions, proposer, parents
    ) -> list[tuple[ClientRequest, bool]]:
        """Execute ``requests`` (members of ``item``) and append their one block.

        The execute → build block → append → count sequence every
        executing replica kind shares; returns the ``(request, success)``
        pairs.  CPU charges, replies and anything else that differs per
        system stay with the caller.
        """
        execute = self.executor.execute
        executed, transactions = [], []
        for request in requests:
            transaction = request.transaction
            success = execute(transaction).success
            if not success:
                self.failed_executions += 1
            executed.append((request, success))
            transactions.append(transaction)
        block = _shared_block(item, tuple(transactions), positions, proposer, parents)
        self.chain.append(block)
        self.committed_count += len(executed)
        return executed

    def _reject_unclassifiable(self, request: ClientRequest) -> None:
        """Refuse a request naming an account no shard owns: nothing can
        order it, so answer with a failure (the submitter stops retrying)."""
        self.rejected_requests += 1
        self._send_reply(request, success=False)

    def _send_reply(
        self, request: ClientRequest, success: bool, cross_shard: bool = False
    ) -> None:
        if request.reply_to < 0:
            return
        reply = ClientReply(
            tx_id=request.transaction.tx_id,
            node=self.node_id,
            cluster=self.cluster_id,
            view=self.intra.view,
            success=success,
            cross_shard=cross_shard,
        )
        self.send(request.reply_to, reply)


class SharPerReplica(ReplicaHost):
    """One SharPer node: intra-shard + cross-shard consensus + ledger view."""

    def __init__(
        self,
        node_id: NodeId,
        cluster: ClusterConfig,
        config: SystemConfig,
        mapper: ShardMapper,
        store: StateStore,
        sim: Simulator,
        network: Network,
        cost_model: CostModel,
    ) -> None:
        super().__init__(
            node_id, cluster, config, mapper, sim, network, cost_model,
            name=f"replica-{node_id}@p{cluster.cluster_id}",
        )
        self.store = store
        self.executor = TransactionExecutor(
            store, mapper, sharding.cluster_to_shard(cluster.cluster_id)
        )
        if cluster.fault_model is FaultModel.CRASH:
            self.intra = PaxosEngine(self)
            self.cross = CrashCrossShardEngine(self)
        else:
            self.intra = PBFTEngine(self)
            self.cross = ByzantineCrossShardEngine(self)
        self.committed_count = 0
        self.committed_cross_count = 0
        self.failed_executions = 0
        self.forwarded_requests = 0
        #: rolling withheld-sequence-number timer (see _monitor_gap).
        self._gap_timer = None
        # Recovery subsystem: checkpointing/compaction, state transfer,
        # and checkpoint-anchored cross-shard termination.  A zero
        # interval disables checkpoint production (the faultless
        # default); state transfer and termination stay armed either way.
        self._checkpoint_interval = self.tuning.checkpoint_interval
        self.checkpoints = CheckpointManager(self, interval=self._checkpoint_interval)
        self.state_transfer = StateTransferManager(self)
        self.terminator = CrossShardTerminator(self)
        #: suppress client replies while replaying state-transferred slots.
        self._replaying = False
        #: Byzantine-client defence: inert until an adversary enters.
        self.request_guard: RequestGuard | InertGuard = InertGuard(self.chain)
        #: the one submission path: every client request this replica
        #: orders enters through the pipeline, whatever the batch size.
        self.batcher = BatchPipeline(self)
        self._remote_views: dict[ClusterId, int] = {}
        # Table-driven dispatch: merge the engines' handler tables into the
        # process-level table once, so delivery is a single dict lookup
        # (the message sets of the engines and managers are disjoint).
        self.register_handler(ClientRequest, self._on_client_request)
        self.register_handler(NewViewAnnouncement, self._on_new_view_announcement)
        self.register_handlers(self.cross.handlers())
        self.register_handlers(self.intra.handlers())
        self.register_handlers(self.checkpoints.handlers())
        self.register_handlers(self.state_transfer.handlers())
        self.register_handlers(self.terminator.handlers())

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    def spans_clusters(self, item: object) -> bool:
        """Whether an ordered item is a cross-shard client request.

        Used by the view-change manager to keep cross-shard instances
        out of intra-shard re-proposals (see
        :meth:`~repro.consensus.view_change.ViewChangeManager._install_as_primary`).
        """
        # Batch members share one involved-cluster set by construction,
        # so the first member answers for the whole batch.
        requests = member_requests(item)
        return bool(requests) and len(self.involved_clusters_of(requests[0].transaction)) > 1

    # ------------------------------------------------------------------
    # authenticated cross-cluster view changes
    # ------------------------------------------------------------------
    def announce_new_view(self, view: int, certificate: tuple) -> None:
        """Tell every other cluster this replica now leads its cluster.

        Called by the view-change manager at view installation with the
        quorum certificate that elected this primary; view changes are
        rare, so the cluster-wide multicast is off the hot path.
        """
        others = self.nodes_of_clusters(
            remote.cluster_id
            for remote in self.config.clusters
            if remote.cluster_id != self.cluster_id
        )
        if not others:
            return
        self.multicast(
            others,
            NewViewAnnouncement(
                cluster=self.cluster_id,
                view=view,
                node=self.node_id,
                certificate=certificate,
            ),
        )

    def _on_new_view_announcement(self, message: NewViewAnnouncement, src: int) -> None:
        """Update the remote-primary table — certificate verified first.

        The claim must come from the node its view elects, carry a
        quorum of authentic signed view-change votes from *that*
        cluster's members, and advance (never rewind) the remote view.
        A forged-view adversary announcing a self-elected takeover fails
        the certificate check and changes nothing.
        """
        cluster_id = message.cluster
        if cluster_id == self.cluster_id:
            return
        try:
            remote = self.config.cluster(cluster_id)
        except ConfigurationError:
            return
        if src != int(remote.primary_for_view(message.view)):
            return
        if message.view <= self._remote_views.get(cluster_id, 0):
            return
        if not verify_new_view_certificate(message.certificate, message.view, remote):
            return
        self._remote_views[cluster_id] = message.view
        self._remote_primaries[cluster_id] = int(remote.primary_for_view(message.view))

    # ------------------------------------------------------------------
    # message dispatch (table-driven; see Process.register_handler)
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequest, src: int) -> None:
        if request.reply_to < 0:
            request = replace(request, reply_to=src)
        verdict = self.request_guard.screen(request)
        if verdict != ADMIT:
            if verdict == REFUSE:
                # Authentic but invalid (e.g. ownership violation): answer
                # with a failure so honest submitters do not retry
                # forever; forged/replayed traffic is dropped.
                self._send_reply(request, success=False, cross_shard=False)
            return
        transaction = request.transaction
        if self.chain.contains_tx(transaction.tx_id):
            # Duplicate of an already-committed transaction: reply directly.
            self._send_reply(request, success=True, cross_shard=False)
            return
        try:
            involved = sharding.involved_clusters(transaction, self.mapper)
        except UnknownAccountError:
            self.request_guard.abandoned(transaction.tx_id)
            self._reject_unclassifiable(request)
            return
        if len(involved) == 1:
            self._handle_intra_request(request, involved[0])
        else:
            self._handle_cross_request(request, involved)

    def _handle_intra_request(self, request: ClientRequest, target: ClusterId) -> None:
        if target != self.cluster_id:
            self._forward(request, self.primary_pid_of(target))
            return
        if not self.intra.is_primary:
            self.relay_to_primary(request)
            return
        if self.log.slot_of(item_digest(request)) is not None:
            # Retry of a request already ordered (or in flight) here:
            # allocating a second slot would commit the transaction
            # twice.  Once the first slot applies, the duplicate check
            # in _on_client_request answers the client's next retry.
            return
        self.recorder.phase(self.sim.now, request.transaction.tx_id, "enqueue", self.pid)
        self.batcher.submit_intra(request)

    def _handle_cross_request(
        self, request: ClientRequest, involved: tuple[ClusterId, ...]
    ) -> None:
        initiator = sharding.initiator_cluster(
            request.transaction,
            self.mapper,
            use_super_primary=self.tuning.use_super_primary,
            fallback=self.cluster_id,
        )
        if initiator != self.cluster_id:
            self._forward(request, self.primary_pid_of(initiator))
            return
        if not self.intra.is_primary:
            self.relay_to_primary(request)
            return
        self.recorder.phase(self.sim.now, request.transaction.tx_id, "enqueue", self.pid)
        self.batcher.submit_cross(request, involved)

    def _forward(self, request: ClientRequest, destination: int) -> None:
        if destination == self.pid:
            return
        self.forwarded_requests += 1
        self.send(destination, request)

    def relay_to_primary(self, request: ClientRequest) -> None:
        """PBFT's request timer: watch the request, then relay it to the primary.

        A backup that hands a client request to its cluster primary
        starts a timer; if the transaction has not committed when it
        fires — and the view has not rotated in the meantime — the
        primary is suspected.  This is what makes a *silent* (muted, not
        crashed) primary lose its seat: a mute primary leaves no pending
        pre-prepares to monitor, so without a request-level timer the
        backups would never have a reason to suspect it.  Fault-free
        runs never take this path (clients route straight to primaries),
        so the fast path is untouched.
        """
        self.set_timer(
            self.tuning.view_change_timeout,
            self._check_forwarded_request,
            request.transaction.tx_id,
            self.intra.view,
        )
        self._forward(request, self.primary_pid_of(self.cluster_id))

    def _check_forwarded_request(self, tx_id: str, view_at_forward: int) -> None:
        if self.chain.contains_tx(tx_id):
            return
        if self.intra.view != view_at_forward:
            # Already failed over; the client's retry re-arms monitoring.
            return
        self.intra.view_change.suspect_primary()

    # ------------------------------------------------------------------
    # applying decided slots
    # ------------------------------------------------------------------
    def after_decide(self) -> None:
        """Apply every decided slot that is next in line (in slot order)."""
        log = self.log
        interval = self._checkpoint_interval
        if interval:
            # Checkpoint exactly at interval boundaries, *inside* the
            # apply run: the chain head and store then reflect precisely
            # slots 1..seq, which is what makes the digest match across
            # the cluster.
            for entry in log.pop_applicable():
                self._apply(entry)
                if entry.slot % interval == 0:
                    self.checkpoints.take(entry.slot)
        else:
            for entry in log.pop_applicable():
                self._apply(entry)
        # Inlined blocked_decisions read and timer guard: this runs once
        # per decide, on the hottest protocol path in the repo, and the
        # gap timer is almost always already armed while pipelining.
        if log._blocked_decisions and self._gap_timer is None:
            self._monitor_gap()

    def replay_decided(self) -> None:
        """Apply state-transferred slots without re-sending client replies.

        The original commit already answered the client (possibly while
        this replica was down); replaying must reconstruct chain and
        store state bit-identically but stay silent on the client side.
        """
        self._replaying = True
        try:
            self.after_decide()
        finally:
            self._replaying = False

    def _monitor_gap(self) -> None:
        """Watch decided-but-blocked slots (withheld sequence numbers).

        A decided slot that cannot apply means some lower slot never
        arrived here — briefly normal while instances pipeline, but if
        the gap persists for a whole view-change timeout the primary is
        withholding sequence numbers (e.g. a muted primary whose
        pre-prepares were swallowed while cross-shard slots above them
        kept deciding) and must be suspected.  One rolling timer per
        replica; it re-arms while progress continues and fires a
        suspicion only when ``next_apply`` stalled for a full timeout.
        The handle is reset to ``None`` on firing and never cancelled
        elsewhere, so a plain ``is not None`` check suffices on this
        hot path (blocked decisions are routine while instances
        pipeline).
        """
        if self._gap_timer is not None:
            return
        self._gap_timer = self.set_timer(
            self.tuning.view_change_timeout,
            self._on_gap_timeout,
            self.log.next_apply,
            self.intra.view,
        )

    def _on_gap_timeout(self, next_apply_at_arm: int, view_at_arm: int) -> None:
        self._gap_timer = None
        if not self.log.blocked_decisions:
            return
        if self.log.next_apply == next_apply_at_arm and self.intra.view == view_at_arm:
            # The missing slot may simply have been decided while we
            # were unreachable — fetch it from peers before (also)
            # suspecting the primary of withholding it.
            self.state_transfer.request_catch_up()
            self.intra.view_change.suspect_primary()
        # Still blocked (progress, a view change in flight, or a fresh
        # stall): keep watching until the gap clears.
        self._monitor_gap()

    def _apply(self, entry) -> None:
        """Apply one decided slot: per-member semantics, one block.

        A slot carries one client request or a batch of them; either way
        it costs one dispatch, one fused CPU charge and one ledger append,
        while every member keeps its individual transaction semantics
        (at-most-once execution, guard bookkeeping, its own client
        reply).  Two backstops skip a member instead of executing it:

        * it is already committed here — a retry that beat this slot
          through a view-change hand-off, or a duplicate a Byzantine
          primary proposed past the door.  Executing it would
          double-spend; every correct replica applies slots in the same
          order, so the whole cluster skips identically;
        * it is a cross-shard transaction decided without its position
          vector (every known path is closed, but a half-execution would
          silently mint or destroy money).  No reply is sent — the
          client's retry commits it atomically elsewhere.

        A slot whose members were all skipped degenerates to a no-op
        block, so the chain stays contiguous and fork-free.
        """
        positions = entry.vector(self.cluster_id)
        parents = {self.cluster_id: self.chain.head_hash}
        proposer = entry.proposer if entry.proposer is not None else self.cluster_id
        item = entry.item
        recorder = self.recorder
        recorder.slot_close(self.sim.now, self.pid, entry.slot)
        # Free the pipeline's window entry for this slot (a no-op on
        # every replica but the proposing primary).
        self.batcher.item_applied(entry.digest)
        requests = member_requests(item)
        if not requests and not isinstance(item, Noop):
            self.charge(self.cost_model.append_cost)
            self.on_marker_applied(entry, positions, parents, proposer)
            return
        guard = self.request_guard
        cross = len(positions) > 1
        admitted = []
        committed = guard.is_duplicate_apply
        for request in requests:
            transaction = request.transaction
            if committed(transaction.tx_id):
                continue
            # The classification is memoised on the shared payload, so
            # this guard costs one cache probe per applied transaction.
            if not cross and len(sharding.involved_clusters(transaction, self.mapper)) > 1:
                guard.abandoned(transaction.tx_id)
                continue
            admitted.append(request)
        # One fused charge: a single append plus one execution per member
        # actually executed (skipped members cost nothing).
        self.charge(
            self.cost_model.append_cost
            + self.cost_model.execution_cost * len(admitted)
        )
        if not admitted:
            self.chain.append(Block.noop(positions, proposer=proposer, parents=parents))
            return
        executed = self._commit(item, admitted, positions, proposer, parents)
        if cross:
            self.committed_cross_count += len(executed)
        now = self.sim.now
        for request, _success in executed:
            recorder.phase(now, request.transaction.tx_id, "applied", self.pid)
            guard.committed(request)
        if self._should_reply(proposer):
            for request, success in executed:
                self._send_reply(request, success=success, cross_shard=cross)

    def on_marker_applied(self, entry, positions, parents, proposer) -> None:
        """Hook for subclasses that order protocol markers (e.g. AHL's 2PC).

        The base replica never orders markers; fill the slot with a no-op
        block so the chain stays contiguous if one ever appears.
        """
        self.chain.append(Block.noop(positions, proposer=proposer, parents=parents))

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Restart after a crash and actively catch up on missed slots.

        State is retained (Section 2.1), but slots decided while the
        replica was down would otherwise leave it alive-but-deaf: it
        receives new traffic yet can never apply past the gap.  A
        state-transfer round fetches the latest stable checkpoint plus
        the decided suffix from the cluster peers, after which the
        replica serves requests and votes in quorums again.
        """
        was_crashed = self.crashed
        super().recover()
        if was_crashed:
            self.state_transfer.request_catch_up()

    # ------------------------------------------------------------------
    # client replies
    # ------------------------------------------------------------------
    def _should_reply(self, proposer: ClusterId) -> bool:
        if self._replaying:
            # State-transfer replay: the original commit already replied.
            return False
        if self.cluster.fault_model is FaultModel.BYZANTINE:
            return True
        # Crash model: only the primary of the initiating cluster replies.
        return self.intra.is_primary and proposer == self.cluster_id

    def on_cross_shard_abort(self, item: object) -> None:
        """Notify the client(s) that a cross-shard item was given up on.

        ``item`` is whatever the cross-shard engine ordered — a bare
        request, or a :class:`RequestBatch` whose members each get their
        own failure reply (and are released from the batcher's dedup
        index so client retries can re-enter the pipeline).
        """
        for request in member_requests(item):
            self._send_reply(request, success=False, cross_shard=True)
        self.batcher.item_applied(item_digest(item))

    def request_catch_up(self) -> None:
        """Start a state-transfer round (the view-change manager calls it)."""
        self.state_transfer.request_catch_up()

    def on_intra_view_installed(self, view: int) -> None:
        """Hook called by the view-change manager on every view install.

        Resets the pipeline's window: in-flight items were carried by the
        view change itself (they are ordinary log items), so only the
        replica-local accounting needs resetting.  See
        :meth:`repro.consensus.batching.BatchPipeline.on_view_installed`.
        """
        self.batcher.on_view_installed()
