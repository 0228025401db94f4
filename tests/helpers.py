"""Shared fixtures/helpers for the test suite."""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.common.config import ClusterConfig, ProtocolTuning, SystemConfig
from repro.common.types import ClusterId, FaultModel, NodeId
from repro.consensus.batching import member_requests
from repro.consensus.log import OrderingLog
from repro.core.guard import InertGuard
from repro.core.sharding import involved_clusters
from repro.ledger.view import ClusterView
from repro.obs import INERT_RECORDER
from repro.obs.journal import Journal
from repro.txn.transaction import Transaction


class FakeTimer:
    """Timer stand-in used by engine unit tests (never fires by itself)."""

    def __init__(self) -> None:
        self.cancelled = False

    @property
    def active(self) -> bool:
        return not self.cancelled

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class SentMessage:
    """A message captured by :class:`BagHost`."""

    kind: str  # "multicast" or "send"
    destination: int | None
    message: object


class Bag:
    """The network and clock of a simulator-free run, shared by its :class:`BagHost` nodes.

    A sent message waits in ``pending`` as ``(src, dst, message)`` until a
    test delivers it, in whatever order the test picks; a timer waits in
    the ``timers`` heap until :meth:`fire_timer`.  No simulator, no network.
    """

    def __init__(self, clusters, mapper=None) -> None:
        self.clusters = {cluster.cluster_id: cluster for cluster in clusters}
        self.mapper = mapper
        self.hosts: dict[int, BagHost] = {}
        self.pending: list[tuple[int, int, object]] = []
        self.timers: list[tuple] = []
        self.now = 0.0
        self._seq = itertools.count()

    def deliver(self, index: int = 0) -> None:
        """Hand the pending message at ``index`` to its destination."""
        src, dst, message = self.pending.pop(index)
        if dst in self.hosts:
            self.hosts[dst].handle(message, src)

    def run(self, pick=lambda pending: 0, limit: int = 100_000) -> None:
        """Deliver until nothing is pending; ``pick(pending)`` is the next message's index."""
        for _ in range(limit):
            if not self.pending:
                return
            self.deliver(pick(self.pending))
        raise AssertionError(f"{len(self.pending)} messages still pending after {limit}")

    def fire_timer(self) -> bool:
        """Move the clock to the earliest live timer and fire it; ``False`` if none is left."""
        while self.timers:
            deadline, _, timer, callback, args = heapq.heappop(self.timers)
            if timer.active:
                self.now = max(self.now, deadline)
                callback(*args)
                return True
        return False


class BagHost:
    """A :class:`~repro.consensus.base.Host` without a simulator: one node of a :class:`Bag`.

    Sends go into the bag (a bag of its own when none is shared) and are
    recorded in ``sent``; timers go into the bag's heap.  A test attaches
    the engines it drives (``intra``, ``cross``, ``terminator``).
    """

    def __init__(self, node_id: int, cluster: ClusterConfig, bag: Bag | None = None) -> None:
        self.bag = bag = bag if bag is not None else Bag((cluster,))
        bag.hosts[int(node_id)] = self
        self.pid = int(node_id)
        self.node_id = NodeId(node_id)
        self.cluster = cluster
        self.cluster_id = cluster.cluster_id
        self.peers = tuple(int(node) for node in cluster.node_ids if node != node_id)
        self.voting = {
            c.cluster_id: (c.cross_quorum, c.voter_bits) for c in bag.clusters.values()
        }
        self.log = OrderingLog(cluster.cluster_id)
        self.chain = ClusterView(cluster.cluster_id)
        self.tuning = ProtocolTuning()
        self.recorder = INERT_RECORDER
        self.journal = Journal(self)
        self.request_guard = InertGuard(self.chain)
        self.intra = self.cross = self.terminator = None
        self.sent: list[SentMessage] = []
        self.timers: list[FakeTimer] = []
        self.decide_notifications = 0
        self.aborted: list[object] = []

    @property
    def now(self) -> float:
        return self.bag.now

    def handle(self, message: object, src: int) -> None:
        """Deliver ``message`` to whichever attached engine handles its type."""
        for engine in (self.intra, self.cross, self.terminator):
            if engine is not None and engine.handle(message, src):
                return

    # -- Host interface --------------------------------------------------
    def send(self, node: int, message: object) -> None:
        self.sent.append(SentMessage("send", int(node), message))
        self.bag.pending.append((int(self.node_id), int(node), message))

    def multicast(self, nodes, message: object) -> None:
        self.sent.append(SentMessage("multicast", None, message))
        me = int(self.node_id)
        self.bag.pending.extend((me, node, message) for node in nodes if node != me)

    def set_timer(self, delay: float, callback, *args) -> FakeTimer:
        timer = FakeTimer()
        self.timers.append(timer)
        bag = self.bag
        heapq.heappush(bag.timers, (bag.now + delay, next(bag._seq), timer, callback, args))
        return timer

    def after_decide(self) -> None:
        self.decide_notifications += 1

    def primary_pid_of(self, cluster_id) -> int:
        if cluster_id == self.cluster_id:
            return int(self.intra.primary)
        return int(self.bag.clusters[cluster_id].primary)

    def nodes_of_clusters(self, clusters) -> tuple[int, ...]:
        return tuple(int(node) for c in clusters for node in self.bag.clusters[c].node_ids)

    def involved_clusters_of(self, transaction) -> tuple[ClusterId, ...]:
        return involved_clusters(transaction, self.bag.mapper)

    def spans_clusters(self, item: object) -> bool:
        requests = member_requests(item)
        return bool(requests) and len(self.involved_clusters_of(requests[0].transaction)) > 1

    def relay_to_primary(self, request) -> None:
        self.send(self.primary_pid_of(self.cluster_id), request)

    def on_cross_shard_abort(self, item: object) -> None:
        self.aborted.append(item)

    def announce_new_view(self, view: int, certificate: tuple) -> None:
        pass

    def on_intra_view_installed(self, view: int) -> None:
        pass

    def request_catch_up(self) -> None:
        pass

    # -- convenience -----------------------------------------------------
    def messages_of_type(self, message_type) -> list[object]:
        return [sent.message for sent in self.sent if isinstance(sent.message, message_type)]


#: the engine unit tests' name for a BagHost whose messages nobody delivers:
#: they read what it sent.
FakeHost = BagHost


def journal() -> Journal:
    """An anomaly journal of no replica: its rows carry time 0 and pid 0."""
    return Journal(SimpleNamespace(now=0.0, pid=0))


def crash_cluster(cluster_id: int = 0, size: int = 3, f: int = 1) -> ClusterConfig:
    """A crash-only cluster with node ids 0..size-1 (offset by cluster)."""
    base = cluster_id * size
    return ClusterConfig(
        cluster_id=ClusterId(cluster_id),
        node_ids=tuple(NodeId(base + index) for index in range(size)),
        fault_model=FaultModel.CRASH,
        f=f,
    )


def byzantine_cluster(cluster_id: int = 0, size: int = 4, f: int = 1) -> ClusterConfig:
    """A Byzantine cluster with node ids 0..size-1 (offset by cluster)."""
    base = cluster_id * size
    return ClusterConfig(
        cluster_id=ClusterId(cluster_id),
        node_ids=tuple(NodeId(base + index) for index in range(size)),
        fault_model=FaultModel.BYZANTINE,
        f=f,
    )


def simple_transfer(source: int = 0, destination: int = 1, amount: int = 5) -> Transaction:
    """A one-transfer transaction for tests that only need a payload."""
    return Transaction.transfer(
        client=source % 8, source=source, destination=destination, amount=amount
    )


def assert_roles_follow_views(replicas) -> None:
    """Role is state: each engine's ``primary`` / ``is_primary`` are those its view elects."""
    for replica in replicas:
        engine = replica.intra
        elected = replica.cluster.primary_for_view(engine.view)
        assert engine.primary == elected, (
            f"node {replica.node_id}: view {engine.view} elects {elected}, "
            f"engine says {engine.primary}"
        )
        assert engine.is_primary == (replica.node_id == elected)


def archived_precedes(archive, earlier, later) -> bool:
    """Whether the archived block at ``later`` descends from the one at ``earlier``.

    Both are ``(cluster, position)``.  Walks the ``blocks`` table's
    per-cluster parent hashes; a cross-shard block has one row per
    involved cluster, so the walk crosses clusters through it.
    """
    conn = archive.connection

    def hash_at(cluster, position):
        row = conn.execute(
            "SELECT block_hash FROM blocks WHERE cluster = ? AND position = ?",
            (cluster, position),
        ).fetchone()
        assert row is not None, f"no archived block at {(cluster, position)}"
        return row[0]

    target = hash_at(*earlier)
    frontier, seen = [hash_at(*later)], set()
    while frontier:
        rows = conn.execute(
            "SELECT parent_hash FROM blocks WHERE block_hash = ?", (frontier.pop(),)
        )
        for (parent,) in rows.fetchall():
            if parent == target:
                return True
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return False


def assert_run_leaves_no_garbage(scenario):
    """Run ``scenario`` with the collector off; fail if only a cyclic pass could free something.

    The cycle guard behind ``Simulator.run``'s collector-quiet run phase:
    the whole scenario (build, run, drain, audits, trace report) executes
    with automatic collection disabled, then one collection under
    ``gc.DEBUG_SAVEALL`` — with the system still alive, so structural
    cycles between live replicas and engines do not count — must find
    nothing unreachable.  Returns the scenario's result.
    """
    was_enabled = gc.isenabled()
    gc.collect()  # garbage of earlier tests is not this run's
    gc.disable()
    try:
        result = scenario.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            unreachable = gc.collect()
            kinds = Counter(type(item).__name__ for item in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if was_enabled:
            gc.enable()
    assert unreachable == 0, (
        f"{scenario.label}: the run left {unreachable} objects that only the cyclic "
        f"collector can free, by type: {kinds.most_common(8)}"
    )
    return result


def trace_fingerprint(report) -> str:
    """sha256 over what the trace hooks wrote, in the order they wrote it."""
    rows = (report.events, report.event_meta, report.slot_spans, report.causal)
    blob = repr(tuple(tuple(view) for view in rows))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def report_fingerprint(report) -> str:
    """sha256 over what finalize reduced the trace to."""
    blob = repr((tuple(report.deciding), report.critical))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
