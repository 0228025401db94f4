"""Shared fixtures/helpers for the test suite."""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field

from repro.common.config import ClusterConfig, SystemConfig
from repro.common.types import ClusterId, FaultModel, NodeId
from repro.consensus.log import OrderingLog
from repro.obs import INERT_RECORDER
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
    """A message captured by :class:`FakeHost`."""

    kind: str  # "multicast" or "send"
    destination: int | None
    message: object


class FakeHost:
    """Minimal in-memory ConsensusHost used to unit-test engines."""

    def __init__(self, node_id: int, cluster: ClusterConfig) -> None:
        self.node_id = NodeId(node_id)
        self.cluster = cluster
        self.log = OrderingLog(cluster.cluster_id)
        self.sent: list[SentMessage] = []
        self.decide_notifications = 0
        self.timers: list[FakeTimer] = []
        #: simulated clock (ConsensusHost interface); tests may advance it.
        self.now = 0.0
        #: flight recorder (ConsensusHost interface); left inert here.
        self.recorder = INERT_RECORDER

    # -- ConsensusHost interface ---------------------------------------
    def multicast_cluster(self, message: object) -> None:
        self.sent.append(SentMessage("multicast", None, message))

    def send_to(self, node_id: int, message: object) -> None:
        self.sent.append(SentMessage("send", int(node_id), message))

    def after_decide(self) -> None:
        self.decide_notifications += 1

    def set_timer(self, delay: float, callback, *args) -> FakeTimer:
        timer = FakeTimer()
        self.timers.append(timer)
        return timer

    @property
    def view_change_timeout(self) -> float:
        return 0.5

    # -- convenience -----------------------------------------------------
    def messages_of_type(self, message_type) -> list[object]:
        return [sent.message for sent in self.sent if isinstance(sent.message, message_type)]


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
        assert replica.is_cluster_primary == engine.is_primary


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
