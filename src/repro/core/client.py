"""Simulated application clients.

The paper drives each system with "an increasing number of clients
running on a single VM, until the end-to-end throughput is saturated"
(Section 4).  :class:`ClosedLoopClient` reproduces that methodology: each
client keeps one request outstanding, waits for the required number of
matching replies (1 in the crash model, ``f + 1`` in the Byzantine
model), records the end-to-end latency, and immediately issues the next
request.  Offered load is therefore controlled by the number of clients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..common.metrics import MetricsCollector
from ..consensus.messages import ClientReply, ClientRequest
from ..sim.costs import CostModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.simulator import Simulator
from ..txn.transaction import Transaction
from ..txn.workload import WorkloadGenerator
from .sharding import involved_clusters

__all__ = ["ClosedLoopClient"]

#: Process ids at or above this value are client processes.
CLIENT_PID_BASE = 1_000_000


@dataclass(slots=True)
class _Outstanding:
    """Book-keeping for one in-flight request."""

    transaction: Transaction
    submitted_at: float
    cross_shard: bool
    target: int
    repliers: set[int] = field(default_factory=set)
    successes: int = 0
    #: current resend deadline; stale queue entries are skipped lazily.
    resend_deadline: float = 0.0
    attempts: int = 0


class ClosedLoopClient(Process):
    """A client that always keeps exactly one request in flight."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        network: Network,
        cost_model: CostModel,
        workload: WorkloadGenerator,
        router: Callable[[Transaction], int],
        metrics: MetricsCollector,
        required_replies: int = 1,
        retry_timeout: float = 1.0,
        fallback_targets: Callable[[Transaction, int], int] | None = None,
    ) -> None:
        super().__init__(pid, sim, network, cost_model, name=f"client-{pid}")
        self.workload = workload
        self.router = router
        self.metrics = metrics
        self.required_replies = required_replies
        self.retry_timeout = retry_timeout
        self.fallback_targets = fallback_targets
        self._outstanding: dict[str, _Outstanding] = {}
        self.completed = 0
        self.failed = 0
        self.resubmissions = 0
        self.register_handler(ClientReply, self._on_reply)
        # One rolling retry timer per client instead of one simulator
        # timer per request: deadlines are armed in monotonic order, so
        # the timer tracks the earliest pending deadline and drops entries
        # whose request completed or was already resent (see _live_head).
        self._retry_deadlines: deque[tuple[float, str]] = deque()
        self._retry_timer = None
        self._stopped = False

    # ------------------------------------------------------------------
    # issuing requests
    # ------------------------------------------------------------------
    def start(self, initial_delay: float = 0.0) -> None:
        """Schedule the first request."""
        self.sim.schedule(initial_delay, self._issue_next)

    def stop(self) -> None:
        """Stop issuing new requests (the in-flight request still completes)."""
        self._stopped = True

    def _issue_next(self) -> None:
        if self.crashed or self._stopped:
            return
        self._submit(self.workload.next_transaction(timestamp=self.sim.now))

    def _submit(self, transaction: Transaction) -> None:
        request = ClientRequest(
            transaction=transaction,
            client=transaction.client,
            timestamp=self.sim.now,
            reply_to=self.pid,
        )
        target = self.router(transaction)
        cross = len(involved_clusters(transaction, self.workload.mapper)) > 1
        state = _Outstanding(
            transaction=transaction,
            submitted_at=self.sim.now,
            cross_shard=cross,
            target=target,
        )
        self._outstanding[transaction.tx_id] = state
        self.metrics.record_submission()
        recorder = self.recorder
        recorder.submit(self.sim.now, transaction.tx_id, self.pid, cross)
        self.send(target, request)
        self._schedule_resend(state, transaction.tx_id)
        # The submit context must not leak into whatever runs next on this
        # client (timer callbacks, the next closed-loop submit issued from
        # a reply dispatch): only the request sent above parents to the
        # submit event.
        recorder.clear_context()

    def _schedule_resend(self, state: _Outstanding, tx_id: str) -> None:
        deadline = self.sim.now + self.retry_timeout
        state.resend_deadline = deadline
        self._retry_deadlines.append((deadline, tx_id))
        if self._retry_timer is None or not self._retry_timer.active:
            self._arm_retry_timer(deadline)

    def _arm_retry_timer(self, deadline: float) -> None:
        # Single live timer per client: cancel any pending one (e.g. armed
        # re-entrantly by a resend inside _on_retry_timer) before arming.
        if self._retry_timer is not None and self._retry_timer.active:
            self._retry_timer.cancel()
        delay = deadline - self.sim.now
        self._retry_timer = self.set_timer(delay if delay > 0.0 else 0.0, self._on_retry_timer)

    def _on_retry_timer(self) -> None:
        # The fired timer is spent; clear the handle so resends scheduled
        # inside the loop below may arm a fresh one (the final _arm call
        # cancels it again, keeping exactly one live timer).
        self._retry_timer = None
        now = self.sim.now
        while (head := self._live_head()) is not None:
            deadline, tx_id, state = head
            if deadline > now:
                self._arm_retry_timer(deadline)
                return
            self._retry_deadlines.popleft()
            self._resend(state, tx_id)
        # Deque drained; a timer armed re-entrantly (if any) stays owned.

    def _live_head(self) -> tuple[float, str, _Outstanding] | None:
        """The retry deque's first live entry, once the dead ones before it
        (completed, or superseded by a later resend of the same tx) are gone."""
        deadlines = self._retry_deadlines
        outstanding = self._outstanding
        while deadlines:
            deadline, tx_id = deadlines[0]
            state = outstanding.get(tx_id)
            if state is not None and deadline == state.resend_deadline:
                return deadline, tx_id, state
            deadlines.popleft()
        return None

    def _resend(self, state: _Outstanding, tx_id: str) -> None:
        state.attempts += 1
        self.resubmissions += 1
        if self.fallback_targets is not None:
            state.target = self.fallback_targets(state.transaction, state.attempts)
        request = ClientRequest(
            transaction=state.transaction,
            client=state.transaction.client,
            timestamp=state.submitted_at,
            reply_to=self.pid,
        )
        self.send(state.target, request)
        self._schedule_resend(state, tx_id)

    # ------------------------------------------------------------------
    # handling replies (table-driven; see Process.on_message)
    # ------------------------------------------------------------------
    def _on_reply(self, message: ClientReply, src: int) -> None:
        state = self._outstanding.get(message.tx_id)
        if state is None:
            return
        state.repliers.add(src)
        if message.success:
            state.successes += 1
        if len(state.repliers) < self.required_replies:
            return
        # Completed: enough distinct replicas confirmed execution.  The
        # retry deque's leading dead entries go now; the timer keeps its
        # deadline and skips any later dead one when it fires.
        del self._outstanding[message.tx_id]
        self._live_head()
        self.completed += 1
        if state.successes == 0:
            self.failed += 1
        self.metrics.record_commit(
            tx_id=message.tx_id,
            submitted_at=state.submitted_at,
            committed_at=self.sim.now,
            cross_shard=state.cross_shard,
        )
        self.recorder.phase(self.sim.now, message.tx_id, "reply", self.pid)
        self._issue_next()

    @property
    def outstanding(self) -> int:
        """Number of requests currently awaiting replies."""
        return len(self._outstanding)

