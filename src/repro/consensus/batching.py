"""Primary-side request batching and bounded slot pipelining.

Without batching, every client request is proposed the moment it reaches
the primary: one consensus slot — one pre-prepare/accept signature, one
quorum-tracking entry, one apply-loop dispatch, one block — per
transaction.  Peak throughput is then bounded by that per-slot protocol
overhead, not by execution.  :class:`BatchPipeline` amortises it:

* **Batching** — requests arriving while the in-flight window is full
  queue at the primary; when a slot frees up, the backlog drains in
  chunks of up to ``ProtocolTuning.batch_size`` requests wrapped into a
  single :class:`~repro.consensus.messages.RequestBatch`, which flows
  through the unmodified intra-/cross-shard engines as one ordered item.
  A chunk of one proposes the bare request unwrapped, so lightly loaded
  clusters produce exactly the slots, digests, and blocks of the
  unbatched protocol.
* **Pipelining** — up to ``ProtocolTuning.pipeline_depth`` batched slots
  may be in flight (proposed, not yet applied) concurrently; slot *k+1*
  gathers votes while *k* is still open, and the
  :class:`~repro.consensus.log.OrderingLog` applies strictly in slot
  order behind the window.

Every replica owns a pipeline and every client request enters through
it, whatever the batch size: there is one submission path.  At the
default ``batch_size = 1`` it degenerates to the paper's protocol — each
request is proposed bare the moment it reaches the primary — because a
chunk of one can never fill and the window is therefore unbounded there
(:attr:`BatchPipeline.window`, the one place that rule is stated;
``pipeline_depth`` binds only when ``batch_size > 1``).

Client retries are absorbed by one rule (:meth:`BatchPipeline._admit`):
a retry of a member that is queued, or rides an in-flight intra-shard
slot, proposes nothing — the queue or the ordering log already carries
it; a retry of a member riding an in-flight *cross-shard* item re-drives
that item through the cross-shard engine, for every batch size.

Window semantics at a view change (see also ``docs/consensus.md``): the
batcher's window and member index are replica-local bookkeeping, not
protocol state.  In-flight batches live in the ordering log and are
carried by :class:`~repro.consensus.messages.ViewChange` summaries like
any other pending item, so the new primary re-proposes or no-op-fills
them through the ordinary view-change path.  On view installation the
host resets its batcher (:meth:`BatchPipeline.on_view_installed`): the
window reopens, queued-but-unproposed requests are forwarded to the new
primary (or re-pumped, if this replica is the new primary), and the
members of both leave the dedup index — a member that ends up ordered
twice across the hand-off is skipped at apply time by the ledger's
transaction index.

Causal tracing (``repro.obs.causal``): the ``seal`` phase a batch member
records is a leaf of the commit DAG — it annotates the member, it does
not re-root its chain.  A request sealed *inside the dispatch that frees
the window* is proposed within that dispatch's causal context, which
belongs to an *earlier* transaction's commit; the critical-path walk
clips there and charges the member a synthetic ``wait`` edge from its
submit to the seal — exactly the time the request spent queued behind
the window.  Deciding-vote bookkeeping is untouched by batching: the
batch flows through the intra-shard engines as one item, so the quorum
that decides the batch slot is the quorum recorded for every member.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from ..common.types import ClusterId
from .log import item_digest
from .messages import ClientRequest, RequestBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.replica import SharPerReplica

__all__ = [
    "BatchPipeline",
    "member_requests",
    "members_all_committed",
]


def member_requests(item: object) -> tuple[ClientRequest, ...]:
    """The client requests an ordered item carries (one, or a batch)."""
    if isinstance(item, RequestBatch):
        return item.requests
    if isinstance(item, ClientRequest):
        return (item,)
    return ()


def members_all_committed(chain, item: object) -> bool:
    """Whether every transaction of ``item`` is already in ``chain``.

    The batch-aware version of the engines' stale-duplicate checks: a
    batch is settled only if *all* its members committed — a partially
    committed batch must still be orderable so its remaining members
    commit (the applied-twice members are skipped at apply time).
    """
    contains = chain.contains_tx
    return all(contains(request.transaction.tx_id) for request in member_requests(item))


class BatchPipeline:
    """Accumulates client requests into batched, pipelined proposals.

    One instance per replica; only the cluster primary ever holds queued
    state.  Intra-shard requests share one queue; cross-shard requests
    are queued per involved-cluster set so every batch spans exactly one
    set and flows through the cross-shard engines with a single position
    vector.
    """

    def __init__(self, host: "SharPerReplica") -> None:
        self.host = host
        tuning = host.tuning
        self.batch_size: int = max(1, tuning.batch_size)
        self.pipeline_depth: int = max(1, tuning.pipeline_depth)
        #: slots that may be in flight at once, per kind (intra / cross).
        #: A chunk of ``batch_size == 1`` can never fill, so queueing
        #: behind a window would only delay it: there the window is
        #: unbounded and every request is proposed as it arrives.
        self.window: float = self.pipeline_depth if self.batch_size > 1 else inf
        self._intra_queue: list[ClientRequest] = []
        self._cross_queues: dict[tuple[ClusterId, ...], list[ClientRequest]] = {}
        #: requests waiting in the queues above.
        self.queued = 0
        #: digest of every member request queued or in flight — the dedup
        #: index that keeps client retries from being ordered twice —
        #: mapped to the in-flight cross-shard item the member rides
        #: (``None`` while it is queued or rides an intra-shard slot).
        self._members: dict[str, object | None] = {}
        #: proposed-item digest → (involved set or None for intra, members).
        self._in_flight: dict[
            str, tuple[tuple[ClusterId, ...] | None, tuple[ClientRequest, ...]]
        ] = {}
        self._intra_in_flight = 0
        self._cross_in_flight = 0
        # observability
        self.batches_proposed = 0
        self.singletons_proposed = 0
        self.batched_requests = 0
        self.max_batch = 0
        self.peak_queue = 0
        self.view_resets = 0

    @property
    def in_flight(self) -> int:
        """Slots proposed here and not yet applied (the used window)."""
        return self._intra_in_flight + self._cross_in_flight

    # ------------------------------------------------------------------
    # intake (primary only; callers route/forward before reaching here)
    # ------------------------------------------------------------------
    def submit_intra(self, request: ClientRequest) -> None:
        """Queue an intra-shard request and propose as the window allows."""
        if self._admit(request):
            self._intra_queue.append(request)
            self._pump_intra()

    def submit_cross(
        self, request: ClientRequest, involved: tuple[ClusterId, ...]
    ) -> None:
        """Queue a cross-shard request on its involved-set lane."""
        if self._admit(request):
            self._cross_queues.setdefault(involved, []).append(request)
            self._pump_cross(involved)

    def _admit(self, request: ClientRequest) -> bool:
        """Index a new request; absorb a retry of one already queued or in flight.

        Proposing a retry again would order (and commit) the transaction
        twice.  A queued member needs nothing more, nor does a member of
        an intra-shard slot — the ordering log carries the slot through
        any view change.  A cross-shard instance lives on its initiator's
        retry timer instead, so the client's retry re-drives the item the
        member rides (re-propose, re-arm), as the engine's own timer
        would.
        """
        digest = item_digest(request)
        members = self._members
        if digest in members:
            riding = members[digest]
            if riding is not None:
                self.host.cross.start(riding)
            return False
        members[digest] = None
        self.queued += 1
        if self.queued > self.peak_queue:
            self.peak_queue = self.queued
        return True

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------
    def _seal(
        self, queue: list[ClientRequest], involved: tuple[ClusterId, ...] | None
    ) -> object:
        """Take the next chunk off ``queue`` and register it in flight."""
        chunk = tuple(queue[: self.batch_size])
        del queue[: self.batch_size]
        self.queued -= len(chunk)
        if len(chunk) == 1:
            # A chunk of one proposes the bare request unwrapped: batching
            # only changes the wire format under load.
            self.singletons_proposed += 1
            item = chunk[0]
        else:
            self.batches_proposed += 1
            self.batched_requests += len(chunk)
            if len(chunk) > self.max_batch:
                self.max_batch = len(chunk)
            item = RequestBatch(requests=chunk)
            self.host.recorder.milestone(self.host, item, "seal")
        self._in_flight[item_digest(item)] = (involved, chunk)
        if involved is not None:
            members = self._members
            for request in chunk:
                members[item_digest(request)] = item
        return item

    def _pump_intra(self) -> None:
        queue = self._intra_queue
        if not queue or not self.host.is_cluster_primary:
            return
        while queue and self._intra_in_flight < self.window:
            item = self._seal(queue, None)
            self._intra_in_flight += 1
            self.host.intra.submit(item)

    def _pump_cross(self, involved: tuple[ClusterId, ...]) -> None:
        queue = self._cross_queues.get(involved)
        if not queue or not self.host.is_cluster_primary:
            return
        while queue and self._cross_in_flight < self.window:
            item = self._seal(queue, involved)
            self._cross_in_flight += 1
            self.host.cross.start(item)
        if not queue:
            self._cross_queues.pop(involved, None)

    def _pump_all_cross(self) -> None:
        for involved in list(self._cross_queues):
            self._pump_cross(involved)

    # ------------------------------------------------------------------
    # window release
    # ------------------------------------------------------------------
    def _release(self, requests) -> None:
        members = self._members
        for request in requests:
            members.pop(item_digest(request), None)

    def item_applied(self, digest: str) -> None:
        """A proposed slot applied (or aborted): free its window entry.

        Called for *every* applied log entry on every replica; only the
        proposing primary has matching in-flight state, so elsewhere this
        is one failed dict lookup.
        """
        info = self._in_flight.pop(digest, None)
        if info is None:
            return
        involved, chunk = info
        self._release(chunk)
        if involved is None:
            self._intra_in_flight -= 1
            self._pump_intra()
        else:
            self._cross_in_flight -= 1
            # The window is shared across involved-set lanes: the freed
            # slot must be offered to every lane, not just the one the
            # applied item came from — its own queue may be empty while
            # another lane is backed up.
            self._pump_all_cross()

    # ------------------------------------------------------------------
    # view changes
    # ------------------------------------------------------------------
    def on_view_installed(self) -> None:
        """Reset window bookkeeping after a view change.

        In-flight batches are protocol state — the view change carried
        them and the new primary re-proposes or no-op-fills their slots —
        so only the replica-local accounting resets here, and their
        members leave the dedup index with them (no ``item_applied``
        will ever match the cleared entries).  Queued requests were
        never proposed anywhere: if this replica is no longer primary
        they are forwarded to the new one (monitored, so a silent
        successor is suspected); if it *is* the new primary the queues
        re-pump into the fresh window.
        """
        self.view_resets += 1
        for _involved, chunk in self._in_flight.values():
            self._release(chunk)
        self._in_flight.clear()
        self._intra_in_flight = 0
        self._cross_in_flight = 0
        host = self.host
        if host.is_cluster_primary:
            self._pump_intra()
            self._pump_all_cross()
            return
        queued: list[ClientRequest] = list(self._intra_queue)
        self._intra_queue.clear()
        for lane in self._cross_queues.values():
            queued.extend(lane)
        self._cross_queues.clear()
        self.queued = 0
        primary = host.primary_pid_of(host.cluster_id)
        self._release(queued)
        for request in queued:
            host._monitor_forwarded_request(request)
            host._forward(request, primary)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counters for reporting (see ``RunStats``)."""
        return {
            "batches_proposed": self.batches_proposed,
            "singletons_proposed": self.singletons_proposed,
            "batched_requests": self.batched_requests,
            "max_batch": self.max_batch,
            "peak_queue": self.peak_queue,
            "view_resets": self.view_resets,
        }
