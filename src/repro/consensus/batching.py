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
  clusters produce exactly the slots, digests, and blocks they produce
  today.
* **Pipelining** — up to ``ProtocolTuning.pipeline_depth`` batched slots
  may be in flight (proposed, not yet applied) concurrently; slot *k+1*
  gathers votes while *k* is still open, and the
  :class:`~repro.consensus.log.OrderingLog` applies strictly in slot
  order behind the window.

The pipeline is **armed only when** ``batch_size > 1``.  At the default
``batch_size = 1`` the replica never constructs one and every request
takes the pre-batching code path bit for bit — which is also why the
window is not enforced there: the legacy behaviour *is* an unbounded
pipeline of single-request slots, and retrofitting a binding window
would change every seed.

Window semantics at a view change (see also ``docs/consensus.md``): the
batcher's window and member index are replica-local bookkeeping, not
protocol state.  In-flight batches live in the ordering log and are
carried by :class:`~repro.consensus.messages.ViewChange` summaries like
any other pending item, so the new primary re-proposes or no-op-fills
them through the ordinary view-change path.  On view installation the
host resets its batcher (:meth:`BatchPipeline.on_view_installed`): the
window reopens, queued-but-unproposed requests are forwarded to the new
primary (or re-pumped, if this replica is the new primary), and the
member index is cleared — a member that ends up ordered twice across the
hand-off is skipped at apply time by the ledger's transaction index.

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
    "screen_members",
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


def screen_members(guard, item: object) -> int:
    """Worst :mod:`~repro.core.guard` verdict across an item's members.

    Cross-shard proposals are screened at every involved cluster; for a
    batch, *all* members must be admissible — a single forged or
    ownership-violating member poisons the whole batch (no correct node
    accepts it, so its quorum never forms and the honest members retry
    through a fresh batch after the initiator gives up).
    """
    from ..core.guard import ADMIT  # local import: core imports consensus

    worst = ADMIT
    for request in member_requests(item):
        verdict = guard.screen(request)
        if verdict != ADMIT:
            worst = max(worst, verdict)
    return worst


class BatchPipeline:
    """Accumulates client requests into batched, pipelined proposals.

    One instance per replica (constructed only when batching is armed);
    only the cluster primary ever holds queued state.  Intra-shard
    requests share one queue; cross-shard requests are queued per
    involved-cluster set so every batch spans exactly one set and flows
    through the cross-shard engines with a single position vector.
    """

    def __init__(self, host: "SharPerReplica") -> None:
        self.host = host
        tuning = host.tuning
        self.batch_size: int = max(1, tuning.batch_size)
        self.pipeline_depth: int = max(1, tuning.pipeline_depth)
        self._intra_queue: list[ClientRequest] = []
        self._cross_queues: dict[tuple[ClusterId, ...], list[ClientRequest]] = {}
        #: digests of member requests currently queued or in flight —
        #: the dedup index that keeps client retries from re-entering
        #: the pipeline while their original is still being ordered.
        self._members: set[str] = set()
        #: proposed-item digest → (involved set or None for intra,
        #: member digests) for window accounting and member release.
        self._in_flight: dict[str, tuple[tuple[ClusterId, ...] | None, tuple[str, ...]]] = {}
        self._intra_in_flight = 0
        self._cross_in_flight = 0
        # observability
        self.batches_proposed = 0
        self.singletons_proposed = 0
        self.batched_requests = 0
        self.max_batch = 0
        self.peak_queue = 0
        self.view_resets = 0

    # ------------------------------------------------------------------
    # intake (primary only; callers route/forward before reaching here)
    # ------------------------------------------------------------------
    def knows(self, digest: str) -> bool:
        """Whether a request with this digest is queued or in flight."""
        return digest in self._members

    def submit_intra(self, request: ClientRequest) -> None:
        """Queue an intra-shard request and propose as the window allows."""
        if not self._admit(request):
            return
        self._intra_queue.append(request)
        self._note_queue_depth()
        self._pump_intra()

    def submit_cross(
        self, request: ClientRequest, involved: tuple[ClusterId, ...]
    ) -> None:
        """Queue a cross-shard request on its involved-set lane."""
        if not self._admit(request):
            return
        self._cross_queues.setdefault(involved, []).append(request)
        self._note_queue_depth()
        self._pump_cross(involved)

    def _admit(self, request: ClientRequest) -> bool:
        digest = item_digest(request)
        if digest in self._members:
            # Retry of a request already queued or riding an in-flight
            # batch: proposing it again would order (and commit) the
            # transaction twice.
            return False
        self._members.add(digest)
        return True

    def _note_queue_depth(self) -> None:
        depth = len(self._intra_queue) + sum(
            len(queue) for queue in self._cross_queues.values()
        )
        if depth > self.peak_queue:
            self.peak_queue = depth

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------
    def _wrap(self, chunk: list[ClientRequest]) -> object:
        if len(chunk) == 1:
            # A queue of one proposes the bare request unwrapped: same
            # digest, same dedup behaviour, same block as the unbatched
            # path — batching only changes the wire format under load.
            self.singletons_proposed += 1
            return chunk[0]
        self.batches_proposed += 1
        self.batched_requests += len(chunk)
        if len(chunk) > self.max_batch:
            self.max_batch = len(chunk)
        batch = RequestBatch(requests=tuple(chunk))
        recorder = self.host.recorder
        if recorder is not None:
            recorder.milestone(self.host.now, int(self.host.node_id), batch, "seal")
        return batch

    def _pump_intra(self) -> None:
        host = self.host
        if not host.is_cluster_primary:
            return
        queue = self._intra_queue
        while queue and self._intra_in_flight < self.pipeline_depth:
            chunk = queue[: self.batch_size]
            del queue[: self.batch_size]
            item = self._wrap(chunk)
            digest = item_digest(item)
            self._in_flight[digest] = (None, tuple(item_digest(r) for r in chunk))
            self._intra_in_flight += 1
            host.intra.submit(item)

    def _pump_cross(self, involved: tuple[ClusterId, ...]) -> None:
        host = self.host
        if not host.is_cluster_primary:
            return
        queue = self._cross_queues.get(involved)
        while queue and self._cross_in_flight < self.pipeline_depth:
            chunk = queue[: self.batch_size]
            del queue[: self.batch_size]
            item = self._wrap(chunk)
            digest = item_digest(item)
            self._in_flight[digest] = (involved, tuple(item_digest(r) for r in chunk))
            self._cross_in_flight += 1
            host.cross.start(item)
        if not queue:
            self._cross_queues.pop(involved, None)

    def _pump_all_cross(self) -> None:
        for involved in list(self._cross_queues):
            self._pump_cross(involved)

    # ------------------------------------------------------------------
    # window release
    # ------------------------------------------------------------------
    def item_applied(self, digest: str) -> None:
        """A proposed slot applied (or aborted): free its window entry.

        Called for *every* applied log entry on every replica; only the
        proposing primary has matching in-flight state, so elsewhere this
        is one failed dict lookup.
        """
        info = self._in_flight.pop(digest, None)
        if info is None:
            return
        involved, members = info
        self._members.difference_update(members)
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
        so only the replica-local accounting resets here.  Queued
        requests were never proposed anywhere: if this replica is no
        longer primary they are forwarded to the new one (monitored, so
        a silent successor is suspected); if it *is* the new primary the
        queues re-pump into the fresh window.
        """
        self.view_resets += 1
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
        primary = host.primary_pid_of(host.cluster_id)
        for request in queued:
            self._members.discard(item_digest(request))
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
