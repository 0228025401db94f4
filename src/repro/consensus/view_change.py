"""Primary fail-over (view change) for the intra-shard protocols.

The paper (Sections 3.2/3.3) triggers a view change by timeout: a backup
that accepted a proposal starts a timer and suspects the primary if no
commit arrives before it expires.  Replicas exchange ``view-change``
messages; once enough replicas agree, the next primary (round-robin over
the cluster members) installs the new view, re-proposes the uncommitted
slots it learned about, fills unknown gaps with no-ops, and resumes
handling client requests.

View changes are *authenticated*, as in full PBFT: every ``ViewChange``
vote is signed by its sender, and the ``NewView`` that installs the new
primary carries a **certificate** of ``2f + 1`` (Byzantine; ``f + 1``
crash) signed votes for that view.  Backups verify the certificate —
distinct cluster members, matching view, valid signatures — before
adopting the primary, so a Byzantine replica that inflates view numbers
to self-elect (the ``forged-view`` behaviour) is rejected; see
:func:`verify_new_view_certificate`.  Checkpoint proofs are still
summarised rather than carried in full (``ViewChange.checkpoint`` plus
the ``f + 1`` attestation rule in :meth:`_install_as_primary`).
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict, deque
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING, Iterable

from ..common.config import ClusterConfig
from ..common.crypto import Signature
from ..sim.simulator import Timer
from .base import QuorumTracker
from .log import EntryStatus, Noop, item_digest
from .messages import NewView, ViewChange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import ConsensusEngine

__all__ = [
    "ViewChangeManager",
    "sign_view_change",
    "verify_new_view_certificate",
    "verify_view_change_signature",
    "view_change_digest",
]


def view_change_digest(message: ViewChange) -> str:
    """Content digest a view-change signature binds.

    Covers the vote's view, sender, checkpoint, and the (slot, digest)
    pairs of the log summary — the item objects are already bound
    through their digests, so they are not re-canonicalised.
    """
    hasher = hashlib.sha256(
        f"VC|{message.new_view}|{int(message.node)}|{message.checkpoint}".encode()
    )
    for slot, digest in message.decided:
        hasher.update(f"|d{slot}:{digest}".encode())
    for slot, digest, _item in message.accepted:
        hasher.update(f"|a{slot}:{digest}".encode())
    return hasher.hexdigest()


def sign_view_change(message: ViewChange) -> Signature:
    """Produce the sender's signature over a view-change vote."""
    return Signature(signer=int(message.node), payload_digest=view_change_digest(message))


def verify_view_change_signature(message: ViewChange) -> bool:
    """Check that a (possibly relayed) view-change vote is authentic."""
    signature = message.signature
    if signature is None or signature.forged:
        return False
    if signature.signer != int(message.node):
        return False
    return signature.payload_digest == view_change_digest(message)


def verify_new_view_certificate(
    certificate: Iterable[ViewChange], view: int, cluster: ClusterConfig
) -> bool:
    """Whether ``certificate`` proves the election of ``view``'s primary.

    Valid iff at least ``intra_quorum`` *distinct* members of ``cluster``
    contributed an authentic view-change vote for exactly ``view``.
    Votes for other views, from non-members, or with missing/forged/
    mismatching signatures are ignored — a fabricated certificate (the
    ``forged-view`` adversary) can therefore never reach quorum, because
    the forger cannot sign on behalf of correct nodes.
    """
    members = {int(node) for node in cluster.node_ids}
    signers: set[int] = set()
    for vote in certificate:
        if vote.new_view != view:
            continue
        if int(vote.node) not in members:
            continue
        if not verify_view_change_signature(vote):
            continue
        signers.add(int(vote.node))
    return len(signers) >= cluster.intra_quorum


class ViewChangeManager:
    """Drives timer-based primary fail-over for one consensus engine.

    Slot monitoring uses a single rolling timer per engine instead of one
    simulator timer per slot.  Slots are monitored in arming order, so
    their deadlines are monotonically increasing: the timer is armed for
    the earliest monitored deadline, and on firing it lazily skips slots
    that decided in the meantime and re-arms for the next pending
    deadline.  Fire times are identical to the per-slot-timer design, but
    a fault-free run keeps one live timer event per engine instead of one
    per slot — which previously bloated the event heap with tens of
    thousands of cancelled entries per benchmark point.
    """

    def __init__(self, engine: "ConsensusEngine", quorum: int) -> None:
        self.engine = engine
        self._tracker = QuorumTracker(quorum, engine.host.cluster.voter_bits)
        self._reports: dict[int, dict[int, ViewChange]] = defaultdict(dict)
        #: slots currently monitored (accepted but not yet decided).
        self._monitored: set[int] = set()
        #: (deadline, slot) in arming order — deadlines are monotonic.
        self._deadlines: deque[tuple[float, int]] = deque()
        self._timer: Timer | None = None
        self.in_view_change = False
        self.view_changes_completed = 0
        #: view-change votes dropped for bad/missing signatures, and
        #: NewView messages dropped for invalid certificates.
        self.rejected_votes = 0
        self.rejected_new_views = 0

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def monitor_slot(self, slot: int) -> None:
        """Start the commit timer for a slot this replica has accepted."""
        if slot in self._monitored:
            return
        host = self.engine.host
        self._monitored.add(slot)
        deadline = host.now + host.view_change_timeout
        self._deadlines.append((deadline, slot))
        if self._timer is None or not self._timer.active:
            self._arm(deadline)

    def _arm(self, deadline: float) -> None:
        # Single live timer per engine: cancel any pending one (e.g. armed
        # re-entrantly by monitor_slot during _on_timer) before arming.
        if self._timer is not None and self._timer.active:
            self._timer.cancel()
        host = self.engine.host
        delay = deadline - host.now
        self._timer = host.set_timer(delay if delay > 0.0 else 0.0, self._on_timer)

    def slot_decided(self, slot: int) -> None:
        """Stop monitoring a slot once it is decided.

        The deque's leading run of dead entries goes now; one decided out
        of order waits for :meth:`_on_timer` to skip it.  The live timer
        keeps its deadline, so no event moves.
        """
        monitored = self._monitored
        monitored.discard(slot)
        deadlines = self._deadlines
        while deadlines and deadlines[0][1] not in monitored:
            deadlines.popleft()

    def _on_timer(self) -> None:
        # The fired timer is spent; clear the handle so re-entrant
        # monitor_slot calls (suspect → view change → re-propose) may arm
        # a fresh one, which the final _arm call below takes over.
        self._timer = None
        now = self.engine.host.now
        monitored = self._monitored
        deadlines = self._deadlines
        while deadlines:
            deadline, slot = deadlines[0]
            if slot not in monitored:
                deadlines.popleft()
                continue
            if deadline > now:
                self._arm(deadline)
                return
            deadlines.popleft()
            monitored.discard(slot)
            self._on_slot_timeout(slot)
        # Deque drained; a timer armed re-entrantly (if any) stays owned.

    def _on_slot_timeout(self, slot: int) -> None:
        entry = self.engine.host.log.entry(slot)
        if entry is not None and entry.status is not EntryStatus.PENDING:
            return
        self.suspect_primary()

    # ------------------------------------------------------------------
    # initiating a view change
    # ------------------------------------------------------------------
    def suspect_primary(self) -> None:
        """Broadcast a view-change vote for the next view."""
        if self.in_view_change:
            return
        self.in_view_change = True
        new_view = self.engine.view + 1
        host = self.engine.host
        host.recorder.vc_open(
            host.now, int(host.node_id), int(host.cluster.cluster_id), new_view
        )
        message = self._build_view_change(new_view)
        self.engine.host.multicast_cluster(message)
        self.handle_view_change(message, self.engine.host.node_id)

    def _build_view_change(self, new_view: int) -> ViewChange:
        log = self.engine.host.log
        decided = []
        accepted = []
        for entry in log.entries():
            if entry.status is EntryStatus.PENDING:
                accepted.append((entry.slot, entry.digest, entry.item))
            else:
                decided.append((entry.slot, entry.digest))
                accepted.append((entry.slot, entry.digest, entry.item))
        unsigned = ViewChange(
            new_view=new_view,
            node=self.engine.host.node_id,
            decided=tuple(decided),
            accepted=tuple(accepted),
            checkpoint=log.low_water_mark,
        )
        return dataclass_replace(unsigned, signature=sign_view_change(unsigned))

    # ------------------------------------------------------------------
    # handling votes
    # ------------------------------------------------------------------
    def handle_view_change(self, message: ViewChange, src: int) -> None:
        """Record a view-change vote; install the view once quorum is reached.

        Votes are validated before they count (and before they can enter
        a certificate): the claimed ``node`` must be the channel-authenticated
        sender and a member of this cluster, and the signature must verify.
        Otherwise one Byzantine replica could smuggle a vote "from" a correct
        (or another cluster's) node into the stored reports, and a
        certificate built from them would fall below quorum at honest verifiers.
        """
        if message.new_view <= self.engine.view:
            return
        member = src in self._tracker.members
        if int(message.node) != src or not member or not verify_view_change_signature(message):
            self.rejected_votes += 1
            return
        self._reports[message.new_view][src] = message
        if not self._tracker.vote(("vc", message.new_view), src):
            return
        new_primary = self.engine.host.cluster.primary_for_view(message.new_view)
        if self.engine.host.node_id == new_primary:
            self._install_as_primary(message.new_view)

    def handle_new_view(self, message: NewView, src: int) -> None:
        """Adopt a new view announced by its primary — certificate checked.

        The announcement must come from the primary its view elects
        *and* carry a verifying quorum certificate of signed view-change
        votes; a ``forged-view`` adversary fails both the fabricated
        certificate check here and (for relayed claims) the
        cross-cluster verification in
        :meth:`repro.core.replica.SharPerReplica._on_new_view_announcement`.
        """
        if message.view <= self.engine.view:
            return
        if src != self.engine.host.cluster.primary_for_view(message.view):
            return
        if not verify_new_view_certificate(
            message.certificate, message.view, self.engine.host.cluster
        ):
            self.rejected_new_views += 1
            return
        self._enter_view(message.view)

    # ------------------------------------------------------------------
    # installing the new view
    # ------------------------------------------------------------------
    def _enter_view(self, view: int) -> None:
        self.engine.view = view
        self.in_view_change = False
        self.view_changes_completed += 1
        host = self.engine.host
        host.recorder.vc_close(host.now, int(host.node_id), view)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._monitored.clear()
        self._deadlines.clear()
        # Reports for installed (and skipped) views can never be
        # consulted again; dropping them keeps long churny runs bounded.
        for stale in [reported for reported in self._reports if reported <= view]:
            del self._reports[stale]
        self.engine.on_view_installed(view)
        # Hosts may carry view-scoped state of their own (the batching
        # pipeline's in-flight window and queues); give them the same
        # installation signal the engine gets.
        notify = getattr(self.engine.host, "on_intra_view_installed", None)
        if notify is not None:
            notify(view)

    def _install_as_primary(self, view: int) -> None:
        """Become the primary of ``view``: announce it and resolve open slots.

        The ``NewView`` carries the quorum certificate of signed
        view-change votes this primary collected (they were validated on
        receipt), and — when the host participates in cross-shard
        consensus — the same certificate is announced to every other
        cluster so remote nodes update their primary table through an
        authenticated channel instead of trusting bare claims.
        """
        reports = self._reports.get(view, {})
        certificate = tuple(reports.values())
        self._enter_view(view)
        host = self.engine.host
        host.multicast_cluster(
            NewView(view=view, node=host.node_id, entries=(), certificate=certificate)
        )
        announce = getattr(host, "announce_new_view", None)
        if announce is not None:
            announce(view, certificate)

        # Determine what needs re-proposing: every slot up to the highest
        # slot any replica has heard of that this primary has not applied.
        # The scan is anchored on stable checkpoints: nothing at or below
        # the highest reported checkpoint is touched (those slots are
        # certified decided-and-applied cluster-wide), and a primary that
        # finds itself *behind* that anchor fetches the missing state
        # before it could mis-resolve slots it never saw.
        highest = host.log.next_slot - 1
        decided_digest: dict[int, str] = {}
        candidates: dict[int, Counter] = defaultdict(Counter)
        items_by_digest: dict[str, object] = {}
        reported_checkpoints: list[int] = []
        for report in reports.values():
            reported_checkpoints.append(report.checkpoint)
            for slot, digest in report.decided:
                highest = max(highest, slot)
                decided_digest[slot] = digest
            for slot, digest, item in report.accepted:
                highest = max(highest, slot)
                candidates[slot][digest] += 1
                items_by_digest[digest] = item

        # A reported checkpoint is only trusted once f + 1 replicas
        # attest at least that mark (the f+1-th largest value) — one
        # Byzantine replica inflating its ViewChange.checkpoint must not
        # be able to suppress re-proposal of live slots.  The local
        # low-water mark is always trusted: it was quorum-certified.
        reported_checkpoints.sort(reverse=True)
        faults = host.cluster.f
        attested = (
            reported_checkpoints[faults] if len(reported_checkpoints) > faults else 0
        )
        stable_floor = max(host.log.low_water_mark, attested)
        if stable_floor > host.log.next_apply - 1:
            transfer = getattr(host, "state_transfer", None)
            if transfer is not None:
                transfer.request_catch_up()

        spans_clusters = getattr(host, "spans_clusters", None)
        terminator = getattr(host, "terminator", None)
        for slot in range(max(host.log.next_apply, stable_floor + 1), highest + 1):
            entry = host.log.entry(slot)
            if entry is not None and entry.status is not EntryStatus.PENDING:
                continue
            if slot in decided_digest and decided_digest[slot] in items_by_digest:
                item = items_by_digest[decided_digest[slot]]
                if spans_clusters is not None and spans_clusters(item):
                    # Some replica reported this slot DECIDED as a
                    # cross-shard instance: its all-to-all commit (with
                    # the full position vector) is still in flight to
                    # us.  Re-proposing anything here — the item (which
                    # would intra-ize it) or a no-op — would conflict
                    # with that decision and fork correct replicas.
                    # Run a termination round to fetch the decision
                    # actively (the late commit remains a fallback).
                    if terminator is not None:
                        terminator.begin(slot, item, view)
                    continue
            else:
                if entry is not None:
                    item = entry.item
                elif candidates.get(slot):
                    best_digest, _ = candidates[slot].most_common(1)[0]
                    item = items_by_digest[best_digest]
                else:
                    item = Noop(reason=f"view-change-{view}-slot-{slot}")
                if spans_clusters is not None and spans_clusters(item):
                    # A merely *pending* cross-shard request must not be
                    # re-proposed through intra-shard consensus:
                    # committing it with a single-cluster position
                    # vector would execute only the local transfers and
                    # silently break cross-shard atomicity (money
                    # minted or lost).  A termination round checks the
                    # involved clusters for a commit quorum that formed
                    # just before this view change and adopts it —
                    # closing the race the immediate no-op fill used to
                    # run — and only no-op-fills the slot when no
                    # decision evidence exists anywhere.
                    if terminator is not None:
                        terminator.begin(slot, item, view)
                        continue
                    item = Noop(reason=f"view-change-{view}-cross-slot-{slot}")
            host.log.observe(slot)
            self.engine.propose_at(slot, item)
