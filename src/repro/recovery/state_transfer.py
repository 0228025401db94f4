"""State transfer: how a recovered or lagging replica catches up.

A replica that restarts after a crash (``recover_node``), or detects it
fell behind (persistent apply gap, or a peer checkpoint a full interval
beyond its applied height), multicasts a
:class:`~repro.recovery.messages.StateRequest` to its cluster peers.
Each peer answers with its latest stable checkpoint — when newer than
the requester's applied height — plus the suffix of decided slots above
it.  The joiner:

1. verifies the checkpoint digest by recomputing it from the shipped
   snapshot and anchor block, and waits for ``f + 1`` matching members'
   responses in the Byzantine model (one suffices for crash-only
   clusters, where nodes fail but do not lie);
2. installs the snapshot: account store, chain anchor, at-most-once
   transaction index, and the ordering log's low-water mark;
3. replays the decided suffix through the ordinary
   ``log.decide → after_decide`` path (client replies are suppressed
   during replay), reconstructing the exact blocks every other replica
   holds;
4. adopts the helpers' view — the highest view a quorum of distinct
   helpers attests, so one lying helper cannot move the joiner onto a
   never-elected primary — and rejoins consensus.

Without checkpointing (``checkpoint_interval == 0``) the suffix simply
starts at the requester's applied height — full-log replay — so
``recover_node`` turns into a real crash→recover→catch-up→serve cycle
either way.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

from ..consensus.base import HandlerTable, QuorumTracker, attested
from ..consensus.log import EntryStatus, item_digest
from .checkpoint import StableCheckpoint, checkpoint_digest
from .messages import StateRequest, StateResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.replica import SharPerReplica

__all__ = ["StateTransferManager"]


class StateTransferManager(HandlerTable):
    """Serves and consumes checkpoint + suffix state transfers for one replica."""

    HANDLERS = {StateRequest: "_on_request", StateResponse: "_on_response"}

    def __init__(self, host: "SharPerReplica") -> None:
        self.host = host
        self._build_handlers()
        #: matching responses required before trusting a snapshot/entry.
        self.quorum = host.cluster.reply_quorum
        self._cooldown_until = 0.0
        self._round_active = False
        #: This round's tallies.  Snapshots: (checkpoint_seq, digest, tx_index) → helpers.
        #: The tx_index rides in the key because the checkpoint digest
        #: covers only anchor + snapshot: ``f + 1`` matching responses
        #: must match on the at-most-once index too, or one faulty
        #: helper could blind the joiner's duplicate detection.
        self._snapshot_votes: QuorumTracker | None = None
        #: Entries: (slot, digest, positions, proposer) → helpers.  The full
        #: payload is the key — a quorum on (slot, digest) alone would
        #: let the first (possibly faulty) responder supply positions
        #: the honest matchers never vouched for.
        self._entry_votes: QuorumTracker | None = None
        #: member pid → highest view it claimed this round.  The joiner
        #: adopts the highest view a quorum of distinct helpers attests
        #: *at least* (a claim of view ``v`` vouches for every view
        #: below it) — one Byzantine helper inflating its claim can
        #: neither move the joiner onto a never-elected view (the
        #: state-transfer variant of the forged-view attack) nor split
        #: the vote so the honest majority's view goes unadopted.
        self._view_claims: dict[int, int] = {}

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------
    def request_catch_up(self) -> None:
        """Ask the cluster for the latest stable checkpoint and suffix.

        Rate-limited to one round per view-change timeout so gap
        monitoring and checkpoint lag detection cannot flood the
        cluster; an unanswered round simply re-arms on the next trigger.
        """
        host = self.host
        now = host.now
        if now < self._cooldown_until:
            return
        self._cooldown_until = now + host.tuning.view_change_timeout
        self._round_active = True
        members = host.cluster.voter_bits
        self._snapshot_votes = QuorumTracker(self.quorum, members, host.journal)
        self._entry_votes = QuorumTracker(self.quorum, members, host.journal)
        self._view_claims.clear()
        have_seq = host.log.next_apply - 1
        host.journal.note("state_transfer_requested", have_seq)
        host.multicast(host.peers, StateRequest(node=host.node_id, have_seq=have_seq))

    # ------------------------------------------------------------------
    # helper side
    # ------------------------------------------------------------------
    def _on_request(self, message: StateRequest, src: int) -> None:
        host = self.host
        if src not in host.peers:  # one small request must not draw the decided suffix
            host.journal.note("state_request_refused", detail=f"from {src}")
            return
        stable = host.checkpoints.stable
        if stable is not None and stable.seq > message.have_seq:
            base = stable.seq
            digest = stable.digest
            anchor = stable.anchor
            snapshot = stable.snapshot
            tx_index = host.chain.tx_index_upto(base)
        else:
            # No newer checkpoint: the decided suffix alone carries the
            # catch-up (full-log replay when checkpointing is off).
            base = message.have_seq
            digest = ""
            anchor = None
            snapshot = None
            tx_index = ()
        entries = tuple(
            (
                entry.slot,
                entry.digest,
                entry.item,
                tuple(sorted(entry.vector(host.cluster_id).items())),
                entry.proposer,
                entry.view,
            )
            for entry in host.log.entries()
            if entry.slot > base and entry.status is not EntryStatus.PENDING
        )
        host.send(
            src,
            StateResponse(
                checkpoint_seq=base,
                checkpoint_digest=digest,
                node=host.node_id,
                view=host.intra.view,
                anchor=anchor,
                snapshot=snapshot,
                tx_index=tx_index,
                entries=entries,
            ),
        )

    # ------------------------------------------------------------------
    # installing responses
    # ------------------------------------------------------------------
    def _on_response(self, message: StateResponse, src: int) -> None:
        note = self.host.journal.note
        if not self._round_active:
            return
        if src not in self.host.peers:
            note("foreign_vote", detail=f"state response from {src}")
            return
        progressed = False
        if message.snapshot is not None and message.anchor is not None:
            if self._verify_snapshot(message):
                progressed = self._maybe_install_snapshot(message, src) or progressed
            else:
                note("state_transfer_rejected", message.checkpoint_seq, None, f"snapshot from {src}")
                return
        progressed = self._replay_entries(message, src) or progressed
        self._adopt_attested_view(message.view, src)
        if progressed:
            note("state_transfer_completed", self.host.log.next_apply - 1, None, f"from {src}")
            self._round_active = False

    def _adopt_attested_view(self, view: int, src: int) -> None:
        """Adopt the highest view a quorum of helpers attests at least.

        A helper claiming view ``v`` vouches for every view at or below
        ``v``, so the attested view is the quorum-th largest claim —
        helpers reporting *different* views (or one Byzantine helper
        inflating its claim) still let the honest floor through.
        """
        claims = self._view_claims
        previous = claims.get(src)
        if previous is None or view > previous:
            claims[src] = view
        floor = attested(claims.values(), self.quorum)
        host = self.host
        if floor > host.intra.view:
            host.intra.view = floor
            host.intra.on_view_installed(floor)

    def _verify_snapshot(self, message: StateResponse) -> bool:
        """Whether the snapshot is ``int`` ids to ``int`` balances that hash to its digest."""
        anchor_hash = getattr(message.anchor, "block_hash", None)
        snapshot = message.snapshot
        if anchor_hash is None or not isinstance(snapshot, Mapping) or not all(
            type(account) is int and type(balance) is int for account, balance in snapshot.items()
        ):
            return False
        recomputed = checkpoint_digest(
            message.checkpoint_seq, anchor_hash, self.host.store.snapshot_digest(snapshot)
        )
        return recomputed == message.checkpoint_digest

    def _maybe_install_snapshot(self, message: StateResponse, src: int) -> bool:
        host = self.host
        if message.checkpoint_seq <= host.log.next_apply - 1:
            return False
        key = (message.checkpoint_seq, message.checkpoint_digest, message.tx_index)
        if not self._snapshot_votes.vote(key, src):
            return False
        host.store.restore(message.snapshot)
        host.chain.install_anchor(message.anchor, dict(message.tx_index))
        host.log.install_checkpoint(message.checkpoint_seq)
        host.checkpoints.adopt(
            StableCheckpoint(
                seq=message.checkpoint_seq,
                digest=message.checkpoint_digest,
                anchor=message.anchor,
                snapshot=dict(message.snapshot),
            )
        )
        host.journal.note("snapshot_installed", message.checkpoint_seq, message.checkpoint_digest)
        return True

    def _replay_entries(self, message: StateResponse, src: int) -> bool:
        """Decide verified suffix entries; the ordinary apply path runs them."""
        host = self.host
        log = host.log
        decided_any = False
        for slot, digest, item, positions, proposer, view in message.entries:
            if slot <= log.next_apply - 1:
                continue
            entry = log.entry(slot)
            if entry is not None and entry.status is not EntryStatus.PENDING:
                continue
            if item_digest(item) != digest:
                host.journal.note("state_transfer_rejected", slot, digest, f"entry from {src}")
                continue
            if not self._entry_votes.vote((slot, digest, positions, proposer), src):
                continue
            log.decide(
                slot, digest, item,
                positions=dict(positions), proposer=proposer, view=view,
            )
            decided_any = True
        if decided_any:
            host.replay_decided()
        return decided_any
