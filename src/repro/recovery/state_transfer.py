"""State transfer: how a recovered or lagging replica catches up.

A replica that restarts after a crash (``recover_node``), or detects it
fell behind (persistent apply gap, or a peer checkpoint a full interval
beyond its applied height), multicasts a
:class:`~repro.recovery.messages.StateRequest` to its cluster peers.
Each peer answers with its latest stable checkpoint — when newer than
the requester's applied height — plus the suffix of decided slots above
it.  The joiner:

1. verifies the checkpoint digest by recomputing it from the shipped
   snapshot and anchor block, and waits for ``f + 1`` matching
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

from typing import TYPE_CHECKING

from ..common.types import FaultModel
from ..consensus.base import HandlerTable
from ..consensus.log import EntryStatus, item_digest
from ..txn.accounts import AccountStore
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
        self.quorum = 1 if host.cluster.fault_model is FaultModel.CRASH else host.cluster.f + 1
        self._cooldown_until = 0.0
        self._round_active = False
        #: (checkpoint_seq, digest, tx_index) → verified helper pids.
        #: The tx_index rides in the key because the checkpoint digest
        #: covers only anchor + snapshot: ``f + 1`` matching responses
        #: must match on the at-most-once index too, or one faulty
        #: helper could blind the joiner's duplicate detection.
        self._snapshot_votes: dict[tuple, set[int]] = {}
        #: (slot, digest, positions, proposer) → helper pids.  The full
        #: payload is the key — a quorum on (slot, digest) alone would
        #: let the first (possibly faulty) responder supply positions
        #: the honest matchers never vouched for.
        self._entry_votes: dict[tuple, set[int]] = {}
        #: helper pid → highest view it claimed this round.  The joiner
        #: adopts the highest view a quorum of distinct helpers attests
        #: *at least* (a claim of view ``v`` vouches for every view
        #: below it) — one Byzantine helper inflating its claim can
        #: neither move the joiner onto a never-elected view (the
        #: state-transfer variant of the forged-view attack) nor split
        #: the vote so the honest majority's view goes unadopted.
        self._view_claims: dict[int, int] = {}
        self.requested = 0
        self.completed = 0
        self.installed = 0
        #: responses whose digest failed recomputation (dropped).
        self.rejected = 0

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
        self._cooldown_until = now + host.view_change_timeout
        self._round_active = True
        self._snapshot_votes.clear()
        self._entry_votes.clear()
        self._view_claims.clear()
        self.requested += 1
        host.multicast_cluster(
            StateRequest(node=host.node_id, have_seq=host.log.next_apply - 1)
        )

    # ------------------------------------------------------------------
    # helper side
    # ------------------------------------------------------------------
    def _on_request(self, message: StateRequest, src: int) -> None:
        host = self.host
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
        host.send_to(
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
        host = self.host
        if not self._round_active:
            return
        progressed = False
        if message.snapshot is not None and message.anchor is not None:
            if self._verify_snapshot(message):
                progressed = self._maybe_install_snapshot(message, src) or progressed
            else:
                self.rejected += 1
                return
        progressed = self._replay_entries(message, src) or progressed
        self._adopt_attested_view(message.view, src)
        if progressed:
            self.completed += 1
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
        if len(claims) < self.quorum:
            return
        ranked = sorted(claims.values(), reverse=True)
        attested = ranked[self.quorum - 1]
        host = self.host
        if attested > host.intra.view:
            host.intra.view = attested
            host.intra.on_view_installed(attested)

    def _verify_snapshot(self, message: StateResponse) -> bool:
        anchor_hash = getattr(message.anchor, "block_hash", None)
        if anchor_hash is None:
            return False
        recomputed = checkpoint_digest(
            message.checkpoint_seq, anchor_hash, AccountStore.snapshot_digest(message.snapshot)
        )
        return recomputed == message.checkpoint_digest

    def _maybe_install_snapshot(self, message: StateResponse, src: int) -> bool:
        host = self.host
        if message.checkpoint_seq <= host.log.next_apply - 1:
            return False
        key = (message.checkpoint_seq, message.checkpoint_digest, message.tx_index)
        voters = self._snapshot_votes.setdefault(key, set())
        voters.add(src)
        if len(voters) < self.quorum:
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
        self.installed += 1
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
                self.rejected += 1
                continue
            key = (slot, digest, positions, proposer)
            voters = self._entry_votes.setdefault(key, set())
            voters.add(src)
            if len(voters) < self.quorum:
                continue
            log.decide(
                slot, digest, item,
                positions=dict(positions), proposer=proposer, view=view,
            )
            decided_any = True
        if decided_any:
            host.replay_decided()
        return decided_any
