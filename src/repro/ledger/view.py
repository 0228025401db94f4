"""Per-cluster view of the blockchain ledger.

"The entire blockchain ledger is not maintained by any cluster and each
cluster only maintains its own view of the blockchain ledger including
the transactions that access the data shard of the cluster" (Section
2.3).  A :class:`ClusterView` is exactly that: a totally ordered chain of
blocks (intra-shard blocks of the cluster plus the cross-shard blocks the
cluster participates in), rooted at the genesis block ``λ``.

Appending enforces the two properties the paper relies on:

* **total order per shard** — block ``k`` must occupy position ``k`` and
  every position is filled exactly once (no forks, no gaps);
* **hash-chain integrity** — block ``k``'s parent reference for this
  cluster must equal the hash of block ``k-1``.

Stable checkpoints (:mod:`repro.recovery`) *prune* the view: block
objects at positions at or below the checkpoint are removed (bounding
memory for arbitrarily long runs), keeping the checkpointed block as the
chain *anchor* — the hash-chain base for subsequent appends — and the
full transaction index, which keeps answering the at-most-once duplicate
checks for compacted history.  Pruning records every dropped cross-shard
block as one ``(tx_id, position vector)`` row per pruning cluster in
:attr:`ClusterView.pruned_cross`, the table every view of one system
shares, so :func:`repro.ledger.validation.audit_views` still checks that
each involved cluster holds the block at the position its vector names.
The table grows with each pruned cross-shard transaction, like the
transaction index.  With an archive attached (:attr:`ClusterView.archive`,
see :mod:`repro.storage.archive`), the pruned block objects are also
spilled into it before being discarded.  :attr:`ClusterView.height` keeps
counting from genesis, so heights and positions are stable across pruning.
"""

from __future__ import annotations

from typing import Iterator

from ..common.errors import ForkError, HashChainError, LedgerError, UnknownBlockError
from ..common.types import ClusterId
from .block import Block

__all__ = ["ClusterView"]


class ClusterView:
    """The chain of blocks maintained by every node of one cluster."""

    def __init__(self, cluster_id: ClusterId, genesis: Block | None = None) -> None:
        self.cluster_id = cluster_id
        self._genesis = genesis or Block.genesis()
        if not self._genesis.is_genesis:
            raise LedgerError("a ClusterView must be rooted at a genesis block")
        self._blocks: list[Block] = [self._genesis]
        self._by_hash: dict[str, Block] = {self._genesis.block_hash: self._genesis}
        self._tx_index: dict[str, int] = {}
        #: position of ``_blocks[0]`` (0 = genesis; > 0 after pruning,
        #: where ``_blocks[0]`` is the checkpointed anchor block).
        self._base = 0
        #: optional :class:`repro.storage.archive.SqliteArchive` that
        #: :meth:`prune` spills dropped blocks into.
        self.archive = None
        #: ``(pruning cluster, tx_id) -> position vector`` of every pruned
        #: cross-shard block; a system hands all its views one table.
        self.pruned_cross: dict[tuple[ClusterId, str], tuple[tuple[ClusterId, int], ...]] = {}
        #: largest number of block objects this view ever retained.
        self.peak_retained = 1

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def genesis(self) -> Block:
        """The genesis block ``λ``."""
        return self._genesis

    @property
    def height(self) -> int:
        """Number of committed blocks, pruned history included."""
        return self._base + len(self._blocks) - 1

    @property
    def next_index(self) -> int:
        """Position the next appended block must occupy."""
        return self._base + len(self._blocks)

    @property
    def pruned_height(self) -> int:
        """Highest position whose block object may have been pruned away.

        0 for an unpruned view; audits tolerate blocks missing from this
        view when their position here is at or below this mark.
        """
        return self._base

    @property
    def head(self) -> Block:
        """Most recently appended block (the genesis block if empty)."""
        return self._blocks[-1]

    @property
    def head_hash(self) -> str:
        """Hash of the head block — the ``h_i`` carried in protocol messages."""
        return self.head.block_hash

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._by_hash

    def blocks(self, include_genesis: bool = False) -> list[Block]:
        """The retained chain as a list, oldest first.

        Blocks strictly above the prune anchor; ``include_genesis`` also
        includes the anchor itself (the genesis block when unpruned).
        """
        return list(self._blocks) if include_genesis else list(self._blocks[1:])

    def block_at(self, index: int) -> Block:
        """Block occupying position ``index`` (position 0 is the genesis)."""
        offset = index - self._base
        if not 0 <= offset < len(self._blocks):
            raise UnknownBlockError(f"view of cluster {self.cluster_id} has no block at {index}")
        return self._blocks[offset]

    def contains_tx(self, tx_id: str) -> bool:
        """Whether a transaction has been committed in this view."""
        return tx_id in self._tx_index

    def holds_tx_at(self, tx_id: str, position: int) -> bool:
        """Whether ``tx_id`` was committed at ``position``, pruned history included."""
        return self._tx_index.get(tx_id) == position

    def position_of_tx(self, tx_id: str) -> int:
        """Chain position of the block containing ``tx_id``."""
        try:
            return self._tx_index[tx_id]
        except KeyError:
            raise UnknownBlockError(f"transaction {tx_id} not in view of cluster {self.cluster_id}") from None

    def cross_shard_blocks(self) -> list[Block]:
        """All cross-shard blocks of the view, oldest first."""
        return [block for block in self._blocks[1:] if block.is_cross_shard]

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------
    def append(self, block: Block) -> None:
        """Append a committed block, enforcing order and hash chaining.

        Runs once per decided slot per replica, so the position and parent
        references for this cluster are extracted in one pass each instead
        of going through the generic (raising) block accessors.
        """
        if block.is_genesis:
            raise LedgerError("cannot append a second genesis block")
        cluster_id = self.cluster_id
        position = None
        for cluster, index in block.positions:
            if cluster == cluster_id:
                position = index
                break
        if position is None:
            raise LedgerError(
                f"block {block.label()} does not involve cluster {cluster_id}"
            )
        if position != self._base + len(self._blocks):
            raise ForkError(
                f"cluster {cluster_id}: block {block.label()} targets position "
                f"{position} but the next free position is {self.next_index}"
            )
        parent = None
        for cluster, parent_hash in block.parents:
            if cluster == cluster_id:
                parent = parent_hash
                break
        if parent != self._blocks[-1].block_hash:
            reference = "none" if parent is None else parent[:8]
            raise HashChainError(
                f"cluster {cluster_id}: block {block.label()} references parent "
                f"{reference} but the head is {self.head_hash[:8]}"
            )
        tx_index = self._tx_index
        for transaction in block.transactions:
            if transaction.tx_id in tx_index:
                raise ForkError(
                    f"cluster {cluster_id}: transaction {transaction.tx_id} "
                    "is already committed"
                )
        self._blocks.append(block)
        self._by_hash[block.block_hash] = block
        for transaction in block.transactions:
            tx_index[transaction.tx_id] = position
        if len(self._blocks) > self.peak_retained:
            self.peak_retained = len(self._blocks)

    # ------------------------------------------------------------------
    # checkpointing support (repro.recovery)
    # ------------------------------------------------------------------
    def prune(self, upto: int) -> int:
        """Drop block objects at positions ``<= upto`` (stable-checkpoint GC).

        The block at position ``upto`` is retained as the new chain
        anchor (its hash is the parent reference of position ``upto+1``
        and the base for state-transfer verification); the transaction
        index is kept in full so duplicate detection survives pruning.
        Every dropped cross-shard block is recorded in
        :attr:`pruned_cross` for the audit; with :attr:`archive` attached,
        the dropped blocks (minus the genesis block) are also spilled into
        the archive.  Returns the number of block objects dropped.
        """
        upto = min(upto, self.height)
        if upto <= self._base:
            return 0
        keep_from = upto - self._base
        dropped = self._blocks[:keep_from]
        if self.archive is not None:
            self.archive.archive_blocks(
                self.cluster_id,
                [block for block in dropped if not block.is_genesis],
            )
        self._blocks = self._blocks[keep_from:]
        cluster_id = self.cluster_id
        pruned_cross = self.pruned_cross
        for block in dropped:
            self._by_hash.pop(block.block_hash, None)
            positions = block.positions
            if len(positions) > 1:
                for transaction in block.transactions:
                    pruned_cross[cluster_id, transaction.tx_id] = positions
        self._base = upto
        return len(dropped)

    def install_anchor(self, anchor: Block, tx_index: dict[str, int]) -> None:
        """Reset the view onto a state-transferred checkpoint anchor.

        The view becomes a fully pruned chain whose only retained block
        is ``anchor`` (the block at the checkpoint position of this
        cluster's chain); ``tx_index`` supplies the at-most-once index
        for the compacted history.  Subsequent appends chain off the
        anchor exactly as they would on the helper replica.
        """
        position = 0 if anchor.is_genesis else anchor.position_for(self.cluster_id)
        self._blocks = [anchor]
        self._by_hash = {anchor.block_hash: anchor}
        self._tx_index = dict(tx_index)
        self._base = position

    def tx_index_upto(self, position: int) -> tuple[tuple[str, int], ...]:
        """The ``(tx_id, position)`` pairs committed at or below ``position``.

        Shipped with state-transfer snapshots so a joiner's duplicate
        detection covers the history its pruned chain cannot re-derive.
        """
        return tuple(
            (tx_id, index) for tx_id, index in self._tx_index.items() if index <= position
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Re-walk the retained chain and raise if any invariant is violated.

        A pruned view is verified from its anchor: the anchor itself is
        certified by the stable-checkpoint quorum, and every retained
        block above it must chain correctly.
        """
        previous = self._blocks[0]
        if self._base == 0 and not previous.is_genesis:
            raise LedgerError("view does not start at the genesis block")
        for index, block in enumerate(self._blocks[1:], start=self._base + 1):
            if block.position_for(self.cluster_id) != index:
                raise ForkError(
                    f"cluster {self.cluster_id}: block at chain offset {index} claims "
                    f"position {block.position_for(self.cluster_id)}"
                )
            if block.parent_for(self.cluster_id) != previous.block_hash:
                raise HashChainError(
                    f"cluster {self.cluster_id}: hash chain broken at position {index}"
                )
            previous = block
