"""The global DAG ledger: the union of all cluster views.

"The blockchain ledger is indeed the union of all these physical views"
(Section 2.3).  No node materialises the full DAG at run time; this module
exists so that tests, audits, and examples can assemble the union of the
per-cluster views, check that it is a well-formed DAG, and query global
orderings — exactly what Figure 2(a) depicts.

Edges of the DAG follow the predecessor relation encoded by each block's
position vector: the parent of a block at position ``s`` of cluster ``p``
is the block at position ``s - 1`` of ``p`` (the genesis block ``λ`` for
``s = 1``).  This matches the hash references each cluster records in its
own view.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping

from ..common.errors import ForkError, LedgerError, UnknownBlockError
from ..common.types import ClusterId
from .block import Block
from .view import ClusterView

__all__ = ["BlockDAG"]


class BlockDAG:
    """A directed acyclic graph of blocks, edges pointing parent → child."""

    def __init__(self, genesis: Block | None = None) -> None:
        self.genesis = genesis or Block.genesis()
        self._blocks: dict[str, Block] = {self.genesis.block_hash: self.genesis}
        self._slot_index: dict[tuple[ClusterId, int], str] = {}
        #: per-cluster position at or below which the owning view pruned
        #: its chain (stable checkpoints, :mod:`repro.recovery`); the
        #: contiguity invariant is only checkable above this floor.
        self.contiguity_floor: dict[ClusterId, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _predecessor_hash(self, cluster: ClusterId, position: int) -> str | None:
        """Hash of the block preceding ``(cluster, position)``, if known."""
        if position <= 1:
            return self.genesis.block_hash
        return self._slot_index.get((cluster, position - 1))

    def add_block(self, block: Block) -> None:
        """Insert a block; rejects forks (two blocks claiming one slot)."""
        if block.is_genesis:
            return
        if block.block_hash in self._blocks:
            existing = self._blocks[block.block_hash]
            if existing.tx_ids != block.tx_ids:
                raise LedgerError("hash collision between two distinct blocks")
            return
        for cluster, position in block.positions:
            occupant = self._slot_index.get((cluster, position))
            if occupant is not None and occupant != block.block_hash:
                raise ForkError(
                    f"two blocks claim position {position} of cluster {cluster}"
                )
        self._blocks[block.block_hash] = block
        for cluster, position in block.positions:
            self._slot_index[(cluster, position)] = block.block_hash

    @classmethod
    def from_views(cls, views: Iterable[ClusterView]) -> "BlockDAG":
        """Assemble the global DAG as the union of the given cluster views."""
        views = list(views)
        dag = cls(genesis=views[0].genesis if views else None)
        for view in views:
            view.verify()
            dag.contiguity_floor[view.cluster_id] = view.pruned_height
            for block in view.blocks():
                dag.add_block(block)
        return dag

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks) - 1  # exclude genesis

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._blocks

    def block(self, block_hash: str) -> Block:
        """Look up a block by hash."""
        try:
            return self._blocks[block_hash]
        except KeyError:
            raise UnknownBlockError(f"block {block_hash[:8]} is not in the DAG") from None

    def block_at(self, cluster: ClusterId, position: int) -> Block:
        """Block occupying ``position`` of ``cluster``'s chain."""
        try:
            return self._blocks[self._slot_index[(cluster, position)]]
        except KeyError:
            raise UnknownBlockError(
                f"no block at position {position} of cluster {cluster}"
            ) from None

    def blocks(self) -> Iterator[Block]:
        """All non-genesis blocks, in insertion order."""
        return (block for block in self._blocks.values() if not block.is_genesis)

    def children(self, block_hash: str) -> frozenset[str]:
        """Hashes of the blocks that directly follow ``block_hash``."""
        block = self.block(block_hash)
        result: set[str] = set()
        if block.is_genesis:
            slots = [(cluster, 1) for cluster in self.clusters()]
        else:
            slots = [(cluster, position + 1) for cluster, position in block.positions]
        for cluster, position in slots:
            successor = self._slot_index.get((cluster, position))
            if successor is not None:
                result.add(successor)
        return frozenset(result)

    def parents(self, block_hash: str) -> frozenset[str]:
        """Hashes of the blocks that directly precede ``block_hash``."""
        block = self.block(block_hash)
        if block.is_genesis:
            return frozenset()
        result = set()
        for cluster, position in block.positions:
            predecessor = self._predecessor_hash(cluster, position)
            if predecessor is not None:
                result.add(predecessor)
        return frozenset(result)

    def cross_shard_blocks(self) -> list[Block]:
        """All cross-shard blocks in the DAG."""
        return [block for block in self.blocks() if block.is_cross_shard]

    def chain_of(self, cluster: ClusterId) -> list[Block]:
        """The totally ordered chain of ``cluster`` extracted from the DAG."""
        chain = [block for block in self.blocks() if block.involves(cluster)]
        chain.sort(key=lambda block: block.position_for(cluster))
        return chain

    def clusters(self) -> frozenset[ClusterId]:
        """All clusters that appear in at least one block."""
        result: set[ClusterId] = set()
        for block in self.blocks():
            result.update(block.involved_clusters)
        return frozenset(result)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Block]:
        """Kahn topological sort; raises :class:`LedgerError` on a cycle."""
        in_degree: dict[str, int] = {block_hash: 0 for block_hash in self._blocks}
        children: dict[str, frozenset[str]] = {}
        for block_hash in self._blocks:
            children[block_hash] = self.children(block_hash)
            if block_hash != self.genesis.block_hash:
                in_degree[block_hash] = len(self.parents(block_hash))
        queue = deque(sorted(h for h, degree in in_degree.items() if degree == 0))
        order: list[Block] = []
        while queue:
            block_hash = queue.popleft()
            order.append(self._blocks[block_hash])
            for child in sorted(children[block_hash]):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._blocks):
            raise LedgerError("the block graph contains a cycle")
        return [block for block in order if not block.is_genesis]

    def has_commit_order_cycle(self) -> bool:
        """Whether the per-cluster orders induce a cross-cluster cycle.

        The pipelined cross-shard implementation guarantees a total order
        per shard and pairwise-consistent ordering of blocks shared by two
        clusters, but (unlike the paper's strict accept-and-block rule)
        does not rule out a cycle spanning three or more clusters.  The
        audit reports this as a statistic rather than a failure; see
        docs/architecture.md ("Substitutions and interpretations").
        """
        try:
            self.topological_order()
        except LedgerError:
            return True
        return False

    def check_contiguity(self) -> None:
        """Check that every cluster's positions form a contiguous range.

        Unpruned views contribute the full range ``1..k``.  Views pruned
        by stable checkpoints (:mod:`repro.recovery`) are only checkable
        above their :attr:`contiguity_floor`: the compacted prefix is
        certified by the checkpoint quorum, and *other* clusters' views
        may still retain scattered old cross-shard blocks positioned
        inside it, which must not be mistaken for gaps.
        """
        for cluster in self.clusters():
            floor = self.contiguity_floor.get(cluster, 0)
            chain = [
                block
                for block in self.chain_of(cluster)
                if block.position_for(cluster) > floor
            ]
            # An unpruned cluster (floor 0) must cover 1..k exactly —
            # a chain starting above 1 is a real gap, not compaction.
            for expected_index, block in enumerate(chain, start=floor + 1):
                actual_index = block.position_for(cluster)
                if actual_index != expected_index:
                    raise LedgerError(
                        f"cluster {cluster}: positions are not contiguous "
                        f"(expected {expected_index}, found {actual_index})"
                    )

    def verify(self) -> None:
        """Check the global invariants of the DAG.

        * per-cluster total order: positions form the contiguous range
          ``1..k`` with exactly one block per position;
        * acyclicity (via topological sort).
        """
        self.check_contiguity()
        self.topological_order()

    def equals_union_of(self, views: Mapping[ClusterId, ClusterView]) -> bool:
        """Check the paper's union property against a set of views."""
        union_hashes = {
            block.block_hash for view in views.values() for block in view.blocks()
        }
        dag_hashes = {block.block_hash for block in self.blocks()}
        return union_hashes == dag_hashes
