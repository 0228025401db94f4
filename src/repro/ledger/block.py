"""Transaction blocks of the SharPer DAG ledger.

In SharPer each block contains a single transaction (Section 2.3 — the
paper argues batching hurts in permissioned settings; the block-size
ablation benchmark revisits that choice).  A block records, for every
involved cluster:

* the *position* the block occupies in that cluster's chain (the ``o_i``
  subscripts of Figure 2, e.g. ``t_{1_2, 2_2}`` sits at position 2 of
  clusters 1 and 2), and
* the *parent hash* — the cryptographic hash of the previous block the
  cluster was involved in — which is what chains the block into every
  involved cluster's view and makes the global ledger a DAG.

Intra-shard blocks involve exactly one cluster; cross-shard blocks involve
two or more.

Implementation note (see docs/architecture.md, "Substitutions and
interpretations"): consensus agrees on the *position
vector*, so the block identity (:attr:`Block.block_hash`) covers the
transactions, positions and proposer.  Parent hashes are attached by each
appending cluster for its own chain (a cluster cannot know another
cluster's head hash while instances are pipelined) and are validated by
:class:`~repro.ledger.view.ClusterView`; the global DAG derives its edges
from the position vectors, which encode the same predecessor relation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

from ..common.crypto import GENESIS_HASH, chain_hash, memo_slots
from ..common.errors import LedgerError
from ..common.types import ClusterId
from ..txn.transaction import Transaction

__all__ = ["Block", "GENESIS_BLOCK_ID"]

#: Identifier of the unique genesis block ``λ``.
GENESIS_BLOCK_ID = "genesis"


@dataclass(frozen=True, slots=True)
class Block(memo_slots("_block_hash")):
    """One vertex of the blockchain DAG."""

    #: transactions contained in the block (exactly one by default).
    transactions: tuple[Transaction, ...]
    #: per-cluster position of this block in the cluster's chain.
    positions: tuple[tuple[ClusterId, int], ...]
    #: per-cluster hash of the previous block of that cluster (chain
    #: metadata filled by the appending cluster; may cover a subset of the
    #: involved clusters and is not part of the block identity).
    parents: tuple[tuple[ClusterId, str], ...]
    #: cluster whose primary initiated consensus for this block.
    proposer: ClusterId
    #: marks the unique genesis block ``λ``.
    is_genesis: bool = False
    #: marks a gap-filling block that carries no transaction (e.g. a slot
    #: resolved to a no-op during a view change).
    is_noop: bool = False

    def __post_init__(self) -> None:
        if self.is_genesis:
            return
        if not self.transactions and not self.is_noop:
            raise LedgerError("a non-genesis block must contain at least one transaction")
        positions = self.positions
        if len(positions) == 1:
            # Fast path: the vast majority of blocks are intra-shard, so
            # skip the set machinery the general invariants need.
            (cluster, index), = positions
            if index < 1:
                raise LedgerError("block positions start at 1 (position 0 is the genesis)")
            for parent_cluster, _ in self.parents:
                if parent_cluster != cluster:
                    raise LedgerError(
                        "a block may only carry parent hashes for clusters it is positioned in"
                    )
            return
        position_clusters = {cluster for cluster, _ in positions}
        parent_clusters = {cluster for cluster, _ in self.parents}
        if not parent_clusters.issubset(position_clusters):
            raise LedgerError(
                "a block may only carry parent hashes for clusters it is positioned in"
            )
        if not position_clusters:
            raise LedgerError("a block must involve at least one cluster")
        if len(position_clusters) != len(positions):
            raise LedgerError("duplicate cluster in block positions")
        for _, index in positions:
            if index < 1:
                raise LedgerError("block positions start at 1 (position 0 is the genesis)")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def genesis(cls) -> "Block":
        """The unique initialization block ``λ`` shared by every cluster."""
        return cls(
            transactions=(),
            positions=(),
            parents=(),
            proposer=ClusterId(-1),
            is_genesis=True,
        )

    @staticmethod
    def sorted_items(mapping: Mapping | None) -> tuple:
        """Deterministically ordered ``(key, value)`` tuple of a mapping.

        Mappings of one entry — the overwhelmingly common intra-shard case
        — skip the sort.
        """
        if not mapping:
            return ()
        items = tuple(mapping.items())
        return items if len(items) == 1 else tuple(sorted(items))

    @classmethod
    def create(
        cls,
        transaction: Transaction | tuple[Transaction, ...],
        positions: Mapping[ClusterId, int],
        proposer: ClusterId,
        parents: Mapping[ClusterId, str] | None = None,
    ) -> "Block":
        """Build a block from mapping-style arguments.

        ``transaction`` is the block's one transaction, or the tuple of
        transactions a batched slot executed.
        """
        return cls(
            transactions=transaction if isinstance(transaction, tuple) else (transaction,),
            positions=cls.sorted_items(positions),
            parents=cls.sorted_items(parents),
            proposer=proposer,
        )

    @classmethod
    def noop(
        cls,
        positions: Mapping[ClusterId, int],
        proposer: ClusterId,
        parents: Mapping[ClusterId, str] | None = None,
    ) -> "Block":
        """Build an empty gap-filling block."""
        return cls(
            transactions=(),
            positions=cls.sorted_items(positions),
            parents=cls.sorted_items(parents),
            proposer=proposer,
            is_noop=True,
        )

    # ------------------------------------------------------------------
    # derived properties
    # ------------------------------------------------------------------
    @property
    def block_hash(self) -> str:
        """Cryptographic hash identifying the block (``H(t)`` in the paper).

        SHA-256 over an unambiguous flat encoding of the identity fields
        (transaction payload digests, position vector, proposer, no-op
        flag), memoised in the block's slot.  It runs once per block
        object — the encoding is built by hand instead of the generic
        canonical encoder because it sits on the apply hot path.
        """
        cached = getattr(self, "_block_hash", None)
        if cached is None:
            cached = self._hash()
            object.__setattr__(self, "_block_hash", cached)
        return cached

    def _hash(self) -> str:
        if self.is_genesis:
            return chain_hash(GENESIS_BLOCK_ID, GENESIS_HASH)
        transactions = self.transactions
        if len(transactions) == 1:  # the common, unbatched case
            tx_part = transactions[0].payload_digest()
        else:
            tx_part = ",".join(tx.payload_digest() for tx in transactions)
        positions = self.positions
        if len(positions) == 1:  # the common, intra-shard case
            cluster, index = positions[0]
            pos_part = f"{int(cluster)}:{index}"
        else:
            pos_part = ",".join(f"{int(cluster)}:{index}" for cluster, index in positions)
        return hashlib.sha256(
            f"B|{tx_part}|{pos_part}|{int(self.proposer)}|{int(self.is_noop)}".encode()
        ).hexdigest()

    @property
    def transaction(self) -> Transaction:
        """The single transaction of an unbatched block."""
        if len(self.transactions) != 1:
            raise LedgerError(
                f"block {self.block_hash[:8]} holds {len(self.transactions)} transactions"
            )
        return self.transactions[0]

    @property
    def tx_ids(self) -> tuple[str, ...]:
        """Identifiers of the contained transactions."""
        return tuple(tx.tx_id for tx in self.transactions)

    @property
    def involved_clusters(self) -> frozenset[ClusterId]:
        """Clusters that participate in (and store) this block."""
        return frozenset(cluster for cluster, _ in self.positions)

    @property
    def is_cross_shard(self) -> bool:
        """True when more than one cluster is involved."""
        return len(self.involved_clusters) > 1

    def position_for(self, cluster: ClusterId) -> int:
        """Position of this block in ``cluster``'s chain."""
        for candidate, index in self.positions:
            if candidate == cluster:
                return index
        raise LedgerError(f"block {self.block_hash[:8]} does not involve cluster {cluster}")

    def parent_for(self, cluster: ClusterId) -> str:
        """Hash of the previous block of ``cluster`` referenced by this block."""
        for candidate, parent_hash in self.parents:
            if candidate == cluster:
                return parent_hash
        raise LedgerError(f"block {self.block_hash[:8]} does not involve cluster {cluster}")

    def involves(self, cluster: ClusterId) -> bool:
        """Whether ``cluster`` stores this block in its view."""
        return any(candidate == cluster for candidate, _ in self.positions)

    def label(self) -> str:
        """Human-readable label matching the paper's ``t_{o_1,..,o_k}`` notation."""
        if self.is_genesis:
            return "λ"
        subscripts = ",".join(f"{cluster + 1}_{index}" for cluster, index in self.positions)
        return f"t[{subscripts}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.label()} hash={self.block_hash[:8]}>"
