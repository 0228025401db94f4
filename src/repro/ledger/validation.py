"""Cross-view consistency audits.

These checks encode the safety properties the consensus protocols are
supposed to guarantee; the integration tests and examples run them after
every simulated experiment:

* every cluster view is a valid hash chain (total order per shard);
* every cross-shard block appears in the view of **all and only** its
  involved clusters, and is byte-identical (same hash) everywhere;
* for any two clusters, the cross-shard blocks they share appear in the
  same relative order in both views (the paper's overlapping-cluster
  safety argument, Section 3.2);
* the union of the views is a well-formed DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..common.errors import LedgerError
from ..common.types import ClusterId
from .dag import BlockDAG
from .view import ClusterView

__all__ = ["AuditReport", "audit_views", "check_pairwise_cross_order"]


@dataclass
class AuditReport:
    """Result of a full ledger audit."""

    num_clusters: int
    total_blocks: int
    cross_shard_blocks: int
    intra_shard_blocks: int
    problems: list[str] = field(default_factory=list)
    #: True when the union graph contains a commit-order cycle spanning
    #: three or more clusters.  This is a known relaxation of the paper's
    #: accept-and-block rule (see docs/architecture.md, "Substitutions and
    #: interpretations"), reported separately from the hard safety problems.
    ordering_cycle: bool = False

    @property
    def ok(self) -> bool:
        """True when no consistency problem was found."""
        return not self.problems

    def raise_if_failed(self) -> None:
        """Raise :class:`LedgerError` summarising any problems."""
        if self.problems:
            raise LedgerError("; ".join(self.problems))


def check_pairwise_cross_order(
    view_a: ClusterView, view_b: ClusterView
) -> list[str]:
    """Check that blocks shared by two views appear in the same order.

    Views pruned by stable checkpoints (:mod:`repro.recovery`) may have
    dropped old cross-shard blocks the other view still retains; a block
    is only reported missing when its position in the other view lies
    *above* that view's pruned prefix (for compacted positions the
    retained transaction index already vouched for it at append time).

    Returns a list of human-readable problems (empty when consistent).
    """
    problems: list[str] = []
    shared_a = {
        block.block_hash: block
        for block in view_a.blocks()
        if block.involves(view_b.cluster_id)
    }
    shared_b = {
        block.block_hash: block
        for block in view_b.blocks()
        if block.involves(view_a.cluster_id)
    }
    hashes_a = list(shared_a)
    hashes_b = list(shared_b)
    if set(hashes_a) != set(hashes_b):
        only_a = {
            block_hash
            for block_hash, block in shared_a.items()
            if block_hash not in shared_b
            and block.position_for(view_b.cluster_id) > view_b.pruned_height
        }
        only_b = {
            block_hash
            for block_hash, block in shared_b.items()
            if block_hash not in shared_a
            and block.position_for(view_a.cluster_id) > view_a.pruned_height
        }
        if only_a:
            problems.append(
                f"blocks {sorted(h[:8] for h in only_a)} involve cluster {view_b.cluster_id} "
                f"but are missing from its view"
            )
        if only_b:
            problems.append(
                f"blocks {sorted(h[:8] for h in only_b)} involve cluster {view_a.cluster_id} "
                f"but are missing from its view"
            )
    shared = [h for h in hashes_a if h in set(hashes_b)]
    shared_in_b = [h for h in hashes_b if h in set(hashes_a)]
    if shared != shared_in_b:
        problems.append(
            f"clusters {view_a.cluster_id} and {view_b.cluster_id} order their shared "
            f"cross-shard blocks differently"
        )
    return problems


def audit_views(views: Mapping[ClusterId, ClusterView]) -> AuditReport:
    """Run the full consistency audit over a set of cluster views."""
    problems: list[str] = []
    cross_hashes: set[str] = set()
    intra_count = 0

    # Per-view chain validity.
    for cluster_id, view in views.items():
        try:
            view.verify()
        except LedgerError as exc:
            problems.append(f"cluster {cluster_id}: {exc}")
        for block in view.blocks():
            if block.is_cross_shard:
                cross_hashes.add(block.block_hash)
            else:
                intra_count += 1

    # Cross-shard blocks must appear in all and only their involved clusters.
    for cluster_id, view in views.items():
        for block in view.cross_shard_blocks():
            for involved in block.involved_clusters:
                if involved not in views:
                    continue
                if not views[involved].contains_tx(block.tx_ids[0]):
                    problems.append(
                        f"cross-shard block {block.label()} missing from cluster {involved}"
                    )
            if not block.involves(cluster_id):
                problems.append(
                    f"cluster {cluster_id} stores block {block.label()} it is not involved in"
                )

    # Pairwise ordering of shared blocks.
    cluster_ids: Sequence[ClusterId] = sorted(views)
    for index, first in enumerate(cluster_ids):
        for second in cluster_ids[index + 1 :]:
            problems.extend(check_pairwise_cross_order(views[first], views[second]))

    # The union must form a well-formed graph (no forks, contiguous
    # per-cluster positions, equal to the union of the views).
    ordering_cycle = False
    try:
        dag = BlockDAG.from_views(views.values())
        dag.check_contiguity()
        if not dag.equals_union_of(dict(views)):
            problems.append("the DAG is not the union of the cluster views")
        ordering_cycle = dag.has_commit_order_cycle()
        total_blocks = len(dag)
    except LedgerError as exc:
        problems.append(f"union DAG: {exc}")
        total_blocks = sum(view.height for view in views.values())

    return AuditReport(
        num_clusters=len(views),
        total_blocks=total_blocks,
        cross_shard_blocks=len(cross_hashes),
        intra_shard_blocks=intra_count,
        problems=problems,
        ordering_cycle=ordering_cycle,
    )
