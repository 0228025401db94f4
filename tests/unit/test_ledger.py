"""Unit tests for blocks, per-cluster views, the DAG, and audits."""

import pytest

from repro.common.errors import ForkError, HashChainError, LedgerError, UnknownBlockError
from repro.ledger.block import Block
from repro.ledger.dag import BlockDAG
from repro.ledger.validation import audit_views, check_pairwise_cross_order
from repro.ledger.view import ClusterView
from repro.txn.transaction import Transaction


def tx(source=1, destination=2, amount=1):
    return Transaction.transfer(client=source % 8, source=source, destination=destination, amount=amount)


def intra_block(cluster, position, parent, transaction=None):
    return Block.create(
        transaction or tx(),
        positions={cluster: position},
        proposer=cluster,
        parents={cluster: parent},
    )


def chained(block, view):
    """``block`` as ``view`` appends it: same identity, the view's head as parent."""
    return Block.create(
        block.transactions,
        positions=dict(block.positions),
        proposer=block.proposer,
        parents={view.cluster_id: view.head_hash},
    )


class TestBlock:
    def test_genesis(self):
        genesis = Block.genesis()
        assert genesis.is_genesis
        assert genesis.label() == "λ"
        assert Block.genesis().block_hash == genesis.block_hash

    def test_intra_block_properties(self):
        block = intra_block(0, 1, Block.genesis().block_hash)
        assert not block.is_cross_shard
        assert block.involved_clusters == frozenset({0})
        assert block.position_for(0) == 1
        assert block.involves(0) and not block.involves(1)

    def test_cross_block_properties(self):
        block = Block.create(tx(1, 15), positions={0: 3, 1: 7}, proposer=0)
        assert block.is_cross_shard
        assert block.involved_clusters == frozenset({0, 1})
        assert block.position_for(1) == 7
        with pytest.raises(LedgerError):
            block.position_for(2)

    def test_hash_covers_positions_and_transactions(self):
        transaction = tx()
        a = Block.create(transaction, positions={0: 1}, proposer=0)
        b = Block.create(transaction, positions={0: 2}, proposer=0)
        c = Block.create(tx(3, 4), positions={0: 1}, proposer=0)
        assert a.block_hash != b.block_hash
        assert a.block_hash != c.block_hash

    def test_hash_ignores_parent_metadata(self):
        transaction = tx()
        bare = Block.create(transaction, positions={0: 1, 1: 2}, proposer=0)
        parented = Block.create(
            transaction, positions={0: 1, 1: 2}, proposer=0, parents={0: "f" * 64}
        )
        assert bare.block_hash == parented.block_hash
        assert parented.parent_for(0) == "f" * 64

    def test_positions_start_at_one(self):
        with pytest.raises(LedgerError):
            Block.create(tx(), positions={0: 0}, proposer=0)

    def test_noop_block(self):
        block = Block.noop(positions={0: 4}, proposer=0)
        assert block.is_noop and not block.transactions
        assert block.tx_ids == ()

    def test_transaction_accessor_requires_single_tx(self):
        block = Block.noop(positions={0: 1}, proposer=0)
        with pytest.raises(LedgerError):
            _ = block.transaction

    def test_parents_must_be_subset_of_positions(self):
        with pytest.raises(LedgerError):
            Block.create(tx(), positions={0: 1}, proposer=0, parents={1: "a" * 64})

    def test_label_uses_paper_notation(self):
        block = Block.create(tx(1, 15), positions={0: 2, 1: 2}, proposer=0)
        assert block.label() == "t[1_2,2_2]"


class TestClusterView:
    def test_append_chain(self):
        view = ClusterView(0)
        first = intra_block(0, 1, view.head_hash)
        view.append(first)
        second = intra_block(0, 2, view.head_hash)
        view.append(second)
        assert view.height == 2
        assert view.head is second
        assert view.contains_tx(first.tx_ids[0])
        assert view.position_of_tx(second.tx_ids[0]) == 2
        view.verify()

    def test_wrong_position_rejected(self):
        view = ClusterView(0)
        with pytest.raises(ForkError):
            view.append(intra_block(0, 2, view.head_hash))

    def test_wrong_parent_rejected(self):
        view = ClusterView(0)
        with pytest.raises(HashChainError):
            view.append(intra_block(0, 1, "0" * 64))

    def test_duplicate_transaction_rejected(self):
        view = ClusterView(0)
        transaction = tx()
        view.append(intra_block(0, 1, view.head_hash, transaction))
        with pytest.raises(ForkError):
            view.append(intra_block(0, 2, view.head_hash, transaction))

    def test_block_for_other_cluster_rejected(self):
        view = ClusterView(0)
        foreign = Block.create(tx(15, 16), positions={1: 1}, proposer=1, parents={1: view.head_hash})
        with pytest.raises(LedgerError):
            view.append(foreign)

    def test_lookup_errors(self):
        view = ClusterView(0)
        with pytest.raises(UnknownBlockError):
            view.block_at(5)
        with pytest.raises(UnknownBlockError):
            view.position_of_tx("missing")

    def test_cross_shard_blocks_listing(self):
        view = ClusterView(0)
        view.append(intra_block(0, 1, view.head_hash))
        cross = Block.create(tx(1, 15), positions={0: 2, 1: 5}, proposer=0, parents={0: view.head_hash})
        view.append(cross)
        assert view.cross_shard_blocks() == [cross]

    def test_holds_tx_at_survives_pruning(self):
        view = ClusterView(0)
        first = intra_block(0, 1, view.head_hash)
        view.append(first)
        view.append(intra_block(0, 2, view.head_hash))
        view.prune(2)
        assert view.holds_tx_at(first.tx_ids[0], 1)
        assert not view.holds_tx_at(first.tx_ids[0], 2)
        assert not view.holds_tx_at("missing", 1)


def build_two_cluster_views():
    """Two views sharing one cross-shard block, mirroring Figure 2."""
    view0, view1 = ClusterView(0), ClusterView(1)
    view0.append(intra_block(0, 1, view0.head_hash, tx(1, 2)))
    view1.append(intra_block(1, 1, view1.head_hash, tx(15, 16)))
    cross = Block.create(tx(3, 17), positions={0: 2, 1: 2}, proposer=0)
    view0.append(chained(cross, view0))
    view1.append(chained(cross, view1))
    view0.append(intra_block(0, 3, view0.head_hash, tx(4, 5)))
    return view0, view1, cross


class TestBlockDAG:
    def test_union_of_views(self):
        view0, view1, cross = build_two_cluster_views()
        dag = BlockDAG.from_views([view0, view1])
        assert len(dag) == 4  # 3 intra + 1 shared cross block
        assert dag.equals_union_of({0: view0, 1: view1})
        dag.verify()

    def test_chain_extraction(self):
        view0, view1, cross = build_two_cluster_views()
        dag = BlockDAG.from_views([view0, view1])
        chain0 = dag.chain_of(0)
        assert [block.position_for(0) for block in chain0] == [1, 2, 3]
        assert cross.block_hash in {block.block_hash for block in chain0}
        assert dag.block_at(1, 2).block_hash == cross.block_hash

    def test_parents_and_children(self):
        view0, view1, cross = build_two_cluster_views()
        dag = BlockDAG.from_views([view0, view1])
        cross_parents = dag.parents(cross.block_hash)
        assert len(cross_parents) == 2
        genesis_children = dag.children(dag.genesis.block_hash)
        assert len(genesis_children) == 2

    def test_fork_detection(self):
        dag = BlockDAG()
        dag.add_block(Block.create(tx(1, 2), positions={0: 1}, proposer=0))
        with pytest.raises(ForkError):
            dag.add_block(Block.create(tx(3, 4), positions={0: 1}, proposer=0))

    def test_cycle_detection(self):
        # Cluster 0 orders A before B, cluster 1 orders B before A.
        a = Block.create(tx(1, 15), positions={0: 1, 1: 2}, proposer=0)
        b = Block.create(tx(2, 16), positions={0: 2, 1: 1}, proposer=0)
        dag = BlockDAG()
        dag.add_block(a)
        dag.add_block(b)
        assert dag.has_commit_order_cycle()
        with pytest.raises(LedgerError):
            dag.topological_order()

    def test_missing_block_lookup(self):
        dag = BlockDAG()
        with pytest.raises(UnknownBlockError):
            dag.block("b" * 64)
        with pytest.raises(UnknownBlockError):
            dag.block_at(0, 1)


class TestAudit:
    def test_consistent_views_pass(self):
        view0, view1, _ = build_two_cluster_views()
        report = audit_views({0: view0, 1: view1})
        assert report.ok
        assert report.cross_shard_blocks == 1
        assert report.intra_shard_blocks == 3
        report.raise_if_failed()

    def test_missing_cross_block_detected(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        cross = Block.create(tx(1, 15), positions={0: 1, 1: 1}, proposer=0)
        view0.append(chained(cross, view0))
        # view1 never appends the cross block.
        report = audit_views({0: view0, 1: view1})
        assert not report.ok
        with pytest.raises(LedgerError):
            report.raise_if_failed()

    def test_pairwise_order_mismatch_detected(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        a = Block.create(tx(1, 15), positions={0: 1, 1: 2}, proposer=0)
        b = Block.create(tx(2, 16), positions={0: 2, 1: 1}, proposer=0)
        view0.append(chained(a, view0))
        view0.append(chained(b, view0))
        view1.append(chained(b, view1))
        view1.append(chained(a, view1))
        problems = check_pairwise_cross_order(view0, view1)
        assert any("differently" in problem for problem in problems)

    def test_pairwise_order_tolerates_a_shared_block_the_other_view_pruned(self):
        view0, view1, cross = build_two_cluster_views()
        view1.append(intra_block(1, 3, view1.head_hash, tx(18, 19)))
        view1.prune(3)  # view 1 drops the cross block object; view 0 still retains it
        assert cross.block_hash not in {block.block_hash for block in view1.cross_shard_blocks()}
        assert check_pairwise_cross_order(view0, view1) == []
        assert audit_views({0: view0, 1: view1}).ok


class TestPrunedHistoryAudit:
    """What checkpoint GC drops is still judged: the prune-time record."""

    def test_pruned_block_missing_from_an_involved_cluster_is_flagged(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        cross = Block.create(tx(1, 15), positions={0: 1, 1: 1}, proposer=0)
        view0.append(chained(cross, view0))  # view 1 never commits it
        view0.append(intra_block(0, 2, view0.head_hash, tx(2, 3)))
        assert view0.prune(2) == 2  # past view 0's checkpoint: the block object is gone
        assert view0.pruned_cross == {(0, cross.tx_ids[0]): cross.positions}
        report = audit_views({0: view0, 1: view1})
        assert report.problems == [
            f"cross-shard tx {cross.tx_ids[0]} pruned by cluster 0 is missing from cluster 1"
        ]

    def test_pruned_block_held_at_another_position_is_flagged(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        transaction = tx(1, 15)
        cross = Block.create(transaction, positions={0: 1, 1: 1}, proposer=0)
        view0.append(chained(cross, view0))
        view0.append(intra_block(0, 2, view0.head_hash, tx(2, 3)))
        view0.prune(2)
        # View 1 commits the same transaction one position later.
        view1.append(intra_block(1, 1, view1.head_hash, tx(16, 17)))
        view1.append(chained(Block.create(transaction, positions={0: 1, 1: 2}, proposer=0), view1))
        report = audit_views({0: view0, 1: view1})
        assert report.problems == [
            f"cross-shard tx {transaction.tx_id} pruned by cluster 0 sits at position 2 "
            "of cluster 1, not 1"
        ]

    def test_block_pruned_on_both_sides_at_its_positions_passes(self):
        view0, view1, cross = build_two_cluster_views()
        view1.append(intra_block(1, 3, view1.head_hash, tx(18, 19)))
        view0.prune(3)  # the block at 3 stays as the anchor; the cross block at 2 goes
        view1.prune(3)
        assert set(view0.pruned_cross) == {(0, cross.tx_ids[0])}
        assert set(view1.pruned_cross) == {(1, cross.tx_ids[0])}
        assert audit_views({0: view0, 1: view1}).ok

    def test_retained_block_pruned_elsewhere_at_another_position_is_flagged(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        transaction = tx(1, 15)
        view0.append(intra_block(0, 1, view0.head_hash, tx(2, 3)))
        view0.append(chained(Block.create(transaction, positions={0: 2, 1: 1}, proposer=0), view0))
        # View 1 committed the transaction at its position 2, then pruned past it.
        view1.append(intra_block(1, 1, view1.head_hash, tx(16, 17)))
        view1.append(intra_block(1, 2, view1.head_hash, transaction))
        view1.prune(2)
        problems = check_pairwise_cross_order(view0, view1)
        assert problems and "missing from its view" in problems[0]

    def test_prune_records_cross_shard_blocks_only(self):
        view0 = ClusterView(0)
        view0.append(intra_block(0, 1, view0.head_hash, tx(2, 3)))
        batch = (tx(1, 15), tx(4, 16))
        cross = Block.create(batch, positions={0: 2, 1: 1}, proposer=0)
        view0.append(chained(cross, view0))
        view0.append(intra_block(0, 3, view0.head_hash, tx(5, 6)))
        view0.prune(3)
        # One row per transaction of the batched cross-shard block; none for intra blocks.
        assert view0.pruned_cross == {
            (0, transaction.tx_id): cross.positions for transaction in batch
        }

    def test_standalone_views_own_separate_tables(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        assert view0.pruned_cross is not view1.pruned_cross
        view0, view1, cross = build_two_cluster_views()
        view0.prune(3)
        assert view0.pruned_cross == {(0, cross.tx_ids[0]): cross.positions}
        assert view1.pruned_cross == {}

    def test_a_shared_table_is_judged_once(self):
        view0, view1 = ClusterView(0), ClusterView(1)
        view1.pruned_cross = view0.pruned_cross  # as a system wires its views
        cross = Block.create(tx(1, 15), positions={0: 1, 1: 1}, proposer=0)
        view0.append(chained(cross, view0))  # view 1 never commits it
        view0.append(intra_block(0, 2, view0.head_hash, tx(2, 3)))
        view0.prune(2)
        assert view1.pruned_cross == {(0, cross.tx_ids[0]): cross.positions}
        report = audit_views({0: view0, 1: view1})
        assert report.problems == [
            f"cross-shard tx {cross.tx_ids[0]} pruned by cluster 0 is missing from cluster 1"
        ]

    def test_rows_naming_a_cluster_outside_the_audit_are_skipped(self):
        view0 = ClusterView(0)
        cross = Block.create(tx(1, 15), positions={0: 1, 1: 1}, proposer=0)
        view0.append(chained(cross, view0))
        view0.append(intra_block(0, 2, view0.head_hash, tx(2, 3)))
        view0.prune(2)
        # Only view 0 is audited: its own coordinate is checked, cluster 1's is not.
        assert audit_views({0: view0}).ok
        view0.pruned_cross[0, cross.tx_ids[0]] = ((0, 2), (1, 1))
        assert audit_views({0: view0}).problems == [
            f"cross-shard tx {cross.tx_ids[0]} pruned by cluster 0 sits at position 1 "
            "of cluster 0, not 2"
        ]
