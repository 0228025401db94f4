"""Property-based tests for the ledger invariants (hypothesis).

These encode the structural claims of Section 2.3: every cluster view is a
valid hash chain; the global ledger is the union of the views; blocks
shared by two clusters appear in both views; intra-shard blocks of
different clusters are independent.
"""

from hypothesis import given, settings, strategies as st

from repro.common.types import ClusterId
from repro.ledger.block import Block
from repro.ledger.dag import BlockDAG
from repro.ledger.validation import audit_views
from repro.ledger.view import ClusterView
from repro.txn.transaction import Transaction

NUM_CLUSTERS = 3

# A synthetic "schedule": each element is the set of clusters one block involves.
block_involvements = st.lists(
    st.sets(st.integers(min_value=0, max_value=NUM_CLUSTERS - 1), min_size=1, max_size=NUM_CLUSTERS),
    min_size=0,
    max_size=30,
)


def build_views(schedule):
    """Deterministically append one block per schedule entry to the views."""
    views = {ClusterId(c): ClusterView(ClusterId(c)) for c in range(NUM_CLUSTERS)}
    account = 0
    for involved in schedule:
        involved = sorted(involved)
        account += 2
        tx = Transaction.transfer(
            client=1, source=account, destination=account + 1, amount=1
        )
        positions = {ClusterId(c): views[ClusterId(c)].next_index for c in involved}
        for cluster in involved:
            view = views[ClusterId(cluster)]
            view.append(
                Block.create(
                    tx, positions, proposer=ClusterId(involved[0]),
                    parents={view.cluster_id: view.head_hash},
                )
            )
    return views


@settings(max_examples=60, deadline=None)
@given(block_involvements)
def test_views_built_in_schedule_order_always_audit_clean(schedule):
    views = build_views(schedule)
    report = audit_views(views)
    assert report.ok, report.problems
    # Blocks appended in a single global order can never create a cycle.
    assert not report.ordering_cycle


@settings(max_examples=60, deadline=None)
@given(block_involvements)
def test_dag_is_union_of_views(schedule):
    views = build_views(schedule)
    dag = BlockDAG.from_views(views.values())
    assert dag.equals_union_of(views)
    # Total blocks = number of schedule entries (cross blocks counted once).
    assert len(dag) == len(schedule)


@settings(max_examples=60, deadline=None)
@given(block_involvements)
def test_per_cluster_chains_are_contiguous_and_hash_linked(schedule):
    views = build_views(schedule)
    for cluster, view in views.items():
        view.verify()
        previous_hash = view.genesis.block_hash
        for position, block in enumerate(view.blocks(), start=1):
            assert block.position_for(cluster) == position
            assert block.parent_for(cluster) == previous_hash
            previous_hash = block.block_hash


@settings(max_examples=60, deadline=None)
@given(block_involvements)
def test_cross_blocks_present_in_exactly_their_involved_views(schedule):
    views = build_views(schedule)
    dag = BlockDAG.from_views(views.values())
    for block in dag.blocks():
        for cluster, view in views.items():
            if block.involves(cluster):
                assert view.contains_tx(block.tx_ids[0])
            else:
                assert not view.contains_tx(block.tx_ids[0])


@settings(max_examples=40, deadline=None)
@given(block_involvements)
def test_topological_order_respects_every_chain(schedule):
    views = build_views(schedule)
    dag = BlockDAG.from_views(views.values())
    order = {block.block_hash: index for index, block in enumerate(dag.topological_order())}
    for cluster in views:
        chain = dag.chain_of(cluster)
        indices = [order[block.block_hash] for block in chain]
        assert indices == sorted(indices)
