"""Property-based tests for the state store, executor, and workload."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.common.errors import InsufficientBalanceError
from repro.storage import StateStore
from repro.storage.base import DIGEST_MASK, leaf_hash, owner_of
from repro.txn.accounts import ShardMapper
from repro.txn.execution import TransactionExecutor
from repro.txn.transaction import Transaction, Transfer
from repro.txn.workload import WorkloadConfig, WorkloadGenerator

NUM_SHARDS = 3
ACCOUNTS_PER_SHARD = 8
TOTAL = NUM_SHARDS * ACCOUNTS_PER_SHARD


def build_shards(initial_balance=1000):
    mapper = ShardMapper(NUM_SHARDS, ACCOUNTS_PER_SHARD)
    executors = {}
    stores = {}
    for shard in range(NUM_SHARDS):
        store = StateStore.bootstrap(
            shard, mapper, initial_balance, num_clients=4,
        )
        stores[shard] = store
        executors[shard] = TransactionExecutor(store, mapper, shard)
    return mapper, stores, executors


transfer_strategy = st.tuples(
    st.integers(min_value=0, max_value=TOTAL - 1),
    st.integers(min_value=0, max_value=TOTAL - 1),
    st.integers(min_value=1, max_value=50),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(transfer_strategy, max_size=40))
def test_total_balance_is_conserved_by_any_transfer_sequence(raw_transfers):
    mapper, stores, executors = build_shards()
    initial_total = sum(store.total_balance() for store in stores.values())
    for source, destination, amount in raw_transfers:
        if source == destination:
            continue
        tx = Transaction.transfer(
            client=source % 4, source=source, destination=destination, amount=amount
        )
        involved = tx.involved_shards(mapper)
        # Apply the transaction at every involved shard, as consensus would.
        results = [executors[shard].execute(tx) for shard in sorted(involved)]
        # A transaction is either applied by every involved shard or by none
        # (the source shard validates; with these balances it always succeeds
        # or fails only on overdraft, in which case we skip the rest).
        if not all(result.success for result in results):
            assume(False)
    assert sum(store.total_balance() for store in stores.values()) == initial_total


@settings(max_examples=60, deadline=None)
@given(st.lists(transfer_strategy, min_size=1, max_size=30))
def test_balances_never_go_negative(raw_transfers):
    mapper, stores, executors = build_shards(initial_balance=20)
    for source, destination, amount in raw_transfers:
        if source == destination:
            continue
        tx = Transaction.transfer(
            client=source % 4, source=source, destination=destination, amount=amount
        )
        for shard in sorted(tx.involved_shards(mapper)):
            executors[shard].execute(tx)
    for store in stores.values():
        for balance in store.snapshot().values():
            assert balance >= 0


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_workload_generator_respects_shard_counts(cross_fraction, shards_per_tx, seed):
    config = WorkloadConfig(
        cross_shard_fraction=cross_fraction,
        shards_per_cross_tx=shards_per_tx,
        accounts_per_shard=16,
        num_clients=8,
    )
    generator = WorkloadGenerator(config, num_shards=4, seed=seed)
    for tx in generator.stream(30):
        shards = tx.involved_shards(generator.mapper)
        assert 1 <= len(shards) <= max(2, shards_per_tx)
        if len(shards) > 1:
            assert len(shards) == shards_per_tx
        # The issuing client owns every source account.
        for transfer in tx.transfers:
            assert tx.client == generator.owner_of(transfer.source)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_workload_is_deterministic_in_the_seed(seed):
    config = WorkloadConfig(cross_shard_fraction=0.4, accounts_per_shard=32)
    first = [
        (tx.transfers, tx.client)
        for tx in WorkloadGenerator(config, num_shards=4, seed=seed).stream(20)
    ]
    second = [
        (tx.transfers, tx.client)
        for tx in WorkloadGenerator(config, num_shards=4, seed=seed).stream(20)
    ]
    assert first == second


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=TOTAL - 1), min_size=1, max_size=10))
def test_shard_mapper_partitions_the_keyspace(accounts):
    mapper = ShardMapper(NUM_SHARDS, ACCOUNTS_PER_SHARD)
    for account in accounts:
        shard = mapper.shard_of(account)
        assert account in mapper.accounts_in_shard(shard)
    # Every account belongs to exactly one shard.
    all_ranges = [set(mapper.accounts_in_shard(s)) for s in range(NUM_SHARDS)]
    union = set().union(*all_ranges)
    assert len(union) == TOTAL


# ---------------------------------------------------------------------------
# The store against a plain-dict model: the oracle the dict backend used to be.
# ---------------------------------------------------------------------------

MODEL_SHARD = 1
MODEL_IDS = ShardMapper(NUM_SHARDS, ACCOUNTS_PER_SHARD).accounts_in_shard(MODEL_SHARD)

#: writes favour two hot accounts, so one account is written in several epochs
account_ids = st.one_of(st.sampled_from(MODEL_IDS[:2]), st.sampled_from(MODEL_IDS))
write_ops = st.one_of(
    st.tuples(st.just("deposit"), account_ids, st.integers(1, 30)),
    st.tuples(st.just("withdraw"), account_ids, st.integers(0, 40)),
)
writes = st.lists(write_ops, min_size=1, max_size=6)
store_ops = st.one_of(
    # Writes and checkpoints twice over: a snapshot must outlive several epochs.
    st.tuples(st.just("writes"), writes),
    st.tuples(st.just("writes"), writes),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("drop"), st.integers(0, 7)),
    st.tuples(st.just("inspect")),
    # Writes right before the copy, so it takes pre-images in flight.
    st.tuples(st.just("clone"), st.booleans(), writes),
    st.tuples(st.just("restore_live"), st.integers(0, 7)),
    st.tuples(
        st.just("restore_table"),
        st.lists(st.integers(0, 60), min_size=ACCOUNTS_PER_SHARD, max_size=ACCOUNTS_PER_SHARD),
    ),
)


def _apply_write(store, model, op):
    """One deposit / withdraw on both; a refused one must change neither."""
    kind, account, amount = op
    balance = model[account]
    if kind == "deposit":
        store.deposit(account, amount)
        model[account] = balance + amount
    elif balance < amount:
        with pytest.raises(InsufficientBalanceError):
            store.withdraw(account, amount)
    else:
        store.withdraw(account, amount)
        model[account] = balance - amount


def _assert_matches(store, model):
    assert store.snapshot() == model
    assert [store.balance(account) for account in MODEL_IDS] == [
        model[account] for account in MODEL_IDS
    ]
    assert store.total_balance() == sum(model.values())
    assert store.state_digest() == store.naive_state_digest() == (
        store.snapshot_digest(store.snapshot())
    )


def _assert_live(live):
    for _, snapshot, copy in live:
        assert dict(snapshot.items()) == copy


@settings(max_examples=200, deadline=None)
@given(st.lists(store_ops, min_size=1, max_size=40))
# A snapshot read after its account was written in two later epochs: the
# oldest pre-image must win, and the frames it needs must be kept.
@example([("checkpoint",), ("writes", [("deposit", 8, 5)]), ("checkpoint",),
          ("writes", [("deposit", 8, 5)]), ("checkpoint",)])
def test_store_tracks_a_plain_dict_model(ops):
    store = StateStore.bootstrap(
        MODEL_SHARD, ShardMapper(NUM_SHARDS, ACCOUNTS_PER_SHARD), 20, num_clients=4,
    )
    model = dict.fromkeys(MODEL_IDS, 20)
    #: live checkpoint snapshots: (seq, lazy snapshot, the model's copy at seq)
    live = []
    seq = 0
    for op in ops:
        kind = op[0]
        if kind == "writes":
            for write in op[1]:
                _apply_write(store, model, write)
        elif kind == "checkpoint":
            seq += 1
            live.append((seq, store.checkpoint_snapshot(seq), dict(model)))
        elif kind == "drop" and live:
            del live[op[1] % len(live)]
        elif kind == "inspect":
            _assert_live(live)
        elif kind == "clone":
            for write in op[2]:
                _apply_write(store, model, write)
            copy = store.clone()
            _assert_matches(copy, model)
            if op[1]:
                store = copy  # earlier snapshots stay with the original
            else:
                copy.deposit(MODEL_IDS[0], 1)
                assert store.snapshot() == model
        elif kind == "restore_live" and live:
            _, snapshot, copy = live[op[1] % len(live)]
            store.restore(snapshot)
            model = dict(copy)
        elif kind == "restore_table":
            model = dict(zip(MODEL_IDS, op[1]))
            store.restore(dict(model))
        _assert_matches(store, model)
    _assert_live(live)


def _expected_digest(model, num_clients):
    """The store digest summed here, leaf by leaf, from an ``id -> balance`` model."""
    leaves = sum(leaf_hash(account, account % num_clients, b) for account, b in model.items())
    return format(leaves & DIGEST_MASK, "064x")


@settings(max_examples=200, deadline=None)
@given(
    num_shards=st.integers(1, 5),
    accounts=st.integers(1, 70),
    num_clients=st.integers(1, 40),
    balance=st.integers(0, 10**12),
    data=st.data(),
)
@example(num_shards=3, accounts=5, num_clients=3, balance=7, data=None)  # first ids 5, 10
@example(num_shards=2, accounts=4, num_clients=4, balance=1, data=None)  # length == clients
@example(num_shards=2, accounts=3, num_clients=8, balance=1, data=None)  # length < clients
@example(num_shards=2, accounts=5, num_clients=8, balance=1, data=None)  # < clients, wraps
@example(num_shards=3, accounts=1024, num_clients=10**6, balance=1, data=None)  # clients >> length
@example(num_shards=4, accounts=9, num_clients=1, balance=2, data=None)  # a single client
def test_owners_and_digests_follow_the_rule_per_account(
    num_shards, accounts, num_clients, balance, data
):
    """Every account's owner is :func:`owner_of` under the store's client count,
    both digests equal a leaf sum over ``(a, a % n, balance)`` computed here, and
    ``total_balance()`` is the column sum — after bootstrap, writes, clone and restore."""
    mapper = ShardMapper(num_shards, accounts)
    shard = num_shards - 1 if data is None else data.draw(st.integers(0, num_shards - 1))
    ids = mapper.accounts_in_shard(shard)
    if data is None:
        writes = [(ids[0], 7), (ids[-1], -1)]
    else:
        writes = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(-9, 9))))
    store = StateStore.bootstrap(shard, mapper, balance, num_clients=num_clients)
    model = dict.fromkeys(ids, balance)

    def check(store, model):
        assert [store.owner(account) for account in ids] == [
            owner_of(account, num_clients) for account in ids
        ]
        assert store.snapshot() == model
        assert store.total_balance() == sum(model.values())
        expected = _expected_digest(model, num_clients)
        assert store.state_digest() == store.naive_state_digest() == expected

    check(store, model)
    for account, amount in writes:
        if amount >= 0:
            store.deposit(account, amount)
        elif model[account] + amount >= 0:
            store.withdraw(account, -amount)
        else:
            continue
        model[account] += amount
    check(store, model)
    copy, copied = store.clone(), dict(model)
    check(copy, copied)
    copy.deposit(ids[-1], 3)
    copied[ids[-1]] += 3
    check(copy, copied)
    model = {account: account % 5 for account in ids}
    store.restore(model)
    check(store, model)
