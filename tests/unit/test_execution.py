"""Unit tests for per-shard transaction execution."""

import pytest

from repro.storage import StateStore
from repro.txn.accounts import ShardMapper
from repro.txn.execution import ExecutionResult, TransactionExecutor
from repro.txn.transaction import Transaction, Transfer


@pytest.fixture
def mapper():
    return ShardMapper(num_shards=2, accounts_per_shard=10)


def make_executor(mapper, shard, balance=100):
    store = StateStore.bootstrap(shard, mapper, initial_balance=balance, num_clients=4)
    return TransactionExecutor(store, mapper, shard), store


class TestIntraShardExecution:
    def test_successful_transfer(self, mapper):
        executor, store = make_executor(mapper, 0)
        tx = Transaction.transfer(client=1, source=1, destination=2, amount=30)
        result = executor.execute(tx)
        assert result.success
        assert store.balance(1) == 70
        assert store.balance(2) == 130
        assert store.total_balance() == 100 * 10

    def test_ownership_enforced(self, mapper):
        executor, store = make_executor(mapper, 0)
        tx = Transaction.transfer(client=2, source=1, destination=2, amount=10)
        result = executor.execute(tx)
        assert not result.success
        assert "own" in result.error
        assert store.balance(1) == 100

    def test_insufficient_balance_rejected_atomically(self, mapper):
        executor, store = make_executor(mapper, 0, balance=10)
        tx = Transaction.multi_transfer(
            client=1, transfers=[Transfer(1, 2, 6), Transfer(1, 3, 6)]
        )
        result = executor.execute(tx)
        assert not result.success
        assert store.balance(1) == 10
        assert store.balance(2) == 10

    def test_ownership_can_be_disabled(self, mapper):
        store = StateStore.bootstrap(0, mapper, initial_balance=50)
        executor = TransactionExecutor(store, mapper, 0, enforce_ownership=False)
        tx = Transaction.transfer(client=99, source=1, destination=2, amount=10)
        assert executor.execute(tx).success


class TestCrossShardExecution:
    def test_each_shard_applies_only_its_part(self, mapper):
        executor0, store0 = make_executor(mapper, 0)
        executor1, store1 = make_executor(mapper, 1)
        # account 1 lives in shard 0, account 15 in shard 1.
        tx = Transaction.transfer(client=1, source=1, destination=15, amount=25)
        assert executor0.execute(tx).success
        assert executor1.execute(tx).success
        assert store0.balance(1) == 75
        assert store1.balance(15) == 125
        # Conservation across the union of shards.
        assert store0.total_balance() + store1.total_balance() == 2 * 100 * 10

    def test_shard_without_local_accounts_applies_nothing(self, mapper):
        executor1, store1 = make_executor(mapper, 1)
        tx = Transaction.transfer(client=1, source=1, destination=2, amount=25)
        result = executor1.execute(tx)
        assert result.success
        assert result.applied_transfers == 0
        assert store1.total_balance() == 100 * 10

    def test_counters_track_outcomes(self, mapper):
        executor, _ = make_executor(mapper, 0)
        ok = Transaction.transfer(client=1, source=1, destination=2, amount=1)
        bad = Transaction.transfer(client=3, source=1, destination=2, amount=1)
        executor.execute(ok)
        executor.execute(bad)
        assert executor.executed == 1
        assert executor.failed == 1


class TestExecutionResultParity:
    """The named tuple keeps what the frozen dataclass promised."""

    def test_construction_defaults_and_equality(self):
        by_keyword = ExecutionResult(tx_id="t", success=True, applied_transfers=2)
        positional = ExecutionResult("t", True, 2)
        assert by_keyword == positional and hash(by_keyword) == hash(positional)
        assert by_keyword.error is None
        assert (by_keyword.tx_id, by_keyword.success, by_keyword.applied_transfers) == ("t", True, 2)
        failed = ExecutionResult("t", False, 0, error="why")
        assert failed != by_keyword and failed.error == "why"

    def test_assignment_raises(self):
        result = ExecutionResult("t", True, 1)
        with pytest.raises(AttributeError):
            result.success = False
        with pytest.raises(AttributeError):
            result.extra = 1

    def test_validation_error_texts_are_byte_identical(self, mapper):
        """Recorded at c530f9c, one per way the local part can be invalid."""
        executor, store = make_executor(mapper, 0, balance=10)
        ownership = Transaction.transfer(client=2, source=1, destination=2, amount=1, tx_id="t1")
        assert executor.execute(ownership) == ExecutionResult(
            "t1", False, 0, "client 2 does not own account 1"
        )
        overdraft = Transaction.multi_transfer(
            client=1, transfers=[Transfer(1, 2, 6), Transfer(1, 3, 6)], tx_id="t2"
        )
        assert executor.execute(overdraft) == ExecutionResult(
            "t2", False, 0, "account 1 holds 10 < 12 required by t2"
        )
        # The keyspace puts account 1 in shard 0; a store of shard 1 does not hold it.
        _, other = make_executor(mapper, 1)
        missing = Transaction.transfer(client=1, source=1, destination=2, amount=1, tx_id="t3")
        assert TransactionExecutor(other, mapper, 0).execute(missing) == ExecutionResult(
            "t3", False, 0, "unknown account 1"
        )
        assert executor.failed == 2 and store.total_balance() == 10 * 10

    def test_ownership_is_reported_before_any_balance(self, mapper):
        """Two local sources: the unowned one is named even if it comes second."""
        executor, _ = make_executor(mapper, 0, balance=10)
        tx = Transaction.multi_transfer(
            client=1, transfers=[Transfer(1, 2, 50), Transfer(3, 2, 1)], tx_id="t"
        )
        assert executor.execute(tx).error == "client 1 does not own account 3"

    def test_each_local_source_is_read_once(self, mapper):
        executor, store = make_executor(mapper, 0)
        reads = []
        entry = store.entry
        store.entry = lambda account_id: reads.append(account_id) or entry(account_id)
        tx = Transaction.multi_transfer(
            client=1, transfers=[Transfer(1, 2, 6), Transfer(1, 3, 6), Transfer(5, 15, 1)]
        )
        executor.validate(tx, executor._classify_local(tx))
        assert reads == [1, 5]
