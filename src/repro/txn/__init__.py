"""Account-based transaction model: shard mapping, execution, workloads."""

from .accounts import ShardMapper
from .execution import ExecutionResult, TransactionExecutor
from .transaction import Transaction, Transfer, new_tx_id
from .workload import WorkloadConfig, WorkloadGenerator

__all__ = [
    "ExecutionResult",
    "ShardMapper",
    "Transaction",
    "TransactionExecutor",
    "Transfer",
    "WorkloadConfig",
    "WorkloadGenerator",
    "new_tx_id",
]
