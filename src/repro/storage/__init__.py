"""The replica state store and the archival tier for pruned history.

The package splits replica state management into two layers:

- :mod:`repro.storage.base` — :class:`StateStore`, one shard's balance
  table in flat array columns over the shard's contiguous id range.  It
  maintains an order-independent incremental state digest, so a
  checkpoint costs time proportional to the accounts *touched* since the
  previous checkpoint, not to the store size, and takes lazy
  copy-on-write checkpoint snapshots (:class:`ColumnarSnapshot`).
- :mod:`repro.storage.archive` — the :class:`SqliteArchive` that
  checkpoint GC spills pruned blocks into (stdlib only); attach one with
  ``DeploymentSpec(archive="run.db")``.  Nothing reads it at run time.

Pruned history is judged live instead: each ledger view records the
cross-shard blocks checkpoint GC drops (``ClusterView.pruned_cross``, one
row per pruned cross-shard transaction per pruning cluster, growing like
the view's transaction index), and the ledger audit checks every row
against the involved clusters' views.
"""

from __future__ import annotations

from .archive import SqliteArchive
from .base import ColumnarSnapshot, StateStore, leaf_hash
from .stats import StorageStats, collect_storage_stats

__all__ = [
    "ArrayAccountStore",
    "ColumnarSnapshot",
    "SqliteArchive",
    "StateStore",
    "StorageStats",
    "collect_storage_stats",
    "leaf_hash",
]


class ArrayAccountStore(StateStore):  # perf-pinned name: ROADMAP item 4(b) deletes it
    pass
