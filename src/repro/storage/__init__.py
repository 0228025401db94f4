"""The replica state store and the archival tier for pruned history.

The package splits replica state management into three layers:

- :mod:`repro.storage.base` — :class:`StateStore`, one shard's balance
  table in flat array columns over the shard's contiguous id range.  It
  maintains an order-independent incremental state digest, so a
  checkpoint costs time proportional to the accounts *touched* since the
  previous checkpoint, not to the store size, and takes lazy
  copy-on-write checkpoint snapshots (:class:`ColumnarSnapshot`).
- :mod:`repro.storage.archive` — the :class:`SqliteArchive` that
  checkpoint GC spills pruned blocks into (stdlib only); attach one with
  ``DeploymentSpec(archive="run.db")``.
- :mod:`repro.storage.audit` — the archive's one reader:
  :func:`audit_archive` re-verifies hash-chain continuity and balance
  conservation without a live system.
"""

from __future__ import annotations

from .archive import SqliteArchive, open_archive
from .audit import ArchiveAuditReport, audit_archive
from .base import ColumnarSnapshot, StateStore, leaf_hash
from .stats import StorageStats, collect_storage_stats

__all__ = [
    "ArchiveAuditReport",
    "ArrayAccountStore",
    "ColumnarSnapshot",
    "SqliteArchive",
    "StateStore",
    "StorageStats",
    "audit_archive",
    "collect_storage_stats",
    "leaf_hash",
    "open_archive",
]


class ArrayAccountStore(StateStore):  # perf-pinned name: ROADMAP item 4(b) deletes it
    pass
