"""Pluggable state stores and the archival tier for pruned history.

The package splits replica state management into three
layers:

- :mod:`repro.storage.base` / :mod:`repro.storage.dict_store` /
  :mod:`repro.storage.columnar` — the :class:`StateStore` interface and
  its two backends: the original dict-of-objects ``AccountStore`` and
  the flat-column ``ArrayAccountStore`` for million-account shards.
  Both maintain an order-independent incremental state digest, so a
  checkpoint costs time proportional to the accounts *touched* since
  the previous checkpoint, not to the store size.
- :mod:`repro.storage.archive` — the :class:`SqliteArchive` that
  checkpoint GC spills pruned blocks into (stdlib only).
- :mod:`repro.storage.audit` — the archive's one reader:
  :func:`audit_archive` re-verifies hash-chain continuity and balance
  conservation without a live system.

Select a backend per deployment with ``DeploymentSpec(store_backend=
"columnar", archive="run.db")`` or directly via :func:`make_store`.
"""

from __future__ import annotations

from ..common.errors import ConfigurationError
from .archive import SqliteArchive, open_archive
from .audit import ArchiveAuditReport, audit_archive
from .base import Account, StateStore, leaf_hash
from .columnar import ArrayAccountStore, ColumnarSnapshot
from .dict_store import AccountStore
from .stats import StorageStats, collect_storage_stats

__all__ = [
    "Account",
    "AccountStore",
    "ArchiveAuditReport",
    "ArrayAccountStore",
    "ColumnarSnapshot",
    "SqliteArchive",
    "StateStore",
    "StorageStats",
    "STORE_BACKENDS",
    "audit_archive",
    "collect_storage_stats",
    "leaf_hash",
    "make_store",
    "open_archive",
]

#: registry of selectable state-store backends.
STORE_BACKENDS = {
    "dict": AccountStore,
    "columnar": ArrayAccountStore,
}


def make_store(
    backend: str,
    shard,
    mapper,
    initial_balance: int,
    owner_of=None,
) -> StateStore:
    """Bootstrap a shard's state store with the named backend."""
    try:
        cls = STORE_BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown store backend {backend!r}; expected one of "
            f"{sorted(STORE_BACKENDS)}"
        ) from None
    return cls.bootstrap(
        shard=shard, mapper=mapper, initial_balance=initial_balance, owner_of=owner_of
    )
