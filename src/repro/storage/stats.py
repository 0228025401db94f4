"""Aggregated storage gauges reported by :class:`repro.api.ScenarioResult`.

Complements :mod:`repro.recovery.stats`: where the recovery counters
show that compaction *ran*, these gauges show what it *cost* — resident
account rows, the largest block count any ledger view ever held
(bounded when checkpoint GC is on), and how much pruned history the
archival tier absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem

__all__ = ["StorageStats", "collect_storage_stats"]


@dataclass
class StorageStats:
    """System-wide storage footprint for one scenario run (picklable)."""

    #: account rows resident across all replica stores (replicated copies
    #: counted individually — this is what the host actually holds).
    resident_accounts: int = 0
    #: largest block count any single ledger view ever retained.
    peak_ledger_blocks: int = 0
    #: blocks currently resident across all ledger views.
    resident_blocks: int = 0
    #: whether an archival backend was attached.
    archived: bool = False
    #: distinct pruned blocks / transaction rows in the archive.
    archive_blocks: int = 0
    archive_tx_rows: int = 0
    #: checkpoint digests recorded for offline audit.
    archive_checkpoints: int = 0
    #: archive size: files on disk, or resident pages of a ``:memory:`` archive.
    archive_bytes: int = 0

    def summary(self) -> str:
        """One line suitable for example/CLI output."""
        line = (
            f"{self.resident_accounts} resident accounts, "
            f"ledger peak {self.peak_ledger_blocks} blocks "
            f"({self.resident_blocks} resident)"
        )
        if self.archived:
            line += (
                f", archive {self.archive_blocks} blocks / "
                f"{self.archive_tx_rows} txs / {self.archive_bytes} bytes"
            )
        return line


def collect_storage_stats(system: "BaseSystem") -> StorageStats:
    """Gauge the storage footprint of a finished system."""
    stats = StorageStats()
    for process in system.processes():
        store = getattr(process, "store", None)
        if store is not None:
            stats.resident_accounts += len(store)
        chain = getattr(process, "chain", None)
        if chain is not None:
            stats.resident_blocks += len(chain)
            stats.peak_ledger_blocks = max(
                stats.peak_ledger_blocks, getattr(chain, "peak_retained", len(chain))
            )
    archive = getattr(system, "archive", None)
    if archive is not None:
        stats.archived = True
        archive.flush()
        stats.archive_blocks = archive.blocks_archived()
        stats.archive_tx_rows = archive.tx_rows_archived()
        stats.archive_checkpoints = archive.checkpoints_archived()
        stats.archive_bytes = archive.size_bytes()
    return stats
