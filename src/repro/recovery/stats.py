"""Aggregated recovery activity reported by :class:`repro.api.ScenarioResult`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem

__all__ = ["RecoveryStats", "collect_recovery_stats"]


@dataclass
class RecoveryStats:
    """System-wide recovery activity for one scenario run (picklable)."""

    #: checkpoints produced / stabilised, summed over all replicas.
    checkpoints_taken: int = 0
    checkpoints_stable: int = 0
    #: ordering-log entries dropped / ledger blocks pruned by compaction.
    entries_truncated: int = 0
    blocks_pruned: int = 0
    #: highest stable checkpoint sequence any replica reached.
    max_stable_seq: int = 0
    #: largest ordering-log entry count any replica ever held — the
    #: number the bounded-memory experiments assert on.
    peak_log_entries: int = 0
    #: state-transfer rounds that made progress / full snapshots installed.
    state_transfers_completed: int = 0
    snapshots_installed: int = 0
    #: safety red flags (should stay 0 with at most f faults per cluster).
    divergent_checkpoints: int = 0

    def summary(self) -> str:
        """One line suitable for example/CLI output."""
        return (
            f"checkpoints {self.checkpoints_stable} stable "
            f"(max seq {self.max_stable_seq}), "
            f"log peak {self.peak_log_entries} entries "
            f"({self.entries_truncated} truncated, {self.blocks_pruned} blocks pruned), "
            f"state transfers {self.state_transfers_completed}"
        )


def collect_recovery_stats(system: "BaseSystem") -> RecoveryStats | None:
    """Sum the recovery counters over every replica that carries them.

    The rare-event fields are the replicas' journal totals.  Returns
    ``None`` for systems whose replicas have no recovery managers (e.g.
    the single-group baselines), so reports can omit the section entirely.
    """
    stats = RecoveryStats()
    found = False
    for process in system.processes():
        checkpoints = getattr(process, "checkpoints", None)
        if checkpoints is None:
            continue
        found = True
        stats.checkpoints_taken += checkpoints.taken
        stats.checkpoints_stable += checkpoints.stabilized
        stats.entries_truncated += checkpoints.entries_truncated
        stats.blocks_pruned += checkpoints.blocks_pruned
        if checkpoints.stable is not None:
            stats.max_stable_seq = max(stats.max_stable_seq, checkpoints.stable.seq)
        stats.peak_log_entries = max(stats.peak_log_entries, process.log.peak_entry_count)
        totals = process.journal.totals
        stats.divergent_checkpoints += totals["checkpoint_divergent"]
        stats.state_transfers_completed += totals["state_transfer_completed"]
        stats.snapshots_installed += totals["snapshot_installed"]
    return stats if found else None
