"""Aggregated recovery counters reported by :class:`repro.api.ScenarioResult`."""

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
    #: state-transfer rounds requested / rounds that made progress /
    #: full snapshots installed.
    state_transfers_requested: int = 0
    state_transfers_completed: int = 0
    snapshots_installed: int = 0
    #: cross-shard termination rounds and their outcomes.
    terminations_started: int = 0
    terminations_adopted: int = 0
    terminations_noop: int = 0
    #: safety red flags (should stay 0 with at most f faults per cluster).
    divergent_checkpoints: int = 0

    def summary(self) -> str:
        """One line suitable for example/CLI output."""
        return (
            f"checkpoints {self.checkpoints_stable} stable "
            f"(max seq {self.max_stable_seq}), "
            f"log peak {self.peak_log_entries} entries "
            f"({self.entries_truncated} truncated, {self.blocks_pruned} blocks pruned), "
            f"state transfers {self.state_transfers_completed}, "
            f"terminations {self.terminations_adopted} adopted / "
            f"{self.terminations_noop} no-op"
        )


def collect_recovery_stats(system: "BaseSystem") -> RecoveryStats | None:
    """Sum the recovery counters over every replica that carries them.

    Returns ``None`` for systems whose replicas have no recovery
    managers (e.g. the single-group baselines), so reports can omit the
    section entirely.
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
        stats.divergent_checkpoints += checkpoints.divergent
        if checkpoints.stable is not None:
            stats.max_stable_seq = max(stats.max_stable_seq, checkpoints.stable.seq)
        stats.peak_log_entries = max(stats.peak_log_entries, process.log.peak_entry_count)
        transfer = process.state_transfer
        stats.state_transfers_requested += transfer.requested
        stats.state_transfers_completed += transfer.completed
        stats.snapshots_installed += transfer.installed
        terminator = process.terminator
        stats.terminations_started += terminator.started
        stats.terminations_adopted += terminator.adopted
        stats.terminations_noop += terminator.noop_filled
    return stats if found else None
