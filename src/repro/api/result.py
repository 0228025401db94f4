"""Scenario results: performance, safety, and ledger state in one bundle.

A :class:`ScenarioResult` is what :meth:`repro.api.Scenario.run` returns:
the steady-state :class:`~repro.common.metrics.RunStats`, the per-cluster
chain heights, the ledger :class:`~repro.ledger.validation.AuditReport`,
and the balance-conservation check — plus the live system object for
callers that want to inspect replicas directly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..adversary.auditor import SafetyReport
from ..common.errors import ValidationError
from ..common.metrics import RunStats
from ..common.types import ClusterId
from ..ledger.validation import AuditReport
from ..obs import TraceReport
from ..obs.journal import Anomalies
from ..recovery.stats import RecoveryStats
from ..storage.stats import StorageStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem
    from .scenario import Scenario

__all__ = ["ScenarioResult"]


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    #: the scenario that was run.
    scenario: "Scenario"
    #: the live system object (replicas, network, simulator still
    #: inspectable).  ``None`` for detached results — e.g. those returned
    #: from a ``jobs > 1`` worker pool, where the live object graph
    #: (pending events, bound-method callbacks) cannot cross the process
    #: boundary.
    system: "BaseSystem | None"
    #: steady-state performance statistics.
    stats: RunStats
    #: simulated time at which measurement stopped.
    end_time: float
    #: simulated time at which the drained system went idle (None if not drained).
    idle_time: float | None = None
    #: ledger consistency audit (None when the scenario skipped verification).
    audit: AuditReport | None = None
    #: committed chain height per cluster (from the representative views).
    chain_heights: dict[ClusterId, int] = field(default_factory=dict)
    #: observed and expected total balance (None when verification skipped).
    total_balance: int | None = None
    expected_balance: int | None = None
    #: cross-replica safety audit under adversaries (None when skipped —
    #: see :attr:`repro.api.Scenario.audit_safety`).
    safety: SafetyReport | None = None
    #: aggregated checkpoint/state-transfer/termination counters (None
    #: for systems without the recovery subsystem, e.g. some baselines).
    recovery: RecoveryStats | None = None
    #: storage footprint gauges (resident accounts and blocks, archive
    #: growth).
    storage: StorageStats | None = None
    #: flight-recorder report (phase breakdown, spans, gauges); ``None``
    #: unless the scenario armed tracing via ``DeploymentSpec(trace=…)``.
    trace: TraceReport | None = None
    #: every replica's anomaly journal merged in time order, traced or not.
    anomalies: Anomalies = field(default_factory=Anomalies)

    # ------------------------------------------------------------------
    # detachment (multiprocessing support)
    # ------------------------------------------------------------------
    def detach(self) -> "ScenarioResult":
        """A picklable copy of this result without the live system.

        Everything reported — stats, chain heights, audit, balances — is
        retained; only the ``system`` handle is dropped.  Worker processes
        of the parallel bench runner return detached results.
        """
        if self.system is None:
            return self
        return dataclasses.replace(self, system=None)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def balance_conserved(self) -> bool:
        """Whether the total minted balance survived the run intact."""
        if self.total_balance is None or self.expected_balance is None:
            return True
        return self.total_balance == self.expected_balance

    @property
    def ok(self) -> bool:
        """Audits passed (or were skipped) and balances are conserved."""
        audit_ok = self.audit.ok if self.audit is not None else True
        safety_ok = self.safety.ok if self.safety is not None else True
        return audit_ok and safety_ok and self.balance_conserved

    def raise_if_failed(self) -> None:
        """Raise if any audit failed or balances were not conserved."""
        if self.audit is not None:
            self.audit.raise_if_failed()
        if self.safety is not None:
            self.safety.raise_if_failed()
        if not self.balance_conserved:
            raise ValidationError(
                f"balance not conserved: have {self.total_balance}, "
                f"expected {self.expected_balance}"
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        return self.stats.throughput

    @property
    def avg_latency_ms(self) -> float:
        """Average end-to-end latency in milliseconds."""
        return self.stats.avg_latency * 1e3

    def summary(self) -> str:
        """A short human-readable account of the run."""
        lines = [
            f"scenario   : {self.scenario.name or self.scenario.deployment.system}",
            f"committed  : {self.stats.committed} "
            f"({self.stats.committed_cross} cross-shard)",
            f"throughput : {self.stats.throughput:,.0f} tx/s",
            f"latency    : {self.avg_latency_ms:.2f} ms avg, "
            f"{self.stats.p95_latency * 1e3:.2f} ms p95",
        ]
        if self.chain_heights:
            heights = ", ".join(
                f"p{int(cluster_id)}={height}"
                for cluster_id, height in sorted(self.chain_heights.items())
            )
            lines.append(f"chains     : {heights}")
        lines.append(f"anomalies  : {self.anomalies.summary()}")
        if self.audit is not None:
            lines.append(f"audit      : {'OK' if self.audit.ok else self.audit.problems}")
            lines.append(f"balance    : {'conserved' if self.balance_conserved else 'VIOLATED'}")
        if self.safety is not None:
            lines.append(f"safety     : {'OK' if self.safety.ok else self.safety.problems}")
        recovery = self.recovery
        if recovery and (recovery.checkpoints_taken or recovery.state_transfers_completed):
            lines.append(f"recovery   : {self.recovery.summary()}")
        if self.storage is not None:
            lines.append(f"storage    : {self.storage.summary()}")
        if self.trace is not None:
            lines.append(f"trace      : {self.trace.summary()}")
        return "\n".join(lines)
