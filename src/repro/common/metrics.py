"""Measurement utilities: latency/throughput statistics and run summaries.

The paper reports *throughput just below saturation* on the x axis and
*average latency during steady state* on the y axis (Section 4).  The
classes here collect per-transaction samples during a simulated run and
summarise them the same way: samples from a warm-up window are discarded
and the remaining steady-state samples produce throughput (committed
transactions per simulated second) and latency percentiles.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["LatencySample", "MetricsCollector", "RunStats", "summarize_latencies"]


@dataclass(frozen=True, slots=True)
class LatencySample:
    """One committed transaction: submission and commit timestamps."""

    tx_id: str
    submitted_at: float
    committed_at: float
    cross_shard: bool = False

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds."""
        return self.committed_at - self.submitted_at


@dataclass
class RunStats:
    """Aggregate results of a single simulated run."""

    duration: float
    committed: int
    aborted: int
    throughput: float
    avg_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    avg_latency_intra: float
    avg_latency_cross: float
    committed_cross: int
    #: cross-shard commits that arrived after their local slot was
    #: otherwise resolved (view-change no-op fill won the race), summed
    #: over every replica.  Filled in by :meth:`repro.api.Scenario.run`;
    #: non-zero values flag the residual atomicity window the
    #: termination protocol (:mod:`repro.recovery`) exists to close.
    late_commits: int = 0
    #: transactions *submitted* over the whole run (offered load); unlike
    #: ``committed`` this is not windowed, so ``committed <= submitted``
    #: even in steady state.  0 for legacy collectors that never counted.
    submitted: int = 0

    @property
    def abort_rate(self) -> float:
        """Aborted transactions as a fraction of the offered load."""
        if self.submitted <= 0:
            return 0.0
        return self.aborted / self.submitted

    def as_dict(self) -> dict[str, float]:
        """Dictionary form, convenient for CSV reporting.

        New columns are only ever appended at the end (the bench CSV
        consumers key on the leading columns staying stable).
        """
        return {
            "duration_s": self.duration,
            "committed": self.committed,
            "aborted": self.aborted,
            "throughput_tps": self.throughput,
            "avg_latency_ms": self.avg_latency * 1e3,
            "p50_latency_ms": self.p50_latency * 1e3,
            "p95_latency_ms": self.p95_latency * 1e3,
            "p99_latency_ms": self.p99_latency * 1e3,
            "avg_latency_intra_ms": self.avg_latency_intra * 1e3,
            "avg_latency_cross_ms": self.avg_latency_cross * 1e3,
            "committed_cross": self.committed_cross,
            "late_commits": self.late_commits,
            "submitted": self.submitted,
            "abort_rate": round(self.abort_rate, 6),
        }

    @staticmethod
    def aggregate(runs: "Sequence[RunStats]") -> "RunStats":
        """Pool several runs of the same configuration into one summary.

        Used by the multi-seed bench runner: counts and durations are
        summed (so the pooled ``throughput`` is total commits over total
        measured time), and latencies are averaged weighted by each run's
        committed count.
        """
        if not runs:
            raise ValueError("cannot aggregate zero runs")
        if len(runs) == 1:
            return runs[0]
        duration = sum(run.duration for run in runs)
        committed = sum(run.committed for run in runs)
        committed_cross = sum(run.committed_cross for run in runs)
        committed_intra = committed - committed_cross

        def weighted(metric, weights) -> float:
            total = sum(weights)
            if total == 0:
                return 0.0
            return sum(value * weight for value, weight in zip(metric, weights)) / total

        by_committed = [run.committed for run in runs]
        return RunStats(
            duration=duration,
            committed=committed,
            aborted=sum(run.aborted for run in runs),
            throughput=committed / duration if duration > 0 else 0.0,
            avg_latency=weighted([run.avg_latency for run in runs], by_committed),
            p50_latency=weighted([run.p50_latency for run in runs], by_committed),
            p95_latency=weighted([run.p95_latency for run in runs], by_committed),
            p99_latency=weighted([run.p99_latency for run in runs], by_committed),
            avg_latency_intra=weighted(
                [run.avg_latency_intra for run in runs],
                [run.committed - run.committed_cross for run in runs],
            )
            if committed_intra
            else 0.0,
            avg_latency_cross=weighted(
                [run.avg_latency_cross for run in runs],
                [run.committed_cross for run in runs],
            )
            if committed_cross
            else 0.0,
            committed_cross=committed_cross,
            late_commits=sum(run.late_commits for run in runs),
            submitted=sum(run.submitted for run in runs),
        )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


def summarize_latencies(latencies: Iterable[float]) -> dict[str, float]:
    """Mean/median/percentile summary of a latency collection (seconds)."""
    values = sorted(latencies)
    if not values:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "mean": statistics.fmean(values),
        "p50": _percentile(values, 0.50),
        "p95": _percentile(values, 0.95),
        "p99": _percentile(values, 0.99),
        "max": values[-1],
    }


@dataclass
class MetricsCollector:
    """Collects per-transaction samples during a simulation run.

    ``warmup`` and ``measure_until`` bound the steady-state window: only
    transactions *submitted* inside ``[warmup, measure_until)`` count
    toward the reported statistics, mirroring the paper's "average
    measured during the steady state of an experiment".
    """

    warmup: float = 0.0
    measure_until: float = math.inf
    samples: list[LatencySample] = field(default_factory=list)
    aborted: int = 0
    submitted: int = 0

    def record_submission(self) -> None:
        """Count a submitted transaction (for offered-load accounting)."""
        self.submitted += 1

    def record_commit(
        self,
        tx_id: str,
        submitted_at: float,
        committed_at: float,
        cross_shard: bool = False,
    ) -> None:
        """Record a committed transaction."""
        self.samples.append(
            LatencySample(
                tx_id=tx_id,
                submitted_at=submitted_at,
                committed_at=committed_at,
                cross_shard=cross_shard,
            )
        )

    def _steady_state(self) -> list[LatencySample]:
        return [
            sample
            for sample in self.samples
            if self.warmup <= sample.submitted_at < self.measure_until
        ]

    def finalize(self, end_time: float) -> RunStats:
        """Summarise the run, measuring throughput over the steady window."""
        steady = self._steady_state()
        window_end = min(end_time, self.measure_until)
        duration = max(window_end - self.warmup, 1e-9)
        latencies = sorted(sample.latency for sample in steady)
        intra = [sample.latency for sample in steady if not sample.cross_shard]
        cross = [sample.latency for sample in steady if sample.cross_shard]
        return RunStats(
            duration=duration,
            committed=len(steady),
            aborted=self.aborted,
            throughput=len(steady) / duration,
            avg_latency=statistics.fmean(latencies) if latencies else 0.0,
            p50_latency=_percentile(latencies, 0.50),
            p95_latency=_percentile(latencies, 0.95),
            p99_latency=_percentile(latencies, 0.99),
            avg_latency_intra=statistics.fmean(intra) if intra else 0.0,
            avg_latency_cross=statistics.fmean(cross) if cross else 0.0,
            committed_cross=len(cross),
            submitted=self.submitted,
        )
