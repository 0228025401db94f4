"""Experiment harness: load sweeps producing throughput/latency curves.

The paper's methodology (Section 4): drive each system with an increasing
number of closed-loop clients until throughput saturates, and report the
throughput (x axis) and average latency (y axis) measured during steady
state.  :func:`run_point` measures one client count; :func:`run_curve`
sweeps a list of client counts and returns the resulting curve, from
which :func:`peak_throughput` extracts the "just below saturation" point.

Both are thin wrappers over :class:`repro.api.Scenario`: an
:class:`ExperimentSpec` is the flat, sweep-friendly form of a scenario
(:meth:`ExperimentSpec.to_scenario` converts), and systems are resolved
through the pluggable registry (:func:`repro.api.register_system`), so
any registered system — including third-party ones — can be swept.

Performance model & parallel execution
--------------------------------------
Scenarios are deterministic and self-contained, so :func:`run_curve`
accepts ``jobs`` (run the ``point × seed`` grid in a
``multiprocessing`` pool — per-seed results are bit-identical to serial
execution) and ``seeds`` (repeat each point over several seeds and pool
the statistics with :meth:`RunStats.aggregate`).  The CLI exposes both
as ``--jobs N`` and ``--seeds K``.  The benchmark suite
(``benchmarks/``) pins every figure's simulated peaks exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..api import DeploymentSpec, FaultSchedule, Scenario, run_scenarios
from ..common.config import PerformanceModel, ProtocolTuning
from ..common.metrics import RunStats
from ..common.types import FaultModel
from ..core.system import BaseSystem
from ..txn.workload import WorkloadConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import TraceSpec

__all__ = [
    "ExperimentSpec",
    "CurvePoint",
    "Curve",
    "run_point",
    "run_curve",
    "peak_throughput",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to measure one system under one workload."""

    system: str
    fault_model: FaultModel
    num_clusters: int = 4
    f: int = 1
    cross_shard_fraction: float = 0.0
    shards_per_cross_tx: int = 2
    accounts_per_shard: int = 256
    num_app_clients: int = 32
    duration: float = 0.30
    warmup: float = 0.06
    seed: int = 1
    performance: PerformanceModel = field(default_factory=PerformanceModel)
    tuning: ProtocolTuning = field(default_factory=ProtocolTuning)
    #: arm the :mod:`repro.obs` flight recorder on every point; traced
    #: sweeps gain additive ``phase_*`` columns in their reports while
    #: untraced sweeps keep the exact legacy header.
    trace: "TraceSpec | bool | None" = None

    def to_scenario(
        self,
        clients: int,
        verify: bool = False,
        faults: FaultSchedule | None = None,
        name: str = "",
    ) -> Scenario:
        """The :class:`~repro.api.Scenario` equivalent of this spec."""
        deployment = DeploymentSpec(
            system=self.system,
            fault_model=self.fault_model,
            num_clusters=self.num_clusters,
            f=self.f,
            performance=self.performance,
            tuning=self.tuning,
            trace=self.trace,
        )
        workload = WorkloadConfig(
            cross_shard_fraction=self.cross_shard_fraction,
            shards_per_cross_tx=self.shards_per_cross_tx,
            accounts_per_shard=self.accounts_per_shard,
            num_clients=self.num_app_clients,
        )
        return Scenario(
            deployment=deployment,
            workload=workload,
            name=name,
            clients=clients,
            duration=self.duration,
            warmup=self.warmup,
            seed=self.seed,
            faults=faults or FaultSchedule(),
            verify=verify,
        )

    def build_system(self) -> BaseSystem:
        """Instantiate the system under test."""
        return self.to_scenario(clients=0).build_system()


@dataclass(frozen=True)
class CurvePoint:
    """One measured point of a throughput/latency curve."""

    clients: int
    stats: RunStats
    #: additive per-phase latency columns (``phase_<scope>_<name>_avg_ms``)
    #: from the flight recorder; empty for untraced points, so legacy
    #: reports keep their exact header.
    phase_columns: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        return self.stats.throughput

    @property
    def latency_ms(self) -> float:
        """Average end-to-end latency in milliseconds."""
        return self.stats.avg_latency * 1e3


@dataclass(frozen=True)
class Curve:
    """The throughput/latency curve of one system under one workload."""

    system: str
    label: str
    points: tuple[CurvePoint, ...]

    def peak(self) -> CurvePoint:
        """The point with the highest throughput ("just below saturation")."""
        return max(self.points, key=lambda point: point.throughput)

    def as_rows(self) -> list[dict[str, float]]:
        """Rows suitable for CSV/text reporting.

        The five legacy columns always lead, in their historic order;
        a traced point's ``phase_*`` breakdown columns are appended
        after them (the CSV/text renderers union headers across rows,
        so mixed traced/untraced figures stay well-formed).
        """
        return [
            {
                "system": self.label,
                "clients": point.clients,
                "throughput_tps": round(point.throughput, 1),
                "avg_latency_ms": round(point.latency_ms, 2),
                "p95_latency_ms": round(point.stats.p95_latency * 1e3, 2),
                **point.phase_columns,
            }
            for point in self.points
        ]


def run_point(
    spec: ExperimentSpec,
    clients: int,
    check_consistency: bool = False,
) -> RunStats:
    """Run one system at one offered load and return its steady-state stats."""
    result = spec.to_scenario(clients, verify=check_consistency).run()
    if check_consistency:
        result.raise_if_failed()
    return result.stats


def run_curve(
    spec: ExperimentSpec,
    client_counts: Sequence[int],
    label: str | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    seeds: Sequence[int] | None = None,
) -> Curve:
    """Sweep offered load and return the throughput/latency curve.

    ``seeds`` repeats every point once per seed and pools the per-seed
    statistics with :meth:`RunStats.aggregate` (defaults to the spec's
    single seed).  ``jobs`` runs the whole ``point × seed`` grid in a
    ``multiprocessing`` pool; per-seed results are bit-identical to a
    serial run, so parallelism never changes the curve.
    """
    seed_list = list(seeds) if seeds else [spec.seed]
    scenarios = [
        dataclasses.replace(spec, seed=seed).to_scenario(
            clients, name=label or spec.system
        )
        for clients in client_counts
        for seed in seed_list
    ]
    results = run_scenarios(scenarios, jobs=jobs, progress=progress)
    points = []
    per_point = len(seed_list)
    for index, clients in enumerate(client_counts):
        chunk = results[index * per_point : (index + 1) * per_point]
        # Traced points carry the first seed's phase breakdown (the
        # per-phase averages are stable across seeds; pooling percentile
        # summaries would misstate them).
        traced = next((result.trace for result in chunk if result.trace is not None), None)
        points.append(
            CurvePoint(
                clients=clients,
                stats=RunStats.aggregate([result.stats for result in chunk]),
                phase_columns=traced.phase_columns() if traced is not None else {},
            )
        )
    return Curve(system=spec.system, label=label or spec.system, points=tuple(points))


def peak_throughput(curve: Curve) -> float:
    """Peak throughput of a curve (transactions per second)."""
    return curve.peak().throughput
