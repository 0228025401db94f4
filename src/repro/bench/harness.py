"""Experiment harness: load sweeps producing throughput/latency curves.

The paper's methodology (Section 4): drive each system with an increasing
number of closed-loop clients until throughput saturates, and report the
throughput (x axis) and average latency (y axis) measured during steady
state.  :func:`run_curve` runs one :class:`repro.api.Scenario` at every
client count of a sweep and returns the resulting :class:`Curve`, whose
:meth:`Curve.peak` is the "just below saturation" point.  The scenario
is the whole experiment description, so any registered system —
including third-party ones (:func:`repro.api.register_system`) — can be
swept.

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
from typing import Callable, Sequence

from ..api import Scenario, run_scenarios
from ..common.metrics import RunStats

__all__ = ["CurvePoint", "Curve", "run_curve"]


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


def run_curve(
    scenario: Scenario,
    client_counts: Sequence[int],
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    seeds: Sequence[int] | None = None,
) -> Curve:
    """Sweep ``scenario`` over offered load and return its curve.

    The curve is named by :attr:`Scenario.label`.  ``seeds`` repeats
    every point once per seed and pools the per-seed statistics with
    :meth:`RunStats.aggregate` (defaults to the scenario's own seed).
    ``jobs`` runs the whole ``point × seed`` grid in a
    ``multiprocessing`` pool; per-seed results are bit-identical to a
    serial run, so parallelism never changes the curve.
    """
    seed_list = list(seeds) if seeds else [scenario.seed]
    scenarios = [
        dataclasses.replace(scenario, clients=clients, seed=seed)
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
    return Curve(system=scenario.deployment.system, label=scenario.label, points=tuple(points))
