"""Declarative scenarios: deployment + workload + clients + faults in one object.

A :class:`Scenario` captures one cell of the paper's evaluation matrix —
*which system*, under *which fault model*, driven by *which workload mix*,
with *which faults injected when* — and :meth:`Scenario.run` executes the
whole lifecycle (build, spawn clients, arm faults, simulate, drain,
audit) that examples and benchmarks used to hand-wire::

    from repro.api import DeploymentSpec, FaultSchedule, Scenario
    from repro import FaultModel, WorkloadConfig

    scenario = Scenario(
        deployment=DeploymentSpec(system="sharper", fault_model=FaultModel.CRASH),
        workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=256),
        clients=32,
        duration=0.4,
        faults=FaultSchedule().crash_primary(at=0.1, cluster=0),
    )
    result = scenario.run()
    print(result.summary())

Scenarios are values — frozen dataclasses whose every field, the fault
schedule included, is immutable — so equal scenarios compare and hash
equal, and variations (client sweeps, fault ablations) are cheap
``dataclasses.replace`` copies — see
:meth:`Scenario.with_clients` and :func:`repro.bench.harness.run_curve`,
which sweeps one scenario over client counts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..common.config import PerformanceModel, ProtocolTuning, SystemConfig
from ..common.errors import ConfigurationError
from ..common.metrics import MetricsCollector
from ..common.types import FaultModel
from ..obs import FlightRecorder, TraceSpec, normalize_trace
from ..obs.journal import Anomalies
from ..recovery.stats import collect_recovery_stats
from ..storage.stats import collect_storage_stats
from ..txn.workload import WorkloadConfig
from .faults import FaultSchedule
from .registry import get_system
from .result import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem

__all__ = ["DeploymentSpec", "Scenario", "run_scenarios"]


@dataclass(frozen=True)
class DeploymentSpec:
    """Which system to deploy, on what cluster topology.

    Either describe a homogeneous deployment (``num_clusters``/``f``/
    ``nodes_per_cluster``, built via :meth:`SystemConfig.build`) or hand
    in an explicit :class:`SystemConfig` via ``config`` — e.g. one
    produced by :func:`repro.core.sharding.build_grouped_system` for the
    per-cloud clustering of Section 3.4.  Every replica holds its shard
    in a :class:`repro.storage.StateStore`; ``archive`` is the one
    storage knob.
    """

    system: str = "sharper"
    fault_model: FaultModel = FaultModel.CRASH
    num_clusters: int = 4
    f: int = 1
    nodes_per_cluster: int | None = None
    performance: PerformanceModel = field(default_factory=PerformanceModel)
    tuning: ProtocolTuning = field(default_factory=ProtocolTuning)
    #: convenience override for the most commonly swept recovery knob:
    #: when set, replaces ``tuning.checkpoint_interval`` (decided slots
    #: between checkpoints; 0 disables checkpointing and log GC).
    checkpoint_interval: int | None = None
    #: convenience overrides for the batching knobs: when set, they
    #: replace ``tuning.batch_size`` (requests ordered per consensus
    #: slot; 1 is the paper's one-transaction blocks, through the same
    #: submission path) and ``tuning.pipeline_depth`` (in-flight slots
    #: per primary; binds only when ``batch_size > 1``).
    batch_size: int | None = None
    pipeline_depth: int | None = None
    #: perf-pinned (ROADMAP item 4(b) deletes it): accepts only "columnar"
    #: and is forwarded nowhere.
    store_backend: str = "columnar"
    #: sqlite database path checkpoint GC spills pruned blocks into
    #: (":memory:" accepted); None drops pruned history as before.
    archive: str | None = None
    #: flight-recorder arming (:mod:`repro.obs`): ``None``/``False`` runs
    #: untraced (bit-identical to the seeds — every hook is the inert
    #: recorder's no-op), ``True`` arms the default :class:`TraceSpec`,
    #: and an explicit :class:`TraceSpec` tunes gauges and their
    #: sampling interval; anything else is refused at construction.
    trace: "TraceSpec | bool | None" = None
    #: explicit topology override; when set, the fields above describing
    #: the homogeneous layout are ignored (except ``archive``, which
    #: still applies when set).
    config: SystemConfig | None = None

    def __post_init__(self) -> None:
        normalize_trace(self.trace)
        self._tuning()  # ProtocolTuning's checks refuse a bad override now, not at build
        if self.store_backend != "columnar":
            raise ConfigurationError(
                f"unknown store backend {self.store_backend!r}; there is one store"
            )

    def _tuning(self) -> ProtocolTuning:
        """``tuning`` with the overrides that are set applied."""
        names = ("checkpoint_interval", "batch_size", "pipeline_depth")
        overrides = {name: value for name in names if (value := getattr(self, name)) is not None}
        return dataclasses.replace(self.tuning, **overrides)

    def resolve(self, seed: int = 0) -> SystemConfig:
        """The concrete :class:`SystemConfig` this spec describes."""
        if self.config is not None:
            if self.archive is not None:
                return dataclasses.replace(self.config, archive_path=self.archive)
            return self.config
        return SystemConfig.build(
            num_clusters=self.num_clusters,
            fault_model=self.fault_model,
            f=self.f,
            nodes_per_cluster=self.nodes_per_cluster,
            performance=self.performance,
            tuning=self._tuning(),
            archive_path=self.archive,
            seed=seed,
        )


@dataclass(frozen=True)
class Scenario:
    """One fully-specified experiment, runnable end to end."""

    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: display name used in reports; defaults to the system name.
    name: str = ""
    #: number of closed-loop clients driving the system.
    clients: int = 32
    #: simulated seconds to run and measure.
    duration: float = 0.30
    #: leading window whose samples are discarded (paper: steady state).
    warmup: float = 0.06
    #: simulated seconds granted to in-flight transactions after the
    #: measurement window, before auditing.
    drain_grace: float = 2.0
    #: client retry/fail-over timeout (seconds).
    retry_timeout: float = 2.0
    seed: int = 1
    #: timed faults injected during the run.
    faults: FaultSchedule = FaultSchedule()
    #: drain, audit, and check balance conservation after measuring.
    verify: bool = True
    #: run the cross-replica :class:`~repro.adversary.SafetyAuditor`
    #: after draining.  ``None`` (the default) audits automatically
    #: whenever the fault schedule contains adversary events, so
    #: faultless benchmark sweeps pay nothing; set ``True``/``False`` to
    #: force either way.  Requires ``verify``.
    audit_safety: bool | None = None

    def __post_init__(self) -> None:
        # Each of these either hangs the run (a retry timer that never advances
        # the clock or beats every reply, a drain that never ends) or measures nothing.
        if not self.duration > 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError(
                f"warmup must be within [0, duration={self.duration}), got {self.warmup}"
            )
        if self.clients < 0:
            raise ConfigurationError(f"clients must be non-negative, got {self.clients}")
        performance = (self.deployment.config or self.deployment).performance
        round_trip = 2 * performance.client_latency * (1 - performance.latency_jitter)
        if not (self.retry_timeout > 0 and self.retry_timeout >= round_trip):
            raise ConfigurationError(
                f"retry_timeout must be positive and at least one client round trip "
                f"({round_trip:.3g} s), got {self.retry_timeout}"
            )
        if not self.drain_grace >= 0:
            raise ConfigurationError(
                f"drain_grace must be non-negative, got {self.drain_grace}"
            )

    @property
    def label(self) -> str:
        """Report label: the explicit name, or the system's short name."""
        return self.name or self.deployment.system

    # ------------------------------------------------------------------
    # variations
    # ------------------------------------------------------------------
    def with_clients(self, clients: int) -> "Scenario":
        """A copy of this scenario at a different offered load."""
        return dataclasses.replace(self, clients=clients)

    # ------------------------------------------------------------------
    # adversary integration
    # ------------------------------------------------------------------
    @property
    def has_adversary(self) -> bool:
        """Whether the fault schedule injects Byzantine behaviour."""
        return any(getattr(event, "adversarial", False) for event in self.faults)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def build_system(self) -> "BaseSystem":
        """Instantiate the system under test (without running it)."""
        system_cls = get_system(self.deployment.system)
        config = self.deployment.resolve(seed=self.seed)
        return system_cls(config, self.workload, seed=self.seed)

    def run(self) -> ScenarioResult:
        """Execute the scenario and return the bundled result.

        Lifecycle: build the system, spawn and start the closed-loop
        clients, arm the fault schedule, simulate ``duration`` seconds,
        snapshot the steady-state statistics, and — when ``verify`` is
        set — drain in-flight transactions, audit the ledger, and check
        balance conservation.
        """
        # Events may land in the measurement window or (when verifying,
        # e.g. a heal before the audit) in the drain window — but an event
        # past the run's horizon would silently never execute.
        horizon = self.duration + (self.drain_grace if self.verify else 0.0)
        for event in self.faults:
            if event.time >= horizon:
                raise ConfigurationError(
                    f"fault event ({event.describe()}) is scheduled at or after "
                    f"this scenario's horizon of {horizon}s (duration plus drain "
                    "grace), so it would never execute"
                )
        system = self.build_system()
        metrics = MetricsCollector(warmup=self.warmup, measure_until=self.duration)
        group = system.spawn_clients(self.clients, metrics, retry_timeout=self.retry_timeout)
        trace_spec = normalize_trace(self.deployment.trace)
        if trace_spec is not None:
            system.arm_recorder(FlightRecorder(trace_spec))
        system.recorder.start_gauges(system)
        system.start_clients(group)
        self.faults.arm(system)
        end = system.sim.run(until=self.duration)
        stats = metrics.finalize(end)
        idle_time = audit = total = expected = safety = None
        if self.verify:
            idle_time = system.drain(self.drain_grace)
            audit = system.audit()
            total = system.total_balance()
            expected = system.expected_total_balance()
            run_safety = (
                self.audit_safety
                if self.audit_safety is not None
                else self.has_adversary
            )
            if run_safety:
                safety = system.safety_audit()
        recovery = collect_recovery_stats(system)
        storage = collect_storage_stats(system)
        heights = {
            cluster_id: view.height for cluster_id, view in system.views().items()
        }
        trace_report = system.recorder.finalize(system, system.sim.now)
        return ScenarioResult(
            scenario=self,
            system=system,
            stats=stats,
            end_time=end,
            idle_time=idle_time,
            audit=audit,
            chain_heights=heights,
            total_balance=total,
            expected_balance=expected,
            safety=safety,
            recovery=recovery,
            storage=storage,
            trace=trace_report,
            anomalies=Anomalies.merge([process.journal for process in system.processes()]),
        )


def _run_detached(scenario: Scenario) -> ScenarioResult:
    """Worker entry point: run a scenario, return a picklable result."""
    return scenario.run().detach()


def run_scenarios(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[ScenarioResult]:
    """Run several independent scenarios, optionally in a process pool.

    Scenarios are deterministic and self-contained, so with ``jobs > 1``
    they are farmed out to a :mod:`multiprocessing` pool; results come
    back in input order and are *detached* (``result.system is None``).
    Per-seed results are bit-identical between serial and parallel
    execution — workload generation, transaction ids, and every RNG draw
    depend only on the scenario itself.  With ``jobs <= 1`` everything
    runs in-process and results keep their live system.
    """
    if jobs <= 1 or len(scenarios) <= 1:
        results = []
        for scenario in scenarios:
            result = scenario.run()
            results.append(result)
            if progress is not None:
                progress(_progress_line(result))
        return results
    with multiprocessing.get_context().Pool(processes=min(jobs, len(scenarios))) as pool:
        results = []
        for result in pool.imap(_run_detached, scenarios):
            results.append(result)
            if progress is not None:
                progress(_progress_line(result))
    return results


def _progress_line(result: ScenarioResult) -> str:
    scenario = result.scenario
    return (
        f"{scenario.label}: {scenario.clients} clients -> "
        f"{result.throughput:.0f} tps @ {result.avg_latency_ms:.1f} ms"
    )
