"""Definitions of every figure in the paper's evaluation (Section 4).

Each figure is described declaratively (:data:`FIGURES`): which systems
appear, which fault model and workload mix are used, and how many
clusters are deployed.  :func:`run_figure` executes the corresponding
load sweeps and returns a :class:`FigureResult` holding one
throughput/latency curve per plotted series — the same series the paper
plots:

* **Figure 6** — crash-only nodes (12 nodes, 4 clusters of 3), varying the
  cross-shard percentage: (a) 0%, (b) 20%, (c) 80%, (d) 100%.  Systems:
  SharPer, AHL-C, APR-C, FPaxos.
* **Figure 7** — Byzantine nodes (16 nodes, 4 clusters of 4), same
  percentages.  Systems: SharPer, AHL-B, APR-B, FaB.
* **Figure 8** — SharPer only, 90% intra / 10% cross-shard, scaling the
  number of clusters from 2 to 5: (a) crash-only, (b) Byzantine.

Each series is one :class:`repro.api.Scenario` (:meth:`FigureSpec.scenario_for`)
swept by :func:`repro.bench.harness.run_curve`, so the systems a figure
names are resolved by the pluggable registry.  The adversary sweep
(:func:`run_attack_sweep`) builds its scenarios the same way, arming
each named attack through :func:`schedule_attack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..adversary import available_behaviors, get_behavior
from ..api import DeploymentSpec, FaultSchedule, Scenario, ScenarioResult, run_scenarios
from ..common.types import FaultModel
from ..txn.workload import WorkloadConfig
from .harness import Curve, run_curve

__all__ = [
    "SeriesSpec",
    "FigureSpec",
    "FigureResult",
    "FIGURES",
    "QUICK_CLIENTS",
    "FULL_CLIENTS",
    "ATTACK_CROSS_FRACTIONS",
    "COALITION_ATTACK",
    "attack_point",
    "churn_scenario",
    "coalition_members",
    "default_attack_names",
    "longrun_scenario",
    "run_attack_sweep",
    "run_figure",
    "schedule_attack",
    "list_figures",
]

#: client sweep used by the quick (CI-friendly) configuration.
QUICK_CLIENTS: tuple[int, ...] = (12, 48, 120)
#: client sweep used for a fuller curve.
FULL_CLIENTS: tuple[int, ...] = (4, 12, 32, 64, 96, 128, 160)


@dataclass(frozen=True)
class SeriesSpec:
    """One plotted series: a system with a display label."""

    system: str
    label: str
    num_clusters: int = 4


@dataclass(frozen=True)
class FigureSpec:
    """One figure (or sub-figure) of the paper's evaluation."""

    figure_id: str
    title: str
    fault_model: FaultModel
    cross_shard_fraction: float
    series: tuple[SeriesSpec, ...]
    #: free-text description of the shape the paper reports, printed
    #: above the measured outcome by :mod:`repro.bench.reporting`.
    expected_shape: str = ""

    def scenario_for(self, series: SeriesSpec, duration: float, warmup: float) -> Scenario:
        """The scenario one of the figure's series sweeps over client counts.

        Figure points measure performance only (``verify=False``) on 256
        accounts per shard and 32 application clients.
        """
        return Scenario(
            deployment=DeploymentSpec(
                system=series.system,
                fault_model=self.fault_model,
                num_clusters=series.num_clusters,
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=self.cross_shard_fraction,
                accounts_per_shard=256,
                num_clients=32,
            ),
            name=series.label,
            duration=duration,
            warmup=warmup,
            verify=False,
        )


@dataclass
class FigureResult:
    """Measured curves for one figure."""

    figure: FigureSpec
    curves: list[Curve] = field(default_factory=list)

    def curve(self, label: str) -> Curve:
        """Look up a series by its display label."""
        for curve in self.curves:
            if curve.label == label:
                return curve
        raise KeyError(f"no series labelled {label!r} in {self.figure.figure_id}")

    def peaks(self) -> dict[str, float]:
        """Peak throughput per series label."""
        return {curve.label: curve.peak().throughput for curve in self.curves}

    def as_rows(self) -> list[dict[str, float]]:
        """All measured points, flattened for reporting."""
        rows: list[dict[str, float]] = []
        for curve in self.curves:
            rows.extend(curve.as_rows())
        return rows


_SHARDED_CRASH = (
    SeriesSpec("sharper", "SharPer"),
    SeriesSpec("ahl", "AHL-C"),
    SeriesSpec("apr", "APR-C"),
    SeriesSpec("fast", "FPaxos"),
)
_SHARDED_BYZ = (
    SeriesSpec("sharper", "SharPer"),
    SeriesSpec("ahl", "AHL-B"),
    SeriesSpec("apr", "APR-B"),
    SeriesSpec("fast", "FaB"),
)
_SCALABILITY = tuple(
    SeriesSpec("sharper", f"{clusters} clusters", num_clusters=clusters)
    for clusters in (2, 3, 4, 5)
)

FIGURES: dict[str, FigureSpec] = {
    "fig6a": FigureSpec(
        "fig6a", "Crash-only, 0% cross-shard", FaultModel.CRASH, 0.0, _SHARDED_CRASH,
        expected_shape=(
            "SharPer == AHL-C (same intra-shard path); both roughly 3-4x the "
            "peak throughput of APR-C and FPaxos."
        ),
    ),
    "fig6b": FigureSpec(
        "fig6b", "Crash-only, 20% cross-shard", FaultModel.CRASH, 0.2, _SHARDED_CRASH,
        expected_shape="SharPer above AHL-C (~10%); sharded systems still well above APR-C/FPaxos.",
    ),
    "fig6c": FigureSpec(
        "fig6c", "Crash-only, 80% cross-shard", FaultModel.CRASH, 0.8, _SHARDED_CRASH,
        expected_shape=(
            "Sharding advantage shrinks; SharPer still beats AHL-C; APR-C/FPaxos "
            "have lower latency than SharPer."
        ),
    ),
    "fig6d": FigureSpec(
        "fig6d", "Crash-only, 100% cross-shard", FaultModel.CRASH, 1.0, _SHARDED_CRASH,
        expected_shape="SharPer ~44% above AHL-C at peak; non-sharded systems have lower latency.",
    ),
    "fig7a": FigureSpec(
        "fig7a", "Byzantine, 0% cross-shard", FaultModel.BYZANTINE, 0.0, _SHARDED_BYZ,
        expected_shape=(
            "SharPer == AHL-B; both roughly 3-4x the peak throughput of APR-B and FaB; "
            "FaB has lower latency than APR-B."
        ),
    ),
    "fig7b": FigureSpec(
        "fig7b", "Byzantine, 20% cross-shard", FaultModel.BYZANTINE, 0.2, _SHARDED_BYZ,
        expected_shape="SharPer ~15% above AHL-B; ~3x APR-B/FaB.",
    ),
    "fig7c": FigureSpec(
        "fig7c", "Byzantine, 80% cross-shard", FaultModel.BYZANTINE, 0.8, _SHARDED_BYZ,
        expected_shape="SharPer ~34% above AHL-B; APR-B/FaB latency lower than SharPer.",
    ),
    "fig7d": FigureSpec(
        "fig7d", "Byzantine, 100% cross-shard", FaultModel.BYZANTINE, 1.0, _SHARDED_BYZ,
        expected_shape="SharPer ~50% above AHL-B (AHL ~67% of SharPer).",
    ),
    "fig8a": FigureSpec(
        "fig8a", "SharPer scalability, crash-only, 10% cross-shard",
        FaultModel.CRASH, 0.1, _SCALABILITY,
        expected_shape="Throughput grows near-linearly with the number of clusters.",
    ),
    "fig8b": FigureSpec(
        "fig8b", "SharPer scalability, Byzantine, 10% cross-shard",
        FaultModel.BYZANTINE, 0.1, _SCALABILITY,
        expected_shape="Throughput grows near-linearly with the number of clusters.",
    ),
}


def list_figures() -> list[str]:
    """Identifiers of every reproducible figure."""
    return sorted(FIGURES)


# ----------------------------------------------------------------------
# adversary sweeps (attack type × cross-shard fraction)
# ----------------------------------------------------------------------

#: cross-shard fractions the adversary sweep exercises by default.
ATTACK_CROSS_FRACTIONS: tuple[float, ...] = (0.0, 0.2)

#: pseudo-behaviour name selecting the colluding-adversary attack in
#: sweeps and on the CLI ``--attack`` surface.
COALITION_ATTACK = "coalition"


def coalition_members(num_clusters: int, byzantine: bool = True) -> dict[int, str]:
    """Default colluding pair: initiator-primary delayer + remote withholder.

    Node ids follow :meth:`SystemConfig.build`'s contiguous layout:
    node 0 is cluster 0's primary, and the second node of cluster 1 is a
    backup — one Byzantine replica per cluster, the paper's ``f = 1``
    bound in each.
    """
    if num_clusters < 2:
        raise ValueError("a coalition needs at least two clusters")
    cluster_size = 4 if byzantine else 3
    return {0: "delay-attacker", cluster_size + 1: "vote-withholder"}


def schedule_attack(
    faults: FaultSchedule,
    name: str,
    at: float,
    num_clusters: int,
    byzantine: bool = True,
    cluster: int = 0,
) -> FaultSchedule:
    """Add the attack ``name`` to ``faults``, shaped for its target.

    * :data:`COALITION_ATTACK` forms the default colluding pair (see
      :func:`coalition_members`): cross-shard transactions are delayed at
      the initiator and vote-starved at a remote cluster, while each
      member stays within its cluster's ``f = 1`` bound;
    * a client-target behaviour turns client 0 Byzantine, which also
      arms every replica's request guard;
    * a replica-target behaviour turns the primary of ``cluster``
      Byzantine — one adversary per cluster, the paper's ``f = 1``.

    Every shape arms the cross-replica safety audit of the scenario that
    runs it (the schedule then contains an adversary event).  Returns
    ``faults`` for chaining.
    """
    if name == COALITION_ATTACK:
        return faults.form_coalition(
            at=at, members=coalition_members(num_clusters, byzantine=byzantine)
        )
    if get_behavior(name).target == "client":
        return faults.make_client_byzantine(at=at, client=0, behavior=name)
    return faults.make_primary_byzantine(at=at, cluster=cluster, behavior=name)


def default_attack_names() -> list[str]:
    """Every attack the sweep runs by default: replica, client, coalition."""
    return (
        sorted(available_behaviors())
        + sorted(available_behaviors("client"))
        + [COALITION_ATTACK]
    )


def run_attack_sweep(
    behaviors: Sequence[str] | None = None,
    cross_fractions: Sequence[float] = ATTACK_CROSS_FRACTIONS,
    seeds: Sequence[int] = (1, 2, 3),
    num_clusters: int = 2,
    clients: int = 12,
    duration: float = 0.5,
    warmup: float = 0.06,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[ScenarioResult]:
    """Sweep attack type × cross-shard fraction × seed under SharPer.

    Every point is an :func:`attack_point`, so it runs with at most
    ``f`` Byzantine replicas per cluster (and at most one Byzantine
    client) and must pass the safety audit.
    :func:`repro.api.run_scenarios` semantics apply (``jobs``
    parallelises, results come back in input order: behaviour-major,
    then fraction, then seed).  ``behaviors`` defaults to every
    registered adversary behaviour — replica *and* client targets —
    plus the :data:`COALITION_ATTACK` pseudo-behaviour.
    """
    names = list(behaviors) if behaviors is not None else default_attack_names()
    scenarios = [
        attack_point(behavior, fraction, seed, num_clusters, clients, duration, warmup)
        for behavior in names
        for fraction in cross_fractions
        for seed in seeds
    ]
    return run_scenarios(scenarios, jobs=jobs, progress=progress)


def attack_point(
    name: str,
    cross_shard_fraction: float,
    seed: int = 1,
    num_clusters: int = 2,
    clients: int = 12,
    duration: float = 0.5,
    warmup: float = 0.06,
) -> Scenario:
    """One point of :func:`run_attack_sweep`: the attack ``name``, armed
    at 0.05 s, against Byzantine SharPer on 128 accounts per shard."""
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=num_clusters
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_shard_fraction, accounts_per_shard=128
        ),
        name=f"{name} @ {cross_shard_fraction:.0%} cross-shard",
        clients=clients,
        duration=duration,
        warmup=warmup,
        seed=seed,
        faults=schedule_attack(FaultSchedule(), name, at=0.05, num_clusters=num_clusters),
    )


# ----------------------------------------------------------------------
# recovery experiments (repro.recovery): long-run memory + churn
# ----------------------------------------------------------------------

def longrun_scenario(
    checkpoint_interval: int = 50,
    duration: float = 2.0,
    clients: int = 12,
    num_clusters: int = 2,
    cross_shard_fraction: float = 0.1,
    fault_model: FaultModel = FaultModel.CRASH,
    seed: int = 1,
    accounts_per_shard: int = 128,
) -> Scenario:
    """A fig8-style long run sized to prove bounded memory.

    With the default calibration each cluster decides well over
    ``20 × checkpoint_interval`` slots, so a bounded
    ``peak_log_entries`` (at most ``2 × interval`` once checkpoints
    stabilise) is a meaningful statement about arbitrarily long runs —
    compare against the same scenario with ``checkpoint_interval=0``,
    where the log grows with the run.
    """
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=fault_model,
            num_clusters=num_clusters,
            checkpoint_interval=checkpoint_interval,
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_shard_fraction,
            accounts_per_shard=accounts_per_shard,
        ),
        name=f"longrun ckpt={checkpoint_interval}",
        clients=clients,
        duration=duration,
        warmup=0.06,
        seed=seed,
        # The acceptance bar for bounded memory includes the
        # cross-replica auditor: truncation must not hide a fork.
        audit_safety=True,
    )


def churn_scenario(
    checkpoint_interval: int = 25,
    crash_at: float = 0.15,
    recover_at: float = 0.45,
    node: int = 2,
    duration: float = 0.8,
    clients: int = 8,
    num_clusters: int = 2,
    cross_shard_fraction: float = 0.1,
    fault_model: FaultModel = FaultModel.CRASH,
    seed: int = 1,
) -> Scenario:
    """Crash → recover → state-transfer → catch-up → serve, verified.

    The crashed replica misses a window of decided slots that by
    ``recover_at`` has typically been garbage-collected at its peers;
    rejoining therefore exercises the full snapshot-install path, after
    which the replica participates in later quorums (its applied height
    reaches the cluster's).  The cross-replica safety audit is forced on
    so truncation and replay are checked against every correct replica.
    """
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=fault_model,
            num_clusters=num_clusters,
            checkpoint_interval=checkpoint_interval,
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_shard_fraction, accounts_per_shard=128
        ),
        name=f"churn node={node} ckpt={checkpoint_interval}",
        clients=clients,
        duration=duration,
        warmup=0.06,
        seed=seed,
        faults=FaultSchedule().crash_node(at=crash_at, node_id=node).recover_node(
            at=recover_at, node_id=node
        ),
        audit_safety=True,
    )


def run_figure(
    figure_id: str,
    client_counts: Sequence[int] | None = None,
    duration: float = 0.30,
    warmup: float = 0.06,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    seeds: Sequence[int] | None = None,
) -> FigureResult:
    """Measure every series of one figure and return the curves.

    ``jobs`` parallelises each series' ``point × seed`` grid over a
    process pool; ``seeds`` averages every point over several seeds (see
    :func:`repro.bench.harness.run_curve`).
    """
    try:
        figure = FIGURES[figure_id]
    except KeyError:
        raise KeyError(f"unknown figure {figure_id!r}; choose from {list_figures()}") from None
    counts = tuple(client_counts or QUICK_CLIENTS)
    result = FigureResult(figure=figure)
    for series in figure.series:
        scenario = figure.scenario_for(series, duration=duration, warmup=warmup)
        result.curves.append(
            run_curve(scenario, counts, progress=progress, jobs=jobs, seeds=seeds)
        )
    return result
