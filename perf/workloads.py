"""The benchmark's five workloads, as declarative scenarios.

Every workload deploys ``system="sharper"`` on 4 clusters with f=1 and
the default :class:`~repro.common.config.PerformanceModel` (0.25 / 1.0 /
0.5 ms intra-cluster / cross-cluster / client one-way delay, 10% jitter),
driven by closed-loop clients as in the paper's methodology (Section 4):
a client sends its next request only when the previous one completed.

One workload is three scenarios that differ in offered load only:

* the **saturating** scenario (``scenario``) — throughput, stall and all
  host-cost numbers come from it;
* the **latency** scenario — the same deployment below the saturation
  knee (``latency_clients``), fault-free, where p50/p99 are a property
  of the protocol and not of how many clients happen to queue (at
  saturation a closed loop's latency is just clients / throughput);
* the **light** scenario — ``light_clients``, the unloaded critical path.

``why`` is the one-line reason the workload exists (also written to
``BENCHMARK.json``); the longer rationale is in ``perf/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, FaultSchedule, Scenario

__all__ = ["WORKLOADS", "Workload", "scenario_hash"]

WARMUP = 0.06


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    #: the saturating scenario (seed filled in by :meth:`scenarios`).
    scenario: Scenario
    #: client count of the below-the-knee latency run.
    latency_clients: int
    #: client count of the unloaded run.
    light_clients: int
    #: simulated duration of the latency and light runs (long enough for
    #: p99 to have ten samples beyond it at ``latency_clients``).
    latency_duration: float

    def scenarios(self, seed: int, quick: bool = False) -> dict[str, Scenario]:
        """The saturating / latency / light scenarios for ``seed``.

        ``quick`` divides every duration by three (smoke runs; the
        numbers are not comparable with full runs).
        """
        scale = 3.0 if quick else 1.0
        saturating = dataclasses.replace(
            self.scenario, seed=seed, duration=self.scenario.duration / scale
        )
        below_knee = dataclasses.replace(
            saturating,
            faults=FaultSchedule(),
            duration=max(self.latency_duration / scale, 2 * WARMUP),
        )
        return {
            "saturating": saturating,
            "latency": below_knee.with_clients(self.latency_clients),
            "light": below_knee.with_clients(self.light_clients),
        }


def _sharper(fault_model: FaultModel = FaultModel.CRASH, **overrides) -> DeploymentSpec:
    return DeploymentSpec(
        system="sharper", fault_model=fault_model, num_clusters=4, f=1, **overrides
    )


_INTRA = Scenario(
    deployment=_sharper(),
    workload=WorkloadConfig(cross_shard_fraction=0.0, accounts_per_shard=256),
    clients=120,
    duration=0.36,
    warmup=WARMUP,
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="intra_paxos",
            why="crash model, 0% cross-shard (Fig. 6a best case): Paxos and the "
            "apply/ledger path do the work, core.cross_shard must do none",
            scenario=_INTRA,
            latency_clients=32,
            light_clients=8,
            latency_duration=0.36,
        ),
        Workload(
            name="cross_pbft",
            why="Byzantine model, 80% cross-shard (Fig. 7 hard case): flattened "
            "cross-shard engine + PBFT, quadratic messages; kernel, network and "
            "process layers dominate host cost",
            scenario=Scenario(
                deployment=_sharper(FaultModel.BYZANTINE),
                workload=WorkloadConfig(cross_shard_fraction=0.8, accounts_per_shard=256),
                clients=120,
                duration=0.66,
                warmup=WARMUP,
            ),
            latency_clients=6,
            light_clients=2,
            latency_duration=0.96,
        ),
        Workload(
            name="batched_mixed",
            why="crash model, 10% cross-shard, batch 16 / depth 4: same layers, "
            "16 tx per slot, so apply/txn/ledger/storage dominate and the kernel "
            "matters least; only workload that builds BatchPipeline",
            scenario=Scenario(
                deployment=_sharper(batch_size=16, pipeline_depth=4),
                workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=256),
                clients=480,
                duration=0.36,
                warmup=WARMUP,
            ),
            latency_clients=96,
            light_clients=8,
            latency_duration=0.36,
        ),
        Workload(
            name="failover_ckpt",
            why="primary crash and recovery with checkpoints, columnar store and "
            "archive: view change, termination, digests, log/ledger GC, state "
            "transfer; the fault run, audited for safety",
            scenario=Scenario(
                deployment=_sharper(
                    checkpoint_interval=64, store_backend="columnar", archive=":memory:"
                ),
                workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=16384),
                clients=64,
                duration=1.4,
                warmup=WARMUP,
                retry_timeout=0.5,
                audit_safety=True,
                faults=FaultSchedule()
                .crash_primary(at=0.2, cluster=0)
                .recover_node(at=0.9, node_id=0),
            ),
            latency_clients=16,
            light_clients=8,
            latency_duration=0.46,
        ),
        Workload(
            name="traced_intra",
            why="intra_paxos with the repro.obs flight recorder armed: the only "
            "workload where obs does work; simulated results must equal intra_paxos",
            scenario=dataclasses.replace(
                _INTRA, deployment=dataclasses.replace(_INTRA.deployment, trace=True)
            ),
            latency_clients=32,
            light_clients=8,
            latency_duration=0.36,
        ),
    )
}


def scenario_hash(scenario: Scenario) -> str:
    """Short hash of a scenario and the system config it resolves to.

    Dataclass ``repr`` is deterministic here (no object addresses: fault
    schedules print their events), so equal hashes mean equal inputs.
    """
    resolved = scenario.deployment.resolve(seed=scenario.seed)
    text = repr((scenario, resolved))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
