"""Scalability sweep: SharPer throughput vs. number of clusters (Figure 8).

Runs the 90% intra / 10% cross-shard workload on 2..5 clusters for both
failure models and prints the measured peak throughput, reproducing the
shape of Figure 8 (near-linear scaling with the cluster count).  Each
cluster count is a :class:`repro.api.Scenario` variation swept across
client counts with :func:`repro.bench.harness.run_curve`.

Run with::

    python examples/scalability_sweep.py
"""

from __future__ import annotations

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.bench.harness import run_curve


def sweep(fault_model: FaultModel) -> None:
    label = "crash-only (Paxos)" if fault_model is FaultModel.CRASH else "Byzantine (PBFT)"
    print(f"== SharPer scalability, {label}, 10% cross-shard ==")
    baseline = None
    for clusters in (2, 3, 4, 5):
        scenario = Scenario(
            name=f"{clusters} clusters",
            deployment=DeploymentSpec(
                system="sharper", fault_model=fault_model, num_clusters=clusters
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=0.1, accounts_per_shard=256, num_clients=32
            ),
            duration=0.25,
            warmup=0.05,
            verify=False,
        )
        peak = run_curve(scenario, client_counts=(16, 64, 128)).peak()
        baseline = baseline or peak.throughput
        print(
            f"  {clusters} clusters: peak {peak.throughput:9,.0f} tx/s "
            f"at {peak.latency_ms:6.2f} ms  (x{peak.throughput / baseline:.2f} vs 2 clusters)"
        )
    print()


def main() -> None:
    sweep(FaultModel.CRASH)
    sweep(FaultModel.BYZANTINE)


if __name__ == "__main__":
    main()
