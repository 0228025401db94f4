"""Ablation: sensitivity to the cross-cluster network distance.

The paper deploys all clusters inside one EC2 region, so cross-cluster
links are nearly as fast as intra-cluster ones.  This ablation stretches
the cross-cluster latency towards a WAN setting and measures how the
advantage of the flattened cross-shard protocol (fewer phases than AHL's
reference-committee 2PC) translates into latency.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import DeploymentSpec, Scenario
from repro.common.config import PerformanceModel
from repro.common.types import FaultModel
from repro.txn.workload import WorkloadConfig

#: mean simulated cross-shard latency (seconds), recorded at 18b17bf (exact).
LATENCY_PINNED = {
    "lan": {"sharper": 0.003620926442506525, "ahl": 0.007170978384375892},
    "metro": {"sharper": 0.01204422710404133, "ahl": 0.01972797628691753},
}


def _latency_of(system: str, cross_cluster_latency: float, clients: int = 24) -> float:
    performance = replace(PerformanceModel(), cross_cluster_latency=cross_cluster_latency)
    scenario = Scenario(
        deployment=DeploymentSpec(
            system=system, fault_model=FaultModel.CRASH, performance=performance
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=1.0, accounts_per_shard=256, num_clients=32
        ),
        clients=clients,
        duration=0.15,
        warmup=0.03,
        verify=False,
    )
    return scenario.run().stats.avg_latency_cross


def test_cross_cluster_latency_ablation(benchmark):
    """SharPer's cross-shard latency stays below AHL's as links get slower."""

    def run_all():
        results = {}
        for label, latency in (("lan", 1e-3), ("metro", 5e-3)):
            results[label] = {
                "sharper": _latency_of("sharper", latency),
                "ahl": _latency_of("ahl", latency),
            }
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for label, values in results.items():
        print(
            f"{label:6s} cross-shard latency: SharPer {values['sharper'] * 1e3:7.2f} ms, "
            f"AHL-C {values['ahl'] * 1e3:7.2f} ms"
        )
    for values in results.values():
        # Fewer communication phases: SharPer's cross-shard latency is lower.
        assert values["sharper"] < values["ahl"]
    # Slower links increase SharPer's absolute cross-shard latency.
    assert results["metro"]["sharper"] > results["lan"]["sharper"]
    assert results == LATENCY_PINNED
