"""Ablation: request batching and slot pipelining (docs/consensus.md).

A primary that orders up to ``batch_size`` client requests per consensus
slot pays one signature verify, one quorum entry and one apply dispatch
per batch instead of per transaction.  This ablation drives a 2-cluster
crash-only deployment at 10% cross-shard with enough clients to saturate
the paper's one-transaction blocks (batch 1 peaks near 60 clients and
declines beyond), and compares it with batch 8 / pipeline depth 4.
"""

from __future__ import annotations

from repro.api import DeploymentSpec, Scenario
from repro.common.config import ProtocolTuning
from repro.common.types import FaultModel
from repro.txn.workload import WorkloadConfig

#: simulated tps of both configurations, recorded at 18b17bf.  Simulated
#: results are deterministic for a seed, so these are exact.
BATCHING_PINNED = {"batch 1": 10916.666666666668, "batch 8 / depth 4": 19883.333333333336}


def _run(tuning: ProtocolTuning, clients: int = 120):
    scenario = Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.CRASH, num_clusters=2, tuning=tuning
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=0.1, accounts_per_shard=256, num_clients=32
        ),
        clients=clients,
        duration=0.15,
        warmup=0.03,
        verify=False,
    )
    return scenario.run().stats


def test_batching_ablation(benchmark):
    """Batching lifts saturated throughput above one-transaction blocks."""

    def run_both():
        return _run(ProtocolTuning()), _run(ProtocolTuning(batch_size=8, pipeline_depth=4))

    unbatched, batched = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(
        f"\nbatch 1          : {unbatched.throughput:8.0f} tps, "
        f"{unbatched.avg_latency * 1e3:6.2f} ms avg latency"
        f"\nbatch 8 / depth 4: {batched.throughput:8.0f} tps, "
        f"{batched.avg_latency * 1e3:6.2f} ms avg latency"
    )
    assert batched.throughput > unbatched.throughput
    assert {
        "batch 1": unbatched.throughput,
        "batch 8 / depth 4": batched.throughput,
    } == BATCHING_PINNED
