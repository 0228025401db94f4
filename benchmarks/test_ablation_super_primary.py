"""Ablation: the super-primary optimisation (Section 3.2).

The super primary routes every cross-shard transaction over a set of
clusters through the primary of the lowest-numbered involved cluster,
which removes conflicts between concurrent cross-shard transactions.
This ablation runs a cross-shard-heavy workload with the rule enabled and
disabled and compares committed throughput and the number of protocol
retries.
"""

from __future__ import annotations

import pytest

from repro.api import DeploymentSpec, Scenario
from repro.common.config import ProtocolTuning
from repro.common.types import FaultModel
from repro.txn.workload import WorkloadConfig

#: simulated tps with the rule on and off, recorded at 18b17bf (exact).
SUPER_PRIMARY_PINNED = {"on": 8825.0, "off": 8825.0}


def _run(use_super_primary: bool, clients: int = 48):
    scenario = Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=FaultModel.CRASH,
            tuning=ProtocolTuning(use_super_primary=use_super_primary),
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=0.8, accounts_per_shard=256, num_clients=32
        ),
        clients=clients,
        duration=0.15,
        warmup=0.03,
        verify=False,
    )
    return scenario.run().stats


def test_super_primary_ablation(benchmark):
    """With the super primary the system commits at least as much work."""

    def run_both():
        with_rule = _run(True)
        without_rule = _run(False)
        return with_rule, without_rule

    with_rule, without_rule = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(
        f"\nsuper-primary on : {with_rule.throughput:8.0f} tps, "
        f"{with_rule.avg_latency * 1e3:6.2f} ms avg latency"
        f"\nsuper-primary off: {without_rule.throughput:8.0f} tps, "
        f"{without_rule.avg_latency * 1e3:6.2f} ms avg latency"
    )
    # The optimisation must never hurt committed throughput materially.
    assert with_rule.throughput >= 0.8 * without_rule.throughput
    assert with_rule.committed > 0 and without_rule.committed > 0
    assert {"on": with_rule.throughput, "off": without_rule.throughput} == SUPER_PRIMARY_PINNED
