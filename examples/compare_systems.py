"""Head-to-head comparison: SharPer vs AHL vs APR vs Fast consensus.

Runs the four systems of Figure 6/7 under the same workload and prints a
small table of peak throughput and latency, for both failure models.
Each series is one declarative :class:`repro.api.Scenario` swept across
client counts with :func:`repro.bench.harness.run_curve`; the systems
are resolved by name through the pluggable registry, so a third-party
system registered with :func:`repro.api.register_system` would appear
here by just adding its name.

Run with::

    python examples/compare_systems.py [cross_shard_fraction]
"""

from __future__ import annotations

import sys

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.bench.harness import run_curve
from repro.bench.reporting import format_table

LABELS = {
    FaultModel.CRASH: {"sharper": "SharPer", "ahl": "AHL-C", "apr": "APR-C", "fast": "FPaxos"},
    FaultModel.BYZANTINE: {"sharper": "SharPer", "ahl": "AHL-B", "apr": "APR-B", "fast": "FaB"},
}


def compare(fault_model: FaultModel, cross_fraction: float) -> None:
    print(
        f"== {fault_model.value} nodes, {cross_fraction:.0%} cross-shard transactions =="
    )
    rows = []
    for system, label in LABELS[fault_model].items():
        scenario = Scenario(
            name=label,
            deployment=DeploymentSpec(system=system, fault_model=fault_model),
            workload=WorkloadConfig(cross_shard_fraction=cross_fraction, accounts_per_shard=256, num_clients=32),
            duration=0.25,
            warmup=0.05,
            verify=False,
        )
        peak = run_curve(scenario, client_counts=(16, 64, 128)).peak()
        rows.append(
            {
                "system": label,
                "peak_tps": f"{peak.throughput:,.0f}",
                "latency_ms_at_peak": f"{peak.latency_ms:.2f}",
            }
        )
    print(format_table(rows))
    print()


def main() -> None:
    cross_fraction = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    compare(FaultModel.CRASH, cross_fraction)
    compare(FaultModel.BYZANTINE, cross_fraction)


if __name__ == "__main__":
    main()
