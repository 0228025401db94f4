"""CPU seconds of one ``Scenario.build_system()``, per accounts-per-shard value.

Usage::

    PYTHONPATH=src python tools/build_cost.py

Builds the default deployment (SharPer, crash model, 4 clusters of 3
nodes, 64 clients) at each shard size in ``ACCOUNTS`` and prints the
median process CPU time of ``REPEATS`` builds.  It uses only the
``Scenario`` API, so the same command measures any tree whose ``src/``
is on ``PYTHONPATH``.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.api import DeploymentSpec, Scenario
from repro.txn.workload import WorkloadConfig

ACCOUNTS = (16_384, 1_000_000)
REPEATS = 5


def build_seconds(accounts_per_shard: int) -> float:
    """Median CPU seconds of ``REPEATS`` builds at ``accounts_per_shard``."""
    scenario = Scenario(
        deployment=DeploymentSpec(),
        workload=WorkloadConfig(accounts_per_shard=accounts_per_shard, num_clients=64),
    )
    times = []
    for _ in range(REPEATS):
        gc.collect()
        started = time.process_time()
        system = scenario.build_system()
        times.append(time.process_time() - started)
        del system
    return statistics.median(times)


def main() -> int:
    print("accounts_per_shard  build_cpu_s")
    for accounts in ACCOUNTS:
        print(f"{accounts:>18}  {build_seconds(accounts):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
