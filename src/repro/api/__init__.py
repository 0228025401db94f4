"""The public experiment API: scenarios, fault schedules, system registry.

This package is the one entry point for running anything in the
reproduction:

* :class:`Scenario` / :class:`DeploymentSpec` — declare *what* to run
  (system, topology, workload, client mix, duration) and let
  :meth:`Scenario.run` own the lifecycle.
* :class:`FaultSchedule` — declare timed faults (crashes, partitions,
  Byzantine adversaries) executed as simulator events during the run.
* :func:`register_system` / :func:`get_system` — the pluggable registry
  that maps short names (``"sharper"``, ``"ahl"``, …) to system classes;
  third-party systems plug in with the same decorator the built-ins use.
* :class:`ScenarioResult` — performance statistics, per-cluster chain
  heights, the ledger audit, and the balance-conservation check.

The benchmark harness (:mod:`repro.bench`) and every example build on
this API.
"""

from .faults import (
    CrashNode,
    CrashPrimary,
    FaultEvent,
    FaultSchedule,
    FormCoalition,
    Heal,
    MakeByzantine,
    MakeClientByzantine,
    MakePrimaryByzantine,
    PartitionClusters,
    RecoverNode,
    RestoreNode,
)
from .registry import available_systems, get_system, register_system, unregister_system
from .result import ScenarioResult
from .scenario import DeploymentSpec, Scenario, run_scenarios

__all__ = [
    "CrashNode",
    "CrashPrimary",
    "DeploymentSpec",
    "FaultEvent",
    "FaultSchedule",
    "FormCoalition",
    "Heal",
    "MakeByzantine",
    "MakeClientByzantine",
    "MakePrimaryByzantine",
    "PartitionClusters",
    "RecoverNode",
    "RestoreNode",
    "Scenario",
    "ScenarioResult",
    "available_systems",
    "get_system",
    "register_system",
    "run_scenarios",
    "unregister_system",
]
