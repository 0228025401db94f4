"""repro — a reproduction of SharPer (SIGMOD 2021).

SharPer shards a permissioned blockchain over network clusters: nodes are
partitioned into clusters of ``2f+1`` (crash) or ``3f+1`` (Byzantine)
nodes, each cluster maintains one data shard and one view of a DAG
ledger, intra-shard transactions are ordered by Paxos/PBFT inside one
cluster, and cross-shard transactions are ordered by a flattened protocol
run directly among the involved clusters.

Public entry points
-------------------
* :mod:`repro.api` — the unified experiment surface: declarative
  :class:`~repro.api.Scenario`, timed :class:`~repro.api.FaultSchedule`,
  and the pluggable system registry (:func:`~repro.api.register_system`).
* :mod:`repro.adversary` — scripted Byzantine behaviours (equivocation,
  silence, delays, tampering), the outbound message-interception hook,
  and the cross-replica :class:`~repro.adversary.SafetyAuditor`.
* :mod:`repro.recovery` — checkpointing + log compaction (bounded
  memory for arbitrarily long runs), state-transfer catch-up for
  recovered/lagging replicas, and checkpoint-anchored termination of
  in-flight cross-shard instances at view changes.
* :class:`repro.core.SharPerSystem` — build and run the paper's system.
* :mod:`repro.baselines` — APR, Fast Paxos, FaB, and AHL comparison systems.
* :mod:`repro.bench` — the harness regenerating every figure of the paper.
"""

from .adversary import (
    AdversaryBehavior,
    SafetyAuditor,
    SafetyReport,
    available_behaviors,
    get_behavior,
    make_behavior,
)
from .common import FaultModel, PerformanceModel, ProtocolTuning, SystemConfig
from .core import SharPerSystem
from .txn import Transaction, Transfer, WorkloadConfig, WorkloadGenerator
from .api import (
    DeploymentSpec,
    FaultSchedule,
    Scenario,
    ScenarioResult,
    available_systems,
    get_system,
    register_system,
)

__version__ = "1.2.0"

__all__ = [
    "AdversaryBehavior",
    "DeploymentSpec",
    "FaultModel",
    "FaultSchedule",
    "SafetyAuditor",
    "SafetyReport",
    "PerformanceModel",
    "ProtocolTuning",
    "Scenario",
    "ScenarioResult",
    "SharPerSystem",
    "SystemConfig",
    "Transaction",
    "Transfer",
    "WorkloadConfig",
    "WorkloadGenerator",
    "available_behaviors",
    "available_systems",
    "get_behavior",
    "get_system",
    "make_behavior",
    "register_system",
    "__version__",
]
