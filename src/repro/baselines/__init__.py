"""Baseline systems the paper compares against: APR, FPaxos, FaB, AHL."""

from .ahl import AHLReplica, AHLSystem, ReferenceCommitteeReplica
from .single_group import (
    FAB,
    FAST_PAXOS,
    ActivePassiveSystem,
    FastConsensusSystem,
    PassiveReplica,
    SingleGroupReplica,
)

__all__ = [
    "FAB",
    "FAST_PAXOS",
    "AHLReplica",
    "AHLSystem",
    "ActivePassiveSystem",
    "FastConsensusSystem",
    "PassiveReplica",
    "ReferenceCommitteeReplica",
    "SingleGroupReplica",
]
