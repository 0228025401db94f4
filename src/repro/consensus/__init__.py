"""Intra-shard consensus engines (Paxos, PBFT), ordering log, messages."""

from .base import ConsensusEngine, Host, QuorumTracker
from .batching import BatchPipeline, member_requests
from .log import EntryStatus, LogEntry, Noop, OrderingLog, item_digest
from .messages import (
    ClientReply,
    ClientRequest,
    RequestBatch,
    CrossAccept,
    CrossAcceptB,
    CrossCommit,
    CrossCommitB,
    CrossPropose,
    CrossProposeB,
    NewView,
    PassiveUpdate,
    PaxosAccept,
    PaxosAccepted,
    PaxosCommit,
    PBFTCommit,
    Prepare,
    PrePrepare,
    ViewChange,
)
from .paxos import PaxosEngine
from .pbft import PBFTEngine
from .view_change import ViewChangeManager

__all__ = [
    "BatchPipeline",
    "ClientReply",
    "ClientRequest",
    "ConsensusEngine",
    "CrossAccept",
    "CrossAcceptB",
    "CrossCommit",
    "CrossCommitB",
    "CrossPropose",
    "CrossProposeB",
    "EntryStatus",
    "Host",
    "LogEntry",
    "NewView",
    "Noop",
    "OrderingLog",
    "PBFTCommit",
    "PBFTEngine",
    "PassiveUpdate",
    "PaxosAccept",
    "PaxosAccepted",
    "PaxosCommit",
    "PaxosEngine",
    "Prepare",
    "PrePrepare",
    "QuorumTracker",
    "RequestBatch",
    "ViewChange",
    "ViewChangeManager",
    "item_digest",
    "member_requests",
]
