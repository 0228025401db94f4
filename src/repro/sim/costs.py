"""CPU cost accounting for simulated nodes.

The performance model charges every node CPU time for receiving,
verifying, signing, and sending protocol messages, plus executing
transactions and appending blocks.  Saturation (and therefore the
throughput/latency knee the paper's figures show) emerges from these
per-message costs queueing up at the busiest node — typically a primary.

Messages opt into signature costs by exposing two integer attributes:

* ``verify_signatures`` — number of signatures the *receiver* verifies;
* ``sign_signatures`` — number of signatures the *sender* produces when
  creating the message (charged once per message, not per destination).

Crash-only protocols leave both out, which reads as zero (the paper notes
that crash-only deployments do not sign messages); Byzantine protocols
set them to 1.
Both attributes are class-level constants, so the per-type costs are
cached on first use — cost lookup on the delivery hot path is a single
dict probe.
"""

from __future__ import annotations

from typing import Any

from ..common.config import PerformanceModel

__all__ = ["CostModel"]


class CostModel:
    """Maps messages to CPU time based on a :class:`PerformanceModel`."""

    #: fraction of a full message-processing cost charged on the send side.
    SEND_FRACTION = 0.5

    def __init__(self, performance: PerformanceModel) -> None:
        self.performance = performance
        # Per-message-type cost caches (signature counts are ClassVars).
        self._receive_cost: dict[type, float] = {}
        self._sign_cost: dict[type, float] = {}

    def receive_cost(self, message: Any) -> float:
        """CPU seconds to receive, parse, and verify ``message``."""
        message_type = message.__class__
        cost = self._receive_cost.get(message_type)
        if cost is None:
            perf = self.performance
            cost = perf.message_cpu
            cost += getattr(message_type, "verify_signatures", 0) * perf.signature_verify_cpu
            self._receive_cost[message_type] = cost
        return cost

    def send_cost(self, message: Any, destinations: int = 1) -> float:
        """CPU seconds to serialise and push ``message`` to ``destinations``."""
        message_type = message.__class__
        signing = self._sign_cost.get(message_type)
        if signing is None:
            signing = (
                getattr(message_type, "sign_signatures", 0)
                * self.performance.signature_sign_cpu
            )
            self._sign_cost[message_type] = signing
        if destinations <= 0:
            return signing
        return signing + self.performance.message_cpu * self.SEND_FRACTION * destinations

    @property
    def execution_cost(self) -> float:
        """CPU seconds to execute one transaction against the state store."""
        return self.performance.execution_cpu

    @property
    def append_cost(self) -> float:
        """CPU seconds to append one block to the ledger view."""
        return self.performance.append_cpu
