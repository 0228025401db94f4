"""Span tracing of the program's layers, recorded from outside the program.

The traced pass replaces a fixed list of **public** methods with timing
wrappers — as class attributes, restored when the pass ends — and wraps
every message handler as it is registered through
``Process.register_handler(s)``.  Nothing under ``src/`` knows about
this file.

A *span* is one call of a wrapped method: name, start, end, the span
that was open when it started (its parent), and a commit id where the
call carries one (a message's ``tx_id``).  Span names read
``<layer>:<what>``; the layer is the owning module (``sim.network``,
``consensus.paxos``, ...), so per-layer numbers are sums over a prefix.

A layer's **self time** is its spans' duration minus the part their
child spans cover, which makes the layers add up: every nanosecond of
the run phase is either some span's self time or *loop time* — run-phase
time outside every span (the event loop itself, ``Network._deliver``,
``Process._dispatch_message``, timer callbacks).  The wrappers cost about
a microsecond per call, charged to whichever span is open around them,
so self times of layers with many small children read high; compare
them between two commits, not against the untraced run.

Spans aggregate online; the first ``KEEP`` raw spans are also kept in
memory for ``--out``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

from repro.consensus.batching import BatchPipeline
from repro.consensus.log import OrderingLog
from repro.consensus.paxos import PaxosEngine
from repro.consensus.pbft import PBFTEngine
from repro.consensus.view_change import ViewChangeManager
from repro.core.cross_shard import ByzantineCrossShardEngine, CrashCrossShardEngine
from repro.core.replica import SharPerReplica
from repro.ledger.block import Block
from repro.ledger.view import ClusterView
from repro.recovery import CheckpointManager, StateTransferManager
from repro.sim.network import Network
from repro.sim.process import Process
from repro.storage import ArrayAccountStore, SqliteArchive
from repro.storage.base import StateStore
from repro.storage.dict_store import AccountStore
from repro.txn.execution import TransactionExecutor
from repro.txn.workload import WorkloadGenerator

__all__ = ["KEEP", "Tracer", "layer_of"]

#: raw spans kept in memory per traced pass.
KEEP = 50_000

#: (layer, class, public methods) replaced by timing wrappers.
WRAPPED = (
    ("sim.network", Network, ("send", "multicast")),
    ("sim.process", Process, ("deliver", "send", "multicast")),
    ("consensus.paxos", PaxosEngine, ("submit", "propose_at")),
    ("consensus.pbft", PBFTEngine, ("submit", "propose_at")),
    ("core.cross_shard", CrashCrossShardEngine, ("start",)),
    ("core.cross_shard", ByzantineCrossShardEngine, ("start",)),
    ("consensus.log", OrderingLog, ("record_pending", "decide", "pop_applicable", "truncate")),
    (
        "consensus.batching",
        BatchPipeline,
        ("submit_intra", "submit_cross", "item_applied", "on_view_installed"),
    ),
    (
        "consensus.view_change",
        ViewChangeManager,
        ("handle_view_change", "handle_new_view", "suspect_primary"),
    ),
    ("core.replica", SharPerReplica, ("after_decide",)),
    ("core.client", WorkloadGenerator, ("next_transaction",)),
    ("txn", TransactionExecutor, ("execute",)),
    ("ledger", ClusterView, ("append", "prune")),
    ("ledger", Block, ("create", "create_batch", "noop")),
    ("storage", AccountStore, ("deposit", "withdraw")),
    ("storage", ArrayAccountStore, ("deposit", "withdraw", "checkpoint_snapshot")),
    ("storage", StateStore, ("state_digest", "checkpoint_snapshot")),
    ("storage", SqliteArchive, ("archive_blocks", "record_checkpoint")),
    ("recovery", CheckpointManager, ("take",)),
    ("recovery", StateTransferManager, ("request_catch_up",)),
)


def layer_of(handler) -> str:
    """Layer owning a message handler: the module of the object it is bound to."""
    owner = getattr(handler, "__self__", None)
    module = type(owner).__module__ if owner is not None else handler.__module__
    if module.startswith("repro.recovery"):  # checkpoint, state transfer, termination
        return "recovery"
    return module.removeprefix("repro.")


def _message_commit_id(handler_args):
    return getattr(handler_args[0], "tx_id", None)


class Tracer:
    """Aggregates spans of the wrapped methods for one traced pass."""

    def __init__(self) -> None:
        #: span name -> [calls, self ns]
        self.stats: dict[str, list[int]] = {}
        #: raw spans: [name, start ns, end ns, parent index or -1, commit id]
        self.spans: list[list] = []
        #: summed duration of spans that had no parent.
        self._top_ns = [0]
        self._stack: list[list[int]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, commit_of=None):
        """A callable that runs ``fn`` inside a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0])
        stack = self._stack
        spans = self.spans
        top_ns = self._top_ns
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            if len(spans) < KEEP:
                index = len(spans)
                commit = commit_of(args) if commit_of is not None else None
                spans.append([name, 0, 0, stack[-1][1] if stack else -1, commit])
            else:
                index = -1
            frame = [0, index]  # ns covered by children, raw span index
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    top_ns[0] += duration
                if index >= 0:
                    span = spans[index]
                    span[1] = start
                    span[2] = end

        return traced

    def _wrap_handler(self, message_type: type, handler):
        name = f"{layer_of(handler)}:on.{message_type.__name__}"
        return self.wrap(name, handler, commit_of=_message_commit_id)

    @contextmanager
    def installed(self):
        """Replace the wrapped methods (and handler registration) for the block."""
        undo: list[tuple[type, str, object]] = []
        tracer = self

        def replace(cls: type, attr: str, value) -> None:
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, value)

        register_one = Process.register_handler
        register_many = Process.register_handlers

        def register_handler(process, message_type, handler):
            register_one(process, message_type, tracer._wrap_handler(message_type, handler))

        def register_handlers(process, handlers):
            register_many(
                process,
                {kind: tracer._wrap_handler(kind, handler) for kind, handler in handlers.items()},
            )

        try:
            for layer, cls, attrs in WRAPPED:
                for attr in attrs:
                    raw = cls.__dict__.get(attr)
                    if raw is None:  # inherited: the base class entry covers it
                        continue
                    name = f"{layer}:{cls.__name__}.{attr}"
                    if isinstance(raw, classmethod):
                        replace(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        replace(cls, attr, self.wrap(name, raw))
            replace(Process, "register_handler", register_handler)
            replace(Process, "register_handlers", register_handlers)
            yield self
        finally:
            for cls, attr, original in reversed(undo):
                setattr(cls, attr, original)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (called when the run phase starts)."""
        for stats in self.stats.values():
            stats[0] = stats[1] = 0
        self.spans.clear()
        self._top_ns[0] = 0

    def snapshot(self) -> dict:
        """Freeze the aggregates (calls and self time per span name, top-level
        time) and copy the raw spans recorded so far."""
        return {
            "top_ns": self._top_ns[0],
            "raw_spans": [span[:] for span in self.spans],
            "spans": {
                name: {"calls": calls, "self_ns": self_ns}
                for name, (calls, self_ns) in sorted(self.stats.items())
                if calls
            },
        }
