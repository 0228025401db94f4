"""Causal commit graphs: critical-path and quorum-straggler analytics.

Every trace is causal: the recorder stores each phase event and each
message ``send``/``recv`` node as one row of a :class:`NodeTable`, whose
row index is the node's event id, next to its *causal parent*:

* a ``send`` node's parent is the context in which the send happened —
  the ``recv`` node of the message being dispatched, or the ``submit``
  event when a client issues a fresh request;
* a ``recv`` node's parent is the matching ``send`` node (matched per
  FIFO link by payload identity, so one multicast payload fans out to
  one send node with many recv children);
* a phase event's parent is the enclosing dispatch context.  Phase
  events are *leaves* of the DAG — they never become anyone's parent —
  except ``submit``, which opens the chain.

Because the handler that completes a quorum runs inside the dispatch of
the quorum-completing message, walking parents backwards from a
transaction's ``reply`` event threads exactly through the deciding-vote
arrival of every quorum on the way: the chain *is* the latency-dominant
causal path.  :func:`critical_paths` reconstructs it per transaction;
edge timestamps are the recorded node times, so consecutive edges are
contiguous by construction and the path total ``replied - submitted``
is the identical float expression the metrics layer computes for
end-to-end latency — exact, not approximate (the same sums-exactly
discipline as :func:`repro.obs.phases.attribute_phases`).

Chains that pass through a wait the graph cannot see — a batch queued
behind the pipeline window, a client retry fired from a timer (timers
run with no context by design) — clip at the transaction's ``submit``
and the gap is surfaced as a synthetic ``wait`` edge, so paths stay
contiguous and exact even then.  Parent ids are strictly smaller than
child ids, so the walk terminates and the graph is acyclic by
construction (the trace validator re-checks both on exported files).

Quorum stragglers: engines report every quorum vote arrival
(:meth:`~repro.obs.recorder.FlightRecorder.quorum_vote`); the vote that
flips ``decided`` is the *deciding vote*, and its lag behind the median
vote arrival says how far behind the pack the quorum-completing replica
ran.  :func:`straggler_summary` aggregates that per (voter, quorum
kind).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, count
from struct import Struct, calcsize, iter_unpack
from typing import Any, Callable, Iterable, Iterator, Sequence

from .phases import PHASES_CROSS, PHASES_INTRA

__all__ = [
    "CritEdge",
    "TxCriticalPath",
    "EdgeStats",
    "CriticalSummary",
    "StragglerStats",
    "Rows",
    "NodeTable",
    "RowView",
    "iter_critical_paths",
    "critical_paths",
    "summarize_paths",
    "summarize_edge_records",
    "straggler_summary",
    "render_critical_table",
    "render_straggler_table",
    "critpath_columns",
]


@dataclass(frozen=True)
class CritEdge:
    """One hop of a transaction's critical path.

    ``kind`` classifies where the time went: ``send`` is sender-side
    processing up to the NIC, ``recv`` is wire + receive queue + receive
    CPU (the node time is the dispatch time), ``phase`` is a
    same-dispatch milestone (zero width), ``wait`` is the synthetic
    clip edge for time the causal graph cannot see (batch queuing,
    timer-driven retries).
    """

    src_eid: int
    dst_eid: int
    src_pid: int
    pid: int
    kind: str
    label: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class TxCriticalPath:
    """The reconstructed submit→reply causal chain of one transaction."""

    tx: str
    cross: bool
    submitted: float
    replied: float
    #: the walk reached the submit event through recorded parents only
    #: (False: it clipped and the first edge is a synthetic ``wait``).
    complete: bool
    edges: tuple[CritEdge, ...]

    @property
    def total(self) -> float:
        """End-to-end span — the same float expression as the metrics
        layer's ``committed_at - submitted_at``, so equality is exact."""
        return self.replied - self.submitted


@dataclass(frozen=True)
class EdgeStats:
    """Critical-path time attributed to one edge type in one scope."""

    kind: str
    label: str
    count: int
    total_ms: float
    avg_ms: float
    #: fraction of the scope's summed critical-path time spent here.
    share: float


@dataclass(frozen=True)
class CriticalSummary:
    """Aggregated critical-path statistics for one traced run."""

    txs: int
    complete: int
    hops_avg: float
    #: fraction of critical-path time spent on ``recv`` edges (wire +
    #: receive queue + receive CPU).
    wire_share: float
    #: fraction spent on synthetic ``wait`` edges (invisible queuing).
    wait_share: float
    intra_avg_ms: float
    cross_avg_ms: float
    intra: tuple[EdgeStats, ...]
    cross: tuple[EdgeStats, ...]


@dataclass(frozen=True)
class StragglerStats:
    """How often (and how late) one replica supplied a deciding vote."""

    pid: int
    kind: str
    count: int
    avg_lag_ms: float
    max_lag_ms: float


#: Node kind codes.  ``ABSENT`` marks a row without a node (row 0, so
#: eid 0 means "no event"); phase names take the codes after ``RECV``.
ABSENT, SEND, RECV = 0, 1, 2
#: a node row's numbers: time, parent eid, pid, kind code (the last byte).
NODE_ROW = Struct("<dqiB")
pack_node = NODE_ROW.pack


class Rows:
    """Append-only rows of fixed-width numbers, packed by one ``struct``
    format into a bytearray: no tuple or number object per row.
    Iterating yields each row as a tuple, in append order; ``len`` is
    O(1); tables compare by their bytes.  Do not append while iterating."""

    __slots__ = ("fmt", "data")

    def __init__(self, fmt: str) -> None:
        self.fmt, self.data = fmt, bytearray()

    def __len__(self) -> int:
        return len(self.data) // calcsize(self.fmt)

    def __iter__(self) -> Iterator[tuple]:
        return iter_unpack(self.fmt, self.data)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.fmt == other.fmt and self.data == other.data


class RowView:
    """A read-only view of some of a table's rows, as tuples: ``len``
    without a scan, rows built one at a time when iterated."""

    __slots__ = ("_rows", "_len")

    def __init__(self, rows: Callable[[], Iterator[tuple]], length: int) -> None:
        self._rows, self._len = rows, length

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        return self._rows()


class NodeTable(Rows):
    """Phase events and message ``send``/``recv`` nodes in record order,
    one row each; a row's index is its node's eid, so the next node's
    eid is always ``len(table)``.  A row packs (:data:`NODE_ROW`) time,
    parent eid, pid and kind code (an index into ``names``); ``labels``
    holds the run's own strings: a phase's tx id, a message's type name.
    """

    __slots__ = ("labels", "names", "codes", "phases", "holes")

    def __init__(self) -> None:
        super().__init__(NODE_ROW.format)
        self.labels: list[str] = []
        self.names = ["", "send", "recv", *dict.fromkeys(PHASES_INTRA + PHASES_CROSS)]
        self.codes = {name: code for code, name in enumerate(self.names)}
        self.phases, self.holes = 0, 1  # phase rows; ABSENT rows
        self.append(0.0, 0, 0, ABSENT, "")

    def append(self, time: float, parent: int, pid: int, code: int, label: str) -> int:
        """Append one node; returns its eid."""
        labels = self.labels
        labels.append(label)
        self.data += pack_node(time, parent, pid, code)
        return len(labels) - 1

    def new_phase(self, phase: str) -> int:
        """Register a phase name outside the canonical ones; its code."""
        code = self.codes[phase] = len(self.names)
        self.names.append(phase)
        return code

    @classmethod
    def from_rows(cls, nodes: Iterable[tuple[int, int, float, str, int, str]]) -> "NodeTable":
        """Rebuild a table from ``(eid, parent, t, kind, pid, label)``
        rows, a phase event's kind being its phase and its label its tx
        id (the JSONL export's).  An eid no row names stays absent."""
        table, rows = cls(), {row[0]: row for row in nodes}
        for eid in range(1, max(rows, default=0) + 1):
            _, parent, time, kind, pid, label = rows.get(eid, (eid, 0, 0.0, "", 0, ""))
            code = table.codes.get(kind)
            table.append(time, parent, pid, table.new_phase(kind) if code is None else code, label)
        kinds = table.kinds()
        table.holes = kinds.count(ABSENT)
        table.phases = len(kinds) - table.holes - kinds.count(SEND) - kinds.count(RECV)
        return table

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, eid: int) -> tuple[float, int, int, int]:
        """``(time, parent, pid, code)`` of node ``eid``."""
        return NODE_ROW.unpack_from(self.data, eid * NODE_ROW.size)

    def kinds(self) -> bytes:
        """Every row's kind code, one byte each (a copy)."""
        return self.data[NODE_ROW.size - 1 :: NODE_ROW.size]

    def events(self) -> RowView:
        """``(time, tx_id, phase, pid)`` per phase event, in record order."""
        names = self.names
        return RowView(lambda: (
            (time, label, names[code], pid)
            for (time, _, pid, code), label in zip(iter(self), self.labels)
            if code > RECV
        ), self.phases)

    def event_meta(self) -> RowView:
        """``(eid, parent)`` per phase event, aligned with :meth:`events`."""
        return RowView(lambda: (
            (eid, parent) for eid, (_, parent, _, code) in enumerate(self) if code > RECV
        ), self.phases)

    def messages(self) -> RowView:
        """``(eid, parent, t, kind, pid, label)`` per message node; kind is
        ``"send"`` (NIC departure) or ``"recv"`` (dispatch time)."""
        names = self.names
        return RowView(lambda: (
            (eid, parent, time, names[code], pid, label)
            for eid, ((time, parent, pid, code), label) in enumerate(zip(iter(self), self.labels))
            if code == SEND or code == RECV
        ), len(self.labels) - self.phases - self.holes)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not NodeTable:
            return NotImplemented
        return self.data == other.data and self.labels == other.labels and self.names == other.names


def iter_critical_paths(
    nodes: NodeTable, cross_txs: frozenset[str] | set[str]
) -> Iterator[TxCriticalPath]:
    """Walk every committed transaction's critical path, one at a time.

    Transactions without both a submit and a reply (in flight at the
    horizon, or cut by a crash) are excluded — their chains simply
    terminate at the last recorded event and are never walked.

    Paths come in ``(submitted, tx)`` order.  Only the rows' kind bytes
    are copied: an eid is a row index of ``nodes``, so only the path
    being yielded is alive at any time.
    """
    labels, names = nodes.labels, nodes.names
    kinds = nodes.kinds()
    submits: dict[str, int] = {}
    for eid in compress(count(), map(nodes.codes["submit"].__eq__, kinds)):
        submits.setdefault(labels[eid], eid)
    replies: dict[str, int] = {}
    for eid in compress(count(), map(nodes.codes["reply"].__eq__, kinds)):
        replies.setdefault(labels[eid], eid)
    del kinds
    order = sorted(
        (nodes[submit][0], tx, submit, reply)
        for tx, reply in replies.items()
        if (submit := submits.get(tx)) is not None
        and nodes[reply][0] >= nodes[submit][0]
        and reply > submit
    )
    del submits, replies

    def node(eid: int) -> tuple[int, int, float, str, int, str]:
        """``eid``'s ``(eid, parent, t, kind, pid, label)``; a phase
        event's kind is ``"phase"`` and its label the phase name."""
        time, parent, pid, code = nodes[eid]
        if code > RECV:
            return eid, parent, time, "phase", pid, names[code]
        return eid, parent, time, names[code], pid, labels[eid]

    for submitted, tx, submit, reply in order:
        submit_node = node(submit)
        chain = [node(reply)]
        cursor = chain[0][1]
        # Backward walk: parent ids are strictly smaller than child ids,
        # so the chain strictly decreases and must terminate.  It either
        # reaches this transaction's submit (complete) or escapes the
        # transaction's window / hits a contextless event (clip).
        complete = False
        while cursor:
            if cursor == submit:
                complete = True
                break
            if cursor < submit or cursor >= chain[-1][0] or nodes[cursor][3] == ABSENT:
                break
            chain.append(node(cursor))
            cursor = chain[-1][1]
        chain.append(submit_node)
        chain.reverse()
        edges = [
            CritEdge(src[0], eid, src[4], dst_pid, kind, name, src[2], at)
            for src, (eid, _, at, kind, dst_pid, name) in zip(chain, chain[1:])
        ]
        if not complete:
            edges[0] = replace(edges[0], kind="wait", label="wait")
        yield TxCriticalPath(tx, tx in cross_txs, submitted, chain[-1][2], complete, tuple(edges))


def critical_paths(
    nodes: NodeTable, cross_txs: frozenset[str] | set[str]
) -> tuple[TxCriticalPath, ...]:
    """:func:`iter_critical_paths`, collected into one tuple."""
    return tuple(iter_critical_paths(nodes, cross_txs))


def summarize_paths(paths: Iterable[TxCriticalPath]) -> CriticalSummary:
    """Aggregate reconstructed paths into a :class:`CriticalSummary`.

    Consumes ``paths`` edge by edge, so a lazy walk is reduced without
    ever holding more than one path.
    """
    return summarize_edge_records(
        (path.tx, path.cross, edge.kind, f"{edge.kind}:{edge.label}", edge.duration)
        for path in paths
        for edge in path.edges
    )


def summarize_edge_records(
    records: Iterable[tuple[str, bool, str, str, float]],
) -> CriticalSummary:
    """Aggregate ``(tx, cross, kind, label, duration)`` edge records.

    Shared by :func:`summarize_paths` and the offline report, which
    rebuilds the records from a Chrome trace's flow events.  A
    transaction is counted once per distinct ``tx`` and is complete iff
    none of its edges is a ``wait`` clip.  Per-scope averages divide
    summed edge durations by distinct transactions — since every path's
    edges telescope over its span, that sum matches the summed
    end-to-end latency (to float rounding).
    """
    per_scope: dict[bool, dict[tuple[str, str], list[float]]] = {False: {}, True: {}}
    scope_total = {False: 0.0, True: 0.0}
    scope_txs: dict[bool, set[str]] = {False: set(), True: set()}
    clipped: set[str] = set()
    wire = wait = total_all = 0.0
    hops = 0
    for tx, cross, kind, label, duration in records:
        hops += 1
        bucket = per_scope[cross].setdefault((kind, label), [0.0, 0.0])
        bucket[0] += 1
        bucket[1] += duration
        scope_total[cross] += duration
        scope_txs[cross].add(tx)
        total_all += duration
        if kind == "recv":
            wire += duration
        elif kind == "wait":
            wait += duration
            clipped.add(tx)

    def stats(cross: bool) -> tuple[EdgeStats, ...]:
        denom = scope_total[cross]
        ordered = sorted(per_scope[cross].items(), key=lambda item: -item[1][1])
        return tuple(
            EdgeStats(
                kind=kind,
                label=label,
                count=int(count),
                total_ms=total * 1e3,
                avg_ms=total / count * 1e3,
                share=(total / denom) if denom > 0 else 0.0,
            )
            for (kind, label), (count, total) in ordered
        )

    intra_txs, cross_txs_count = len(scope_txs[False]), len(scope_txs[True])
    seen = scope_txs[False] | scope_txs[True]
    return CriticalSummary(
        txs=len(seen),
        complete=len(seen - clipped),
        hops_avg=(hops / len(seen)) if seen else 0.0,
        wire_share=(wire / total_all) if total_all > 0 else 0.0,
        wait_share=(wait / total_all) if total_all > 0 else 0.0,
        intra_avg_ms=(scope_total[False] / intra_txs * 1e3) if intra_txs else 0.0,
        cross_avg_ms=(scope_total[True] / cross_txs_count * 1e3) if cross_txs_count else 0.0,
        intra=stats(False),
        cross=stats(True),
    )


def straggler_summary(
    deciding: Iterable[tuple[int, str, Any, int, float, float]],
) -> tuple[StragglerStats, ...]:
    """Aggregate deciding-vote rows per (voter, quorum kind).

    Rows are the recorder's ``(observer_pid, kind, key, voter, t, lag)``
    tuples; ``lag`` is the deciding vote's arrival behind the median
    vote of its quorum.  Sorted worst average lag first.
    """
    groups: dict[tuple[int, str], list[float]] = {}
    for _pid, kind, _key, voter, _t, lag in deciding:
        groups.setdefault((int(voter), kind), []).append(lag)
    out = [
        StragglerStats(
            pid=voter,
            kind=kind,
            count=len(lags),
            avg_lag_ms=sum(lags) / len(lags) * 1e3,
            max_lag_ms=max(lags) * 1e3,
        )
        for (voter, kind), lags in groups.items()
    ]
    out.sort(key=lambda entry: (-entry.avg_lag_ms, entry.pid, entry.kind))
    return tuple(out)


def render_critical_table(summary: CriticalSummary) -> str:
    """Render the critical-path breakdown as an aligned text table."""
    header = f"{'scope':7s} {'critical edge':28s} {'count':>7s} {'avg ms':>9s} {'share':>7s}"
    lines = [header, "-" * len(header)]
    for scope, stats in (("intra", summary.intra), ("cross", summary.cross)):
        for entry in stats:
            lines.append(
                f"{scope:7s} {entry.label:28s} {entry.count:>7d} "
                f"{entry.avg_ms:>9.3f} {entry.share:>6.1%}"
            )
    lines.append(
        f"{summary.txs} critical paths ({summary.complete} complete); "
        f"avg {summary.hops_avg:.1f} hops; wire {summary.wire_share:.1%}, "
        f"wait {summary.wait_share:.1%} of critical-path time"
    )
    return "\n".join(lines)


def render_straggler_table(stats: Sequence[StragglerStats]) -> str:
    """Render deciding-vote straggler statistics as a text table."""
    header = f"{'replica':>7s} {'quorum':14s} {'deciding':>8s} {'avg lag ms':>11s} {'max lag ms':>11s}"
    lines = [header, "-" * len(header)]
    for entry in stats:
        lines.append(
            f"{entry.pid:>7d} {entry.kind:14s} {entry.count:>8d} "
            f"{entry.avg_lag_ms:>11.3f} {entry.max_lag_ms:>11.3f}"
        )
    if not stats:
        lines.append("(no deciding votes recorded)")
    return "\n".join(lines)


def critpath_columns(summary: CriticalSummary) -> dict[str, float]:
    """Flatten the summary into additive ``critpath_*`` CSV columns."""
    return {
        "critpath_txs": summary.txs,
        "critpath_complete": summary.complete,
        "critpath_hops_avg": round(summary.hops_avg, 3),
        "critpath_wire_share": round(summary.wire_share, 6),
        "critpath_wait_share": round(summary.wait_share, 6),
        "critpath_intra_avg_ms": round(summary.intra_avg_ms, 4),
        "critpath_cross_avg_ms": round(summary.cross_avg_ms, 4),
    }
