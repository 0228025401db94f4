"""The flight recorder: lazily armed tracing with zero cost when off.

Arming model (the same contract as the adversary interceptor and the
``RequestGuard``): every ``Process``, client, and the ``Network`` carry
a ``recorder`` attribute that is ``None`` by default, and every
instrumentation hook is guarded by one ``recorder is None`` check —
the untraced hot path is untouched and runs stay bit-identical to the
pre-observability tree.  ``BaseSystem.arm_recorder`` sets the attribute
everywhere in one sweep; ``Scenario.run`` arms it when
``DeploymentSpec.trace`` is set.

Recording is append-only on the hot path (tuples into flat lists, no
allocation beyond the tuple); all reduction — phase attribution, span
pairing, report assembly — happens once in :meth:`FlightRecorder.finalize`.
Reduction streams: the critical-path walk reads the recorded rows in
place and hands one path at a time to the summary, so finalizing costs
a table of row references, not a second copy of the trace.
Gauge sampling is the only part of the recorder that schedules
simulator events (a repeating timer); it only *reads* replica and
network state, so a gauge-sampled run produces identical protocol
behaviour and its event count exceeds the untraced run by exactly
``gauge_ticks``.  With ``gauge_interval=0`` (spans-only) even the event
count is bit-identical.

The causal layer (always on when tracing) additionally tags every
message with a parent event id at send, matches it back at dispatch,
and reduces each quorum's votes to its deciding row when that vote
arrives — no simulator events, no RNG draws — reduced by
:mod:`repro.obs.causal` into per-transaction critical paths whose span
equals measured end-to-end latency exactly.
"""

from __future__ import annotations

from statistics import median
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import ConfigurationError
from ..consensus.batching import member_requests
from .causal import (
    CriticalSummary,
    critical_paths as compute_critical_paths,
    critpath_columns,
    iter_critical_paths,
    render_critical_table,
    render_straggler_table,
    straggler_summary,
    summarize_paths,
)
from .phases import PhaseBreakdown, attribute_phases, phase_columns, render_phase_table

__all__ = ["TraceSpec", "FlightRecorder", "TraceReport", "normalize_trace"]


@dataclass(frozen=True)
class TraceSpec:
    """What to record when a scenario is traced.

    ``gauge_interval`` is in simulated seconds; ``0`` disables the
    sampling timer entirely, leaving a spans-only trace whose simulator
    event count matches the untraced run bit for bit.  Every trace is
    causal: message-level parent tagging and quorum deciding-vote
    records (:mod:`repro.obs.causal`) are pure recording, no simulator
    events, no RNG draws, so they never change protocol outcome either.
    ``sample=N`` keeps phase/causal chain events for every Nth submitted
    transaction only, bounding trace size on long high-load runs;
    message nodes, spans, and gauges are shared infrastructure and are
    always kept.
    """

    #: Gauge sampling period in simulated seconds (0 disables).
    gauge_interval: float = 0.01
    #: Record phase events for every Nth transaction (1 = all).
    sample: int = 1

    def __post_init__(self) -> None:
        if self.gauge_interval < 0:
            raise ConfigurationError(
                f"gauge_interval must be non-negative, got {self.gauge_interval}"
            )


def normalize_trace(trace: "TraceSpec | bool | None") -> TraceSpec | None:
    """Coerce ``DeploymentSpec.trace`` to a spec (``True`` -> defaults)."""
    if trace is None or trace is False:
        return None
    if trace is True:
        return TraceSpec()
    return trace


class FlightRecorder:
    """Collects phase events, spans, and gauges for one scenario run."""

    def __init__(self, spec: TraceSpec | None = None) -> None:
        self.spec = spec or TraceSpec()
        #: ``(time, tx_id, phase, pid)`` in simulation-time order.
        self.events: list[tuple[float, str, str, int]] = []
        #: tx ids whose submit was cross-shard.
        self.cross_txs: set[str] = set()
        self._slot_open: dict[tuple[int, int], tuple[float, int]] = {}
        #: Completed ``(pid, cluster, slot, t_open, t_close)`` slot spans.
        self.slot_spans: list[tuple[int, int, int, float, float]] = []
        self._vc_open: dict[int, tuple[float, int, int]] = {}
        #: Completed ``(pid, cluster, view, t_open, t_close)`` view-change spans.
        self.vc_spans: list[tuple[int, int, int, float, float]] = []
        #: Cumulative outbound message count per message type name.
        self.sent_by_type: dict[str, int] = {}
        #: One sample dict per gauge tick.
        self.gauge_samples: list[dict[str, Any]] = []
        self.gauge_ticks = 0
        self._system: Any = None
        self._gauge_timer: Any = None
        #: last assigned event id (strictly increasing; 0 = "no event").
        self._eid = 0
        #: current dispatch context: the recv/submit eid new events
        #: parent to.  Set only by begin_dispatch/submit, cleared by
        #: clear_context — timer callbacks always run with context 0.
        self._ctx = 0
        #: ``(eid, parent)`` per phase event, aligned with :attr:`events`.
        self.event_meta: list[tuple[int, int]] = []
        #: message nodes ``(eid, parent, t, kind, pid, label)``;
        #: kind is "send" (NIC departure) or "recv" (dispatch time).
        self.causal: list[tuple[int, int, float, str, int, str]] = []
        #: per-link send nodes awaiting their recv, keyed ``src<<21|dst``
        #: as ``(send_eid, id(payload))`` — multicast shares one payload
        #: object, so identity matching pairs each delivery with its
        #: (single) send node; FIFO links let unmatched earlier entries
        #: (delivered to a crashed node) be discarded on match.
        self._links: dict[int, list[tuple[int, int]]] = {}
        self._sample = max(1, self.spec.sample)
        self._submit_seq = 0
        #: tx ids whose chain is recorded (None: sampling off, keep all).
        self._sampled: set[str] | None = set() if self._sample > 1 else None
        #: votes per undecided (observer pid, kind, key): (t, voter) rows.
        self._quorum_votes: dict[tuple, list[tuple[float, int]]] = {}
        #: quorum keys whose deciding vote already arrived.
        self._quorum_done: set[tuple] = set()
        #: ``(pid, kind, key, voter, t, lag)`` per decided quorum.
        self._deciding: list[tuple[int, str, Any, int, float, float]] = []

    # -- hot-path hooks (every caller guards ``recorder is not None``) --

    def phase(self, time: float, tx_id: str, phase: str, pid: int) -> None:
        """Record one lifecycle milestone for ``tx_id``."""
        sampled = self._sampled
        if sampled is not None and tx_id not in sampled:
            return
        self.events.append((time, tx_id, phase, pid))
        self._eid += 1
        self.event_meta.append((self._eid, self._ctx))

    def milestone(self, time: float, pid: int, item: object, phase: str) -> None:
        """Record ``phase`` for every client request an ordered item carries.

        The one loop over an item's members (one request, or a batch):
        engines report protocol milestones per *item*, the trace keeps
        them per *transaction*.  Items that carry no client request
        (no-ops, protocol markers) record nothing.
        """
        for request in member_requests(item):
            self.phase(time, request.transaction.tx_id, phase, pid)

    def submit(self, time: float, tx_id: str, pid: int, cross: bool) -> None:
        """Record a client submit (and classify the tx's lane).

        Opens the transaction's causal chain: the submit event becomes
        the dispatch context, so the request's wire send parents to it.
        The client clears the context again right after the send.
        """
        sampled = self._sampled
        if sampled is not None:
            seq = self._submit_seq
            self._submit_seq = seq + 1
            if seq % self._sample:
                return
            sampled.add(tx_id)
        if cross:
            self.cross_txs.add(tx_id)
        self.events.append((time, tx_id, "submit", pid))
        self._eid += 1
        self.event_meta.append((self._eid, self._ctx))
        self._ctx = self._eid

    def slot_open(self, time: float, pid: int, cluster: int, slot: int) -> None:
        """Open a consensus-slot span (first open per replica wins)."""
        key = (pid, slot)
        if key not in self._slot_open:
            self._slot_open[key] = (time, cluster)

    def slot_close(self, time: float, pid: int, slot: int) -> None:
        """Close a slot span at apply time (no-op if never opened here)."""
        opened = self._slot_open.pop((pid, slot), None)
        if opened is not None:
            self.slot_spans.append((pid, opened[1], slot, opened[0], time))

    def vc_open(self, time: float, pid: int, cluster: int, view: int) -> None:
        """Open a view-change span when a replica starts suspecting."""
        if pid not in self._vc_open:
            self._vc_open[pid] = (time, cluster, view)

    def vc_close(self, time: float, pid: int, view: int) -> None:
        """Close the replica's open view-change span on view install."""
        opened = self._vc_open.pop(pid, None)
        if opened is not None:
            self.vc_spans.append((pid, opened[1], view, opened[0], time))

    def count_send(self, type_name: str, count: int) -> None:
        """Bump the per-message-type outbound counter (Network hook)."""
        counters = self.sent_by_type
        counters[type_name] = counters.get(type_name, 0) + count

    # -- causal hooks ---------------------------------------------------

    def wire_send(self, time: float, src: int, dst: int, message: Any) -> None:
        """Record a unicast send node at its NIC departure time."""
        self._eid += 1
        eid = self._eid
        self.causal.append((eid, self._ctx, time, "send", src, message.__class__.__name__))
        link = (src << 21) | dst
        queue = self._links.get(link)
        if queue is None:
            queue = self._links[link] = []
        queue.append((eid, id(message)))

    def wire_multicast(self, time: float, src: int, dsts: list, message: Any) -> None:
        """Record one send node, fanned out to every destination link."""
        self._eid += 1
        eid = self._eid
        self.causal.append((eid, self._ctx, time, "send", src, message.__class__.__name__))
        links = self._links
        entry = (eid, id(message))
        for dst in dsts:
            link = (src << 21) | dst
            queue = links.get(link)
            if queue is None:
                queue = links[link] = []
            queue.append(entry)

    def begin_dispatch(self, time: float, message: Any, src: int, pid: int) -> None:
        """Open a recv context: events the handler records parent here.

        The recv node's parent is the matching send node, found by
        payload identity on the (FIFO) link queue; earlier unmatched
        entries were delivered to a crashed process (or the link is
        non-FIFO) and are discarded — their chains clip cleanly.
        """
        queue = self._links.get((src << 21) | pid)
        parent = 0
        if queue:
            ident = id(message)
            for index, (send_eid, send_ident) in enumerate(queue):
                if send_ident == ident:
                    parent = send_eid
                    del queue[: index + 1]
                    break
        self._eid += 1
        eid = self._eid
        self.causal.append((eid, parent, time, "recv", pid, message.__class__.__name__))
        self._ctx = eid

    def clear_context(self) -> None:
        """Close the current dispatch context (try/finally on dispatch)."""
        self._ctx = 0

    def quorum_vote(
        self, time: float, pid: int, kind: str, key: Any, voter: int, decided: bool
    ) -> None:
        """Record one quorum vote arrival at observer ``pid``.

        The vote that flips ``decided`` is the *deciding vote* and
        closes the key — later votes are dropped, so engines may pass
        their current (post-flip) decided state; duplicate voters are
        dropped too, keeping the median over distinct voters.  The key's
        votes reduce to its deciding row right there and are released.
        """
        track = (pid, kind, key)
        if track in self._quorum_done:
            return
        votes = self._quorum_votes.get(track)
        if votes is None:
            votes = self._quorum_votes[track] = []
        else:
            for _, seen in votes:
                if seen == voter:
                    return
        votes.append((time, voter))
        if decided:
            self._quorum_done.add(track)
            del self._quorum_votes[track]
            lag = time - median(t for t, _ in votes)
            self._deciding.append((pid, kind, key, voter, time, lag))

    # -- gauges ---------------------------------------------------------

    def start_gauges(self, system: Any) -> None:
        """Arm the rolling sampling timer on the system's simulator."""
        self._system = system
        if self.spec.gauge_interval > 0:
            self._gauge_timer = system.sim.every(
                self.spec.gauge_interval, self._sample_gauges
            )

    def _sample_gauges(self) -> None:
        system = self._system
        network = system.network
        replicas: dict[int, dict[str, int]] = {}
        for process in system.processes():
            log = getattr(process, "log", None)
            if log is None:
                continue
            batcher = getattr(process, "batcher", None)
            if batcher is not None:
                window, queue = batcher.in_flight, batcher.queued
            else:
                window = queue = 0
            cross = getattr(process, "cross", None)
            pending_cross = 0
            if cross is not None:
                pending_cross = sum(
                    1
                    for state in cross._states.values()
                    if not getattr(state, "decided", False)
                )
            replicas[int(process.pid)] = {
                "window": window,
                "queue": queue,
                "log": log.entry_count,
                "cross_pending": pending_cross,
            }
        self.gauge_samples.append(
            {
                "t": system.sim.now,
                "in_transit": network.messages_sent
                - network.messages_delivered
                - network.messages_dropped,
                "sent_total": network.messages_sent,
                "replicas": replicas,
                "sent_by_type": dict(self.sent_by_type),
            }
        )
        self.gauge_ticks += 1

    # -- reduction ------------------------------------------------------

    def finalize(self, system: Any, end_time: float) -> "TraceReport":
        """Stop sampling and reduce everything into a picklable report."""
        if self._gauge_timer is not None:
            self._gauge_timer.cancel()
            self._gauge_timer = None
        pid_clusters: dict[int, int] = {}
        for process in system.processes():
            cluster = getattr(process, "cluster", None)
            if cluster is not None:
                pid_clusters[int(process.pid)] = int(cluster.cluster_id)
        breakdown = attribute_phases(self.events, self.cross_txs)
        deciding = sorted(self._deciding, key=lambda row: (row[4], row[0], row[1], str(row[2])))
        critical = summarize_paths(
            iter_critical_paths(self.events, self.event_meta, self.causal, self.cross_txs)
        )
        return TraceReport(
            events=tuple(self.events),
            cross_txs=frozenset(self.cross_txs),
            slot_spans=tuple(self.slot_spans),
            open_slots=tuple(
                (pid, cluster, slot, opened)
                for (pid, slot), (opened, cluster) in sorted(self._slot_open.items())
            ),
            vc_spans=tuple(self.vc_spans),
            open_vcs=tuple(
                (pid, cluster, view, opened)
                for pid, (opened, cluster, view) in sorted(self._vc_open.items())
            ),
            gauges=tuple(self.gauge_samples),
            sent_by_type=dict(self.sent_by_type),
            gauge_ticks=self.gauge_ticks,
            gauge_interval=self.spec.gauge_interval,
            breakdown=breakdown,
            critical=critical,
            pid_clusters=pid_clusters,
            end_time=end_time,
            event_meta=tuple(self.event_meta),
            causal=tuple(self.causal),
            deciding=tuple(deciding),
        )


@dataclass(frozen=True)
class TraceReport:
    """The reduced, picklable trace attached to ``ScenarioResult.trace``.

    Holds only tuples, dicts, and frozen dataclasses so it survives
    ``ScenarioResult.detach()`` and the pooled-runner process boundary
    unchanged (serial-vs-pooled bit-identity is asserted with tracing
    enabled).
    """

    events: tuple[tuple[float, str, str, int], ...]
    cross_txs: frozenset[str]
    slot_spans: tuple[tuple[int, int, int, float, float], ...]
    open_slots: tuple[tuple[int, int, int, float], ...]
    vc_spans: tuple[tuple[int, int, int, float, float], ...]
    open_vcs: tuple[tuple[int, int, int, float], ...]
    gauges: tuple[dict[str, Any], ...]
    sent_by_type: dict[str, int]
    gauge_ticks: int
    gauge_interval: float
    breakdown: PhaseBreakdown
    #: aggregated critical-path stats.
    critical: CriticalSummary
    pid_clusters: dict[int, int] = field(default_factory=dict)
    end_time: float = 0.0
    #: ``(eid, parent)`` per phase event, aligned with :attr:`events`.
    event_meta: tuple[tuple[int, int], ...] = ()
    #: message send/recv nodes ``(eid, parent, t, kind, pid, label)``.
    causal: tuple[tuple[int, int, float, str, int, str], ...] = ()
    #: deciding-vote rows ``(pid, kind, key, voter, t, lag)``.
    deciding: tuple[tuple[int, str, Any, int, float, float], ...] = ()

    def summary(self) -> str:
        """One status line for ``ScenarioResult.summary()``."""
        line = (
            f"{len(self.events)} phase events over {self.breakdown.txs} txs, "
            f"{len(self.slot_spans)} slot spans, "
            f"{len(self.vc_spans)} view-change spans "
            f"({len(self.open_vcs)} open), {self.gauge_ticks} gauge ticks, "
            f"{self.breakdown.attributed_fraction:.1%} latency attributed"
        )
        if self.critical.txs:
            line += (
                f"; {self.critical.txs} critical paths "
                f"({self.critical.complete} complete, "
                f"wire {self.critical.wire_share:.0%})"
            )
        return line

    def phase_table(self) -> str:
        """The per-phase latency breakdown as an aligned text table."""
        return render_phase_table(self.breakdown)

    def phase_columns(self) -> dict[str, float]:
        """Additive per-phase CSV columns (see bench reporting).

        ``critpath_*`` columns ride along, so traced bench sweeps surface
        critical-path stats without the harness knowing about them.
        """
        columns = phase_columns(self.breakdown)
        columns.update(self.critpath_columns())
        return columns

    def critpath_columns(self) -> dict[str, float]:
        """Additive ``critpath_*`` CSV columns."""
        return critpath_columns(self.critical)

    def critical_paths(self):
        """Recompute the per-transaction critical paths on demand."""
        return compute_critical_paths(
            self.events, self.event_meta, self.causal, self.cross_txs
        )

    def critical_table(self) -> str:
        """The critical-path breakdown as an aligned text table."""
        return render_critical_table(self.critical)

    def straggler_table(self) -> str:
        """Deciding-vote straggler statistics as an aligned text table."""
        return render_straggler_table(straggler_summary(self.deciding))
