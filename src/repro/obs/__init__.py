"""Observability: the simulation-time flight recorder (``repro.obs``).

The recorder is armed per-scenario through ``DeploymentSpec(trace=...)``
by swapping a value, the same seam as the ``RequestGuard``: until then
every process and the network hold :data:`INERT_RECORDER`, whose hooks
do nothing, so untraced runs stay bit-identical to the
pre-observability tree (asserted differentially in
``tests/integration/test_obs_scenarios.py``).

Four pillars:

* **request lifecycle spans** — every client request leaves timestamped
  phase events (submit, primary enqueue, batch seal, propose, prepare
  quorum, commit quorum, apply, reply — plus the cross-shard lane
  variants), reduced to a per-phase latency breakdown
  (:class:`~repro.obs.phases.PhaseStats`, intra vs cross) attached to
  ``ScenarioResult.trace``;
* **causal commit graphs** — every traced message carries a causal
  parent event id; :mod:`repro.obs.causal` reconstructs each committed
  transaction's critical path (span equals measured e2e latency
  exactly), attributes time per edge, and aggregates which replica's
  deciding vote completed each quorum and how far behind the median it
  ran;
* **live gauges** — a rolling simulator timer samples per-replica
  pipeline window occupancy, pending-queue depth, ordering-log size,
  undecided cross-shard slots, network in-transit messages, and
  per-message-type send counters as time series;
* **exporters** — Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto; one track per replica, spans for slots and view changes,
  flow arrows along critical paths) and a JSONL event dump, summarised
  by ``python -m repro.obs.report``.
"""

from .causal import (
    CritEdge,
    CriticalSummary,
    EdgeStats,
    StragglerStats,
    TxCriticalPath,
    critical_paths,
    render_critical_table,
    render_straggler_table,
    straggler_summary,
    summarize_paths,
)
from .phases import PhaseBreakdown, PhaseStats, attribute_phases, render_phase_table
from .recorder import (
    INERT_RECORDER, FlightRecorder, InertRecorder, TraceReport, TraceSpec, normalize_trace,
)
from .export import write_chrome_trace, write_jsonl, write_trace

__all__ = [
    "CritEdge",
    "CriticalSummary",
    "EdgeStats",
    "FlightRecorder",
    "INERT_RECORDER",
    "InertRecorder",
    "PhaseBreakdown",
    "PhaseStats",
    "StragglerStats",
    "TraceReport",
    "TraceSpec",
    "TxCriticalPath",
    "attribute_phases",
    "critical_paths",
    "normalize_trace",
    "render_critical_table",
    "render_phase_table",
    "render_straggler_table",
    "straggler_summary",
    "summarize_paths",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
