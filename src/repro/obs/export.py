"""Trace exporters: Chrome trace-event JSON and a JSONL event dump.

The Chrome writer emits the trace-event format that ``chrome://tracing``
and Perfetto load: one process group per cluster, one track (thread)
per replica, async ``"b"``/``"e"`` span pairs for consensus slots and
view changes (async, not stack-scoped ``B``/``E``, because pipelined
slots overlap without nesting), ``"i"`` instant events for request
phase milestones, and ``"C"`` counter events for the sampled gauges.
Spans still open at the end of the run are closed at the final
timestamp with ``args: {"open": true}`` so every ``"b"`` has a matching
``"e"`` — the validator checks that balance.

Every trace is causal (:mod:`repro.obs.causal`), so each
critical-path hop additionally becomes a flow ``"s"``/``"f"`` pair
(``cat: "flow"``) — Perfetto renders them as arrows between tracks, so
the latency-dominant chain of a transaction is visible as a connected
path through the spans.  Flow args are self-contained: every ``"f"``
carries the event id of its own ``"s"`` as ``parent``, so the validator
can check edge integrity (no dangling parents, no cycles) on the file
alone.  Deciding quorum votes are ``"i"`` instants (``cat:
"deciding"``) on the observer's track.

The JSONL writer dumps one self-describing JSON object per line (meta
header first, then phase/slot/view_change/causal/deciding/gauge rows)
— the format the report CLI and ad-hoc ``jq`` pipelines consume; phase
rows carry their ``eid``/``parent``, letting the report rebuild
critical paths offline.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recorder import TraceReport

__all__ = ["chrome_trace_events", "write_chrome_trace", "write_jsonl", "write_trace"]

#: Chrome process-group id for tracks with no cluster (clients, network).
GLOBAL_GROUP = -1


def _us(time: float) -> int:
    return int(round(time * 1e6))


def chrome_trace_events(report: "TraceReport") -> list[dict[str, Any]]:
    """Build the sorted ``traceEvents`` list for a report."""
    clusters = report.pid_clusters
    events: list[dict[str, Any]] = []
    seen_tracks: set[tuple[int, int]] = set()

    def track(pid: int) -> tuple[int, int]:
        group = clusters.get(pid, GLOBAL_GROUP)
        seen_tracks.add((group, pid))
        return group, pid

    def span(cat: str, name: str, span_id: str, pid: int, t0: float, t1: float, open_: bool) -> None:
        group, tid = track(pid)
        base = {"cat": cat, "name": name, "id": span_id, "pid": group, "tid": tid}
        events.append({**base, "ph": "b", "ts": _us(t0), "args": {}})
        close_args = {"open": True} if open_ else {}
        events.append({**base, "ph": "e", "ts": _us(t1), "args": close_args})

    for pid, _cluster, slot, t0, t1 in report.slot_spans:
        span("slot", f"slot {slot}", f"s{pid}:{slot}", pid, t0, t1, False)
    for pid, _cluster, slot, t0 in report.open_slots:
        span("slot", f"slot {slot}", f"s{pid}:{slot}", pid, t0, report.end_time, True)
    for pid, _cluster, view, t0, t1 in report.vc_spans:
        span("view_change", f"view-change v{view}", f"v{pid}:{view}", pid, t0, t1, False)
    for pid, _cluster, view, t0 in report.open_vcs:
        span("view_change", f"view-change v{view}", f"v{pid}:{view}", pid, t0, report.end_time, True)

    cross = report.cross_txs
    for time, tx, phase, pid in report.events:
        group, tid = track(pid)
        events.append({
            "ph": "i", "cat": "phase", "name": phase, "pid": group, "tid": tid,
            "ts": _us(time), "s": "t", "args": {"tx": tx, "cross": tx in cross},
        })

    for sample in report.gauges:
        ts = _us(sample["t"])
        events.append({
            "ph": "C", "cat": "gauge", "name": "net in-transit", "pid": GLOBAL_GROUP,
            "tid": 0, "ts": ts, "args": {"messages": sample["in_transit"]},
        })
        for pid, values in sample["replicas"].items():
            events.append({
                "ph": "C", "cat": "gauge", "name": f"r{pid} pipeline",
                "pid": clusters.get(pid, GLOBAL_GROUP), "tid": pid, "ts": ts,
                "args": {"window": values["window"], "queue": values["queue"]},
            })

    # Critical-path hops as Perfetto flow arrows.  Zero-width phase
    # edges are skipped (the instants above already mark them); wait
    # edges are kept — the arrow from submit to the clip point is
    # exactly the invisible queuing the analyzer charges the tx.
    flow_id = 0
    for path in report.critical_paths():
        for edge in path.edges:
            if edge.kind == "phase":
                continue
            flow_id += 1
            group0, tid0 = track(edge.src_pid)
            group1, tid1 = track(edge.pid)
            base = {"cat": "flow", "name": f"critpath:{edge.label}", "id": f"f{flow_id}"}
            events.append({
                **base, "ph": "s", "pid": group0, "tid": tid0, "ts": _us(edge.t0),
                "args": {"eid": edge.src_eid, "tx": path.tx},
            })
            events.append({
                **base, "ph": "f", "bp": "e", "pid": group1, "tid": tid1, "ts": _us(edge.t1),
                "args": {
                    "eid": edge.dst_eid, "parent": edge.src_eid, "kind": edge.kind,
                    "label": edge.label, "dur_ms": round((edge.t1 - edge.t0) * 1e3, 6),
                    "tx": path.tx, "cross": path.cross,
                },
            })

    for pid, kind, key, voter, time, lag in report.deciding:
        group, tid = track(pid)
        events.append({
            "ph": "i", "cat": "deciding", "name": f"deciding:{kind}", "pid": group, "tid": tid,
            "ts": _us(time), "s": "t",
            "args": {"voter": voter, "lag_ms": round(lag * 1e3, 6), "key": str(key)},
        })

    # Stable sort: a zero-length span's "b" was appended before its "e"
    # and stays first, so pairs never invert at equal timestamps.
    events.sort(key=lambda event: event["ts"])

    meta: list[dict[str, Any]] = []
    for group, tid in sorted(seen_tracks):
        name = f"replica {tid}" if group != GLOBAL_GROUP else f"client {tid}"
        meta.append({
            "ph": "M", "name": "thread_name", "pid": group, "tid": tid, "ts": 0,
            "args": {"name": name},
        })
    for group in sorted({group for group, _tid in seen_tracks} | {GLOBAL_GROUP}):
        label = f"cluster {group}" if group != GLOBAL_GROUP else "clients/network"
        meta.append({
            "ph": "M", "name": "process_name", "pid": group, "tid": 0, "ts": 0,
            "args": {"name": label},
        })
    return meta + events


def write_chrome_trace(report: "TraceReport", path: str) -> None:
    """Write the report as Chrome trace-event JSON at ``path``."""
    payload = {
        "traceEvents": chrome_trace_events(report),
        "displayTimeUnit": "ms",
        "otherData": {"sent_by_type": report.sent_by_type},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def jsonl_rows(report: "TraceReport") -> Iterator[dict[str, Any]]:
    """Yield the JSONL dump rows for a report, meta header first."""
    yield {
        "type": "meta",
        "end": report.end_time,
        "gauge_interval": report.gauge_interval,
        "sent_by_type": report.sent_by_type,
    }
    cross = report.cross_txs
    for (time, tx, phase, pid), (eid, parent) in zip(report.events, report.event_meta):
        yield {
            "type": "phase", "t": time, "tx": tx, "phase": phase, "pid": pid,
            "cross": tx in cross, "eid": eid, "parent": parent,
        }
    for pid, cluster, slot, t0, t1 in report.slot_spans:
        yield {
            "type": "slot", "pid": pid, "cluster": cluster, "slot": slot,
            "t0": t0, "t1": t1, "open": False,
        }
    for pid, cluster, slot, t0 in report.open_slots:
        yield {
            "type": "slot", "pid": pid, "cluster": cluster, "slot": slot,
            "t0": t0, "t1": report.end_time, "open": True,
        }
    for pid, cluster, view, t0, t1 in report.vc_spans:
        yield {
            "type": "view_change", "pid": pid, "cluster": cluster, "view": view,
            "t0": t0, "t1": t1, "open": False,
        }
    for pid, cluster, view, t0 in report.open_vcs:
        yield {
            "type": "view_change", "pid": pid, "cluster": cluster, "view": view,
            "t0": t0, "t1": report.end_time, "open": True,
        }
    for eid, parent, time, kind, pid, label in report.causal:
        yield {
            "type": "causal", "eid": eid, "parent": parent, "t": time,
            "kind": kind, "pid": pid, "label": label,
        }
    for pid, kind, key, voter, time, lag in report.deciding:
        yield {
            "type": "deciding", "pid": pid, "kind": kind, "key": str(key),
            "voter": voter, "t": time, "lag": lag,
        }
    for sample in report.gauges:
        yield {"type": "gauge", **sample}


def write_jsonl(report: "TraceReport", path: str) -> None:
    """Write the report as a JSONL event dump at ``path``."""
    with open(path, "w") as handle:
        for row in jsonl_rows(report):
            handle.write(json.dumps(row))
            handle.write("\n")


def write_trace(report: "TraceReport", path: str) -> None:
    """Write ``report`` to ``path``, picking the format by extension.

    ``*.jsonl`` gets the JSONL event dump; anything else gets Chrome
    trace-event JSON.
    """
    if path.endswith(".jsonl"):
        write_jsonl(report, path)
    else:
        write_chrome_trace(report, path)
