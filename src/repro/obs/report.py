"""Offline trace summariser: ``python -m repro.obs.report TRACE``.

Reads a trace file written by :mod:`repro.obs.export` — either Chrome
trace-event JSON or the JSONL event dump, detected from the content —
re-runs the phase attribution over the recorded phase events, and
prints the per-phase latency table plus span and gauge counts.  When
the trace carries causal data, the critical-path breakdown and the
deciding-vote straggler table follow: JSONL traces hold the full
event/causal graph, so critical paths are rebuilt from scratch with
:func:`repro.obs.causal.iter_critical_paths`; Chrome traces hold the
already-walked paths as flow events, which are re-aggregated directly.
Pure reading: nothing here runs a simulation.

``--format csv`` emits one flat machine-readable table instead (phase,
critpath, and straggler rows tagged by a ``section`` column) so traced
sweeps can be diffed as CI artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain
from typing import Any

from .causal import (
    NodeTable,
    iter_critical_paths,
    render_critical_table,
    render_straggler_table,
    straggler_summary,
    summarize_edge_records,
    summarize_paths,
)
from .phases import attribute_phases, render_phase_table

__all__ = ["load_phase_events", "main"]

#: Columns of the ``--format csv`` output (one schema for every section).
CSV_FIELDS = ["section", "scope", "name", "count", "avg_ms", "p50_ms", "p95_ms", "share"]


def _rows_from_chrome(payload: dict[str, Any]) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for event in payload.get("traceEvents", []):
        ph = event.get("ph")
        cat = event.get("cat")
        args = event.get("args", {})
        if ph == "i" and cat == "phase":
            rows.append({
                "type": "phase", "t": event["ts"] / 1e6, "tx": args.get("tx", ""),
                "phase": event["name"], "pid": event.get("tid", 0),
                "cross": bool(args.get("cross")),
            })
        elif ph == "f" and cat == "flow":
            rows.append({
                "type": "flow", "tx": args.get("tx", ""), "cross": bool(args.get("cross")),
                "kind": args.get("kind", ""), "label": args.get("label", ""),
                "dur": args.get("dur_ms", 0.0) / 1e3,
            })
        elif ph == "i" and cat == "deciding":
            rows.append({
                "type": "deciding", "pid": event.get("tid", 0),
                "kind": event.get("name", "deciding:?").split(":", 1)[-1],
                "key": args.get("key", ""), "voter": args.get("voter", -1),
                "t": event["ts"] / 1e6, "lag": args.get("lag_ms", 0.0) / 1e3,
            })
        elif ph == "b":
            rows.append({"type": "span", "cat": cat})
    return rows


def load_phase_events(path: str) -> list[dict[str, Any]]:
    """Load a trace file into normalised rows (format auto-detected)."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        return _rows_from_chrome(json.loads(text))
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


def _critical_summary(rows: list[dict[str, Any]]):
    """Rebuild the critical-path summary from normalised rows, if any.

    JSONL rows carry the full causal graph (phase rows with
    ``eid``/``parent`` plus ``causal`` message nodes): re-walk it.
    Chrome rows carry the walked paths as ``flow`` edges: re-aggregate
    them (a tx is complete when no ``wait`` edge survived the walk).
    """
    causal_rows = [row for row in rows if row.get("type") == "causal"]
    phase_rows = [row for row in rows if row.get("type") == "phase"]
    if causal_rows and phase_rows and "eid" in phase_rows[0]:
        nodes = NodeTable.from_rows(chain(
            ((row["eid"], row.get("parent", 0), row["t"], row["phase"], row.get("pid", 0),
              row["tx"]) for row in phase_rows),
            ((row["eid"], row.get("parent", 0), row["t"], row["kind"], row.get("pid", 0),
              row.get("label", "")) for row in causal_rows),
        ))
        cross_txs = {row["tx"] for row in phase_rows if row.get("cross")}
        return summarize_paths(iter_critical_paths(nodes, cross_txs))
    summary = summarize_edge_records(
        (row["tx"], row["cross"], row["kind"], f"{row['kind']}:{row['label']}", row["dur"])
        for row in rows
        if row.get("type") == "flow"
    )
    return summary if summary.txs else None


def _deciding_rows(rows: list[dict[str, Any]]):
    return tuple(
        (row.get("pid", 0), row.get("kind", ""), row.get("key", ""),
         row.get("voter", -1), row.get("t", 0.0), row.get("lag", 0.0))
        for row in rows
        if row.get("type") == "deciding"
    )


def _write_csv(breakdown, critical, stragglers) -> None:
    writer = csv.DictWriter(sys.stdout, fieldnames=CSV_FIELDS, restval="")
    writer.writeheader()
    for scope, stats in (("intra", breakdown.intra), ("cross", breakdown.cross)):
        for entry in stats:
            writer.writerow({
                "section": "phase", "scope": scope, "name": entry.phase, "count": entry.count,
                "avg_ms": f"{entry.avg_ms:.4f}", "p50_ms": f"{entry.p50_ms:.4f}",
                "p95_ms": f"{entry.p95_ms:.4f}", "share": f"{entry.share:.6f}",
            })
    if critical is not None:
        for scope, stats in (("intra", critical.intra), ("cross", critical.cross)):
            for entry in stats:
                writer.writerow({
                    "section": "critpath", "scope": scope, "name": entry.label,
                    "count": entry.count, "avg_ms": f"{entry.avg_ms:.4f}",
                    "share": f"{entry.share:.6f}",
                })
    for entry in stragglers:
        writer.writerow({
            "section": "straggler", "scope": entry.kind, "name": entry.pid,
            "count": entry.count, "avg_ms": f"{entry.avg_lag_ms:.4f}",
            "p95_ms": f"{entry.max_lag_ms:.4f}",
        })


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: print the summary tables for a trace file."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise a flight-recorder trace (Chrome JSON or JSONL).",
    )
    parser.add_argument("trace", help="trace file written via --trace-out")
    parser.add_argument(
        "--format",
        choices=("table", "csv"),
        default="table",
        help="text tables (default) or one flat CSV on stdout",
    )
    args = parser.parse_args(argv)

    rows = load_phase_events(args.trace)
    phase_events = [
        (row["t"], row["tx"], row["phase"], row.get("pid", 0))
        for row in rows
        if row.get("type") == "phase"
    ]
    cross_txs = {
        row["tx"] for row in rows if row.get("type") == "phase" and row.get("cross")
    }
    if not phase_events:
        print(f"{args.trace}: no phase events found")
        return 1

    breakdown = attribute_phases(phase_events, cross_txs)
    critical = _critical_summary(rows)
    stragglers = straggler_summary(_deciding_rows(rows))

    if args.format == "csv":
        _write_csv(breakdown, critical, stragglers)
        return 0

    print(render_phase_table(breakdown))
    if critical is not None:
        print()
        print(render_critical_table(critical))
    if stragglers:
        print()
        print(render_straggler_table(stragglers))

    slots = sum(1 for row in rows if row.get("type") == "slot")
    slots += sum(1 for row in rows if row.get("type") == "span" and row.get("cat") == "slot")
    vcs = sum(1 for row in rows if row.get("type") == "view_change")
    vcs += sum(
        1 for row in rows if row.get("type") == "span" and row.get("cat") == "view_change"
    )
    gauges = sum(1 for row in rows if row.get("type") == "gauge")
    print(
        f"{len(phase_events)} phase events, {slots} slot spans, "
        f"{vcs} view-change spans, {gauges} gauge samples"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    raise SystemExit(main())
