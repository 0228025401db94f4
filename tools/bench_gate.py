#!/usr/bin/env python3
"""Perf-regression gate: re-run the bench and compare against the baseline.

Reads the committed ``BENCH_kernel.json``, re-runs the fig8 scalability
sweep with the exact configuration embedded in the baseline (clients,
duration, warmup — restricted to ``--clusters``, by default the first
two cluster counts, to keep the gate quick), and compares the *peak
simulated tps* per cluster count.  Simulated throughput is
deterministic for a given configuration and seed, so this comparison is
host-independent: on an unchanged tree the rerun reproduces the
baseline numbers exactly, and the ``--tolerance`` headroom (default
10%) only absorbs intentional small protocol shifts between PRs — a
real regression of 20% or more always trips the gate.  Kernel events/s
and wall time are re-measured too but never gate (they are
host-dependent).

Every run appends one JSON line to the trajectory file
(``BENCH_trajectory.jsonl``) so the repo accumulates a perf history
across PRs.  Exit status: 0 when every compared point holds the line,
1 on regression, 2 on configuration errors.

Usage::

    PYTHONPATH=src python tools/bench_gate.py
    PYTHONPATH=src python tools/bench_gate.py --clusters 2 --tolerance 0.05
    PYTHONPATH=src python tools/bench_gate.py --baseline other.json --no-trajectory
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

if __package__ in (None, ""):  # runnable from the repo root without install
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.bench.perfbench import fig8_benchmark, kernel_benchmark  # noqa: E402


def compare(
    baseline_points: dict, current_points: dict, tolerance: float
) -> tuple[list[dict], bool]:
    """Compare per-cluster peak tps; pure, unit-testable.

    Returns ``(rows, ok)``: one row per cluster count present in both
    point maps, ``ok`` false when any current peak falls more than
    ``tolerance`` below its baseline.
    """
    rows: list[dict] = []
    ok = True
    for label in sorted(set(baseline_points) & set(current_points), key=int):
        base = float(baseline_points[label]["peak_tps"])
        cur = float(current_points[label]["peak_tps"])
        floor = base * (1.0 - tolerance)
        passed = cur >= floor
        ok = ok and passed
        rows.append(
            {
                "clusters": int(label),
                "baseline_tps": base,
                "current_tps": cur,
                "floor_tps": round(floor, 1),
                "ratio": round(cur / base, 4) if base else None,
                "ok": passed,
            }
        )
    return rows, ok


def collector_work() -> tuple[int, int]:
    """(collections run, objects collected) by this process's cyclic collector so far."""
    stats = gc.get_stats()
    return (
        sum(generation["collections"] for generation in stats),
        sum(generation["collected"] for generation in stats),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/bench_gate.py",
        description="Fail when peak simulated tps regresses against the baseline.",
    )
    parser.add_argument(
        "--baseline", default="BENCH_kernel.json",
        help="committed perfbench report to gate against (default BENCH_kernel.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRAC",
        help="allowed fractional drop below the baseline peak (default 0.10)",
    )
    parser.add_argument(
        "--clusters", type=int, nargs="*", default=None,
        help="cluster counts to re-run (default: first two from the baseline)",
    )
    parser.add_argument(
        "--trajectory", default="BENCH_trajectory.jsonl",
        help="JSONL perf-history file to append to (default BENCH_trajectory.jsonl)",
    )
    parser.add_argument(
        "--no-trajectory", action="store_true",
        help="skip appending to the trajectory file",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="process-pool size for the sweep"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"bench_gate: unreadable baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    fig8 = baseline.get("fig8")
    if not isinstance(fig8, dict) or not fig8.get("points"):
        print(f"bench_gate: {args.baseline} has no fig8 points", file=sys.stderr)
        return 2
    if not 0.0 <= args.tolerance < 1.0:
        print("bench_gate: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2

    clusters = args.clusters if args.clusters else list(fig8["clusters"])[:2]
    missing = [c for c in clusters if str(c) not in fig8["points"]]
    if missing:
        print(f"bench_gate: baseline has no points for clusters {missing}", file=sys.stderr)
        return 2

    print(
        f"bench_gate: re-running fig8 for clusters {clusters} "
        f"(clients {fig8['clients']}, duration {fig8['duration']}s, "
        f"tolerance {args.tolerance:.0%})"
    )
    kernel = kernel_benchmark(events=50_000)
    collector_before = collector_work()
    current = fig8_benchmark(
        clusters=clusters,
        clients=fig8["clients"],
        duration=fig8["duration"],
        warmup=fig8["warmup"],
        jobs=args.jobs,
    )
    sweep_gc_collections, sweep_gc_collected = (
        after - before for after, before in zip(collector_work(), collector_before)
    )
    rows, ok = compare(fig8["points"], current["points"], args.tolerance)

    header = f"{'clusters':>8s} {'baseline':>11s} {'current':>11s} {'floor':>11s} {'ratio':>7s}  verdict"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['clusters']:>8d} {row['baseline_tps']:>11.1f} "
            f"{row['current_tps']:>11.1f} {row['floor_tps']:>11.1f} "
            f"{row['ratio']:>7.3f}  {'ok' if row['ok'] else 'REGRESSION'}"
        )
    print(
        f"kernel: {kernel['events_per_second']:,.0f} events/s "
        f"(informational, host-dependent); "
        f"sweep wall {current['total_wall_s']}s, "
        f"{sweep_gc_collections} cyclic collections freeing {sweep_gc_collected} objects"
    )

    if not args.no_trajectory:
        entry = {
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "baseline": args.baseline,
            "tolerance": args.tolerance,
            "clusters": clusters,
            "points": {str(row["clusters"]): row["current_tps"] for row in rows},
            "baseline_points": {
                str(row["clusters"]): row["baseline_tps"] for row in rows
            },
            "kernel_events_per_second": kernel["events_per_second"],
            "sweep_wall_s": current["total_wall_s"],
            # The cyclic collector's work during the sweep, in this
            # process (a --jobs pool does its collecting elsewhere).
            "sweep_gc_collections": sweep_gc_collections,
            "sweep_gc_collected": sweep_gc_collected,
            "ok": ok,
        }
        with open(args.trajectory, "a") as handle:
            handle.write(json.dumps(entry))
            handle.write("\n")
        print(f"trajectory: appended to {args.trajectory}")

    if not ok:
        print("bench_gate: FAIL — peak tps regressed beyond tolerance", file=sys.stderr)
        return 1
    print("bench_gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
