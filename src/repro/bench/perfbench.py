"""Kernel microbenchmark + fig8 sweep timing: the repo's perf trajectory.

Run as a module and it writes ``BENCH_kernel.json``::

    PYTHONPATH=src python -m repro.bench.perfbench            # full config
    PYTHONPATH=src python -m repro.bench.perfbench --quick    # CI smoke
    PYTHONPATH=src python -m repro.bench.perfbench --jobs 4   # pooled sweep

Two workloads are timed:

* **kernel** — a pure event-loop microbenchmark (self-rescheduling event
  chains, no protocol logic) reporting events fired per wall-clock
  second, straight from :attr:`Simulator.events_per_second`;
* **fig8** — the paper's scalability sweep (SharPer, crash model, 10%
  cross-shard, 2–5 clusters, quick client sweep), reporting wall and CPU
  seconds per point and in total;
* **batching** — the request-batching curve (batch size × clusters ×
  pipeline depth, :mod:`repro.consensus.batching`), reporting the peak
  *simulated* tps of every configuration against the batch=1 baseline
  measured in the same run.  Simulated tps is deterministic, so the
  batching speedup is host-independent; the per-configuration wall
  times use the same interleaved min-of-N discipline as fig8.

The file also embeds :data:`BASELINE` — the same workloads measured on
the pre-refactor tree (commit ``0781ed5``, interleaved back-to-back with
the refactored tree on the same host) — and the speedup of the current
run against it.  Baselines are host-specific: on a different machine the
ratio is indicative, not a like-for-like comparison, and ``--quick``
runs a smaller configuration whose numbers are never comparable.  Future
PRs extend the trajectory by re-running this benchmark and comparing
against the recorded history.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Sequence

from ..common.config import ProtocolTuning
from ..common.types import FaultModel
from ..sim.simulator import Simulator
from .harness import ExperimentSpec, run_curve

__all__ = [
    "BASELINE",
    "batching_benchmark",
    "fig8_benchmark",
    "kernel_benchmark",
    "main",
]

#: Pre-refactor measurements (commit 0781ed5) recorded on the original
#: development host, interleaved with the refactored tree to cancel out
#: machine-speed drift.  These are the reference the acceptance speedup
#: is computed against.
BASELINE: dict = {
    "commit": "0781ed5",
    "description": (
        "pre-refactor tree: dataclass Event kernel, per-destination send "
        "loops, isinstance dispatch chains, serial-only harness"
    ),
    "methodology": (
        "min over 3 runs interleaved back-to-back with the refactored "
        "tree on the same single-core host (the host's effective speed "
        "drifts by >20%, so compare min-to-min from the same window; "
        "kernel events/sec is the max observed). Interleaved pairs "
        "measured 2.04x-2.40x on the fig8 sweep."
    ),
    "kernel": {"events": 200_000, "events_per_second": 370_842.0},
    "fig8": {
        "clusters": [2, 3, 4, 5],
        "clients": [12, 48, 120],
        "duration": 0.30,
        "warmup": 0.06,
        "total_wall_s": 26.29,
        "total_cpu_s": 25.78,
    },
}


def kernel_benchmark(n_chains: int = 50, events: int = 200_000) -> dict:
    """Pure event-kernel throughput: self-rescheduling callback chains."""
    sim = Simulator(seed=0)
    per_chain = events // n_chains

    def chain(remaining: int) -> None:
        if remaining:
            sim.schedule(0.001, chain, remaining - 1)

    for index in range(n_chains):
        sim.schedule(index * 1e-5, chain, per_chain - 1)
    sim.run()
    return {
        "events": sim.processed_events,
        "wall_s": round(sim.run_wall_time, 4),
        "events_per_second": round(sim.events_per_second, 1),
    }


def fig8_benchmark(
    clusters: Sequence[int] = (2, 3, 4, 5),
    clients: Sequence[int] = (12, 48, 120),
    duration: float = 0.30,
    warmup: float = 0.06,
    jobs: int = 1,
    repeats: int = 1,
) -> dict:
    """Wall/CPU time per fig8 scalability point (SharPer, 10% cross-shard).

    With ``repeats > 1`` every point is timed that many times and the
    *minimum* is reported — the standard way to cancel scheduler and
    host-speed noise out of a wall-clock benchmark (matching how the
    embedded baseline was recorded).
    """
    points: dict[str, dict[str, float]] = {}
    total_wall = total_cpu = 0.0
    for num_clusters in clusters:
        spec = ExperimentSpec(
            system="sharper",
            fault_model=FaultModel.CRASH,
            num_clusters=num_clusters,
            cross_shard_fraction=0.1,
            duration=duration,
            warmup=warmup,
        )
        wall = cpu = None
        peak = 0.0
        for _ in range(max(repeats, 1)):
            wall_start, cpu_start = time.perf_counter(), time.process_time()
            curve = run_curve(spec, list(clients), jobs=jobs)
            run_wall = time.perf_counter() - wall_start
            run_cpu = time.process_time() - cpu_start
            if wall is None or run_wall < wall:
                wall = run_wall
            if cpu is None or run_cpu < cpu:
                cpu = run_cpu
            peak = curve.peak().throughput
        total_wall += wall
        total_cpu += cpu
        points[str(num_clusters)] = {
            "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3),
            "peak_tps": round(peak, 1),
        }
    return {
        "clusters": list(clusters),
        "clients": list(clients),
        "duration": duration,
        "warmup": warmup,
        "jobs": jobs,
        "repeats": max(repeats, 1),
        "points": points,
        "total_wall_s": round(total_wall, 3),
        "total_cpu_s": round(total_cpu, 3),
    }


def batching_benchmark(
    clusters: Sequence[int] = (2, 5),
    batch_sizes: Sequence[int] = (1, 8, 16),
    depths: Sequence[int] = (1, 4),
    clients: Sequence[int] = (120, 480, 960),
    duration: float = 0.30,
    warmup: float = 0.06,
    jobs: int = 1,
    repeats: int = 1,
) -> dict:
    """Batch-size × clusters × pipeline-depth throughput curve.

    Every configuration sweeps the full client ladder and records its
    *peak simulated tps* — the metric the batching pipeline exists to
    move, and one that is deterministic for a given seed, so the
    speedup against the batch=1 baseline is host-independent.  Wall
    times are informational only and follow the interleaved min-of-N
    discipline: each repeat round-robins through every configuration
    before the next repeat starts, so host-speed drift (>20% on the
    reference machine) hits all configurations alike, and the minimum
    per configuration is reported.

    At ``batch_size=1`` the pipeline's window is unbounded (chunks of
    one never queue), so pipeline depth is inert there and only the
    first depth is run — it serves as the in-run baseline that
    ``speedup_vs_unbatched`` is computed against per cluster count.
    """
    configs: list[dict] = []
    for num_clusters in clusters:
        for batch_size in batch_sizes:
            for depth in depths if batch_size > 1 else depths[:1]:
                configs.append(
                    {
                        "key": f"c{num_clusters}/b{batch_size}/d{depth}",
                        "clusters": num_clusters,
                        "batch_size": batch_size,
                        "depth": depth,
                        "spec": ExperimentSpec(
                            system="sharper",
                            fault_model=FaultModel.CRASH,
                            num_clusters=num_clusters,
                            cross_shard_fraction=0.1,
                            duration=duration,
                            warmup=warmup,
                            tuning=ProtocolTuning(
                                batch_size=batch_size, pipeline_depth=depth
                            ),
                        ),
                    }
                )
    walls: dict[str, float] = {}
    curves: dict[str, object] = {}
    for _ in range(max(repeats, 1)):
        for config in configs:  # interleaved: drift hits every config alike
            wall_start = time.perf_counter()
            curve = run_curve(config["spec"], list(clients), jobs=jobs)
            run_wall = time.perf_counter() - wall_start
            key = config["key"]
            if key not in walls or run_wall < walls[key]:
                walls[key] = run_wall
            curves[key] = curve  # simulated results are deterministic
    points: dict[str, dict] = {}
    baseline_peak: dict[str, float] = {}
    best: dict[str, dict] = {}
    for config in configs:
        key = config["key"]
        peak = curves[key].peak()
        point = {
            "clusters": config["clusters"],
            "batch_size": config["batch_size"],
            "pipeline_depth": config["depth"],
            "peak_tps": round(peak.throughput, 1),
            "peak_clients": peak.clients,
            "wall_s": round(walls[key], 3),
        }
        points[key] = point
        label = str(config["clusters"])
        if config["batch_size"] == 1:
            baseline_peak[label] = point["peak_tps"]
        if label not in best or point["peak_tps"] > best[label]["peak_tps"]:
            best[label] = point
    speedup = {
        label: round(best[label]["peak_tps"] / baseline_peak[label], 2)
        for label in baseline_peak
        if baseline_peak[label]
    }
    return {
        "clusters": list(clusters),
        "batch_sizes": list(batch_sizes),
        "pipeline_depths": list(depths),
        "clients": list(clients),
        "duration": duration,
        "warmup": warmup,
        "jobs": jobs,
        "repeats": max(repeats, 1),
        "methodology": (
            "peak simulated tps per configuration over the client ladder "
            "(deterministic, host-independent); wall_s is the interleaved "
            "min over repeats. batch=1 is the in-run unbatched baseline."
        ),
        "points": points,
        "baseline_peak_tps": baseline_peak,
        "best": best,
        "speedup_vs_unbatched": speedup,
    }


def run(quick: bool = False, jobs: int = 1, repeats: int = 1) -> dict:
    """Execute both benchmarks and assemble the report dictionary."""
    kernel = kernel_benchmark(events=50_000 if quick else 200_000)
    if quick:
        fig8 = fig8_benchmark(
            clusters=(2, 3), clients=(8, 24), duration=0.06, warmup=0.012,
            jobs=jobs, repeats=repeats,
        )
        batching = batching_benchmark(
            clusters=(2,), batch_sizes=(1, 8), depths=(4,), clients=(8, 24),
            duration=0.06, warmup=0.012, jobs=jobs, repeats=repeats,
        )
    else:
        fig8 = fig8_benchmark(jobs=jobs, repeats=repeats)
        batching = batching_benchmark(jobs=jobs, repeats=repeats)
    comparable = not quick
    baseline_fig8 = BASELINE["fig8"]
    report = {
        "schema": "sharper-perfbench/1",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "quick": quick,
        "kernel": kernel,
        "fig8": fig8,
        "batching": batching,
        "baseline": BASELINE,
        "speedup": {
            "comparable_to_baseline": comparable,
            "kernel_events_per_second": round(
                kernel["events_per_second"] / BASELINE["kernel"]["events_per_second"], 3
            ),
            "fig8_wall": (
                round(baseline_fig8["total_wall_s"] / fig8["total_wall_s"], 3)
                if comparable
                else None
            ),
            "fig8_cpu": (
                round(baseline_fig8["total_cpu_s"] / fig8["total_cpu_s"], 3)
                if comparable
                else None
            ),
        },
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perfbench",
        description="Measure kernel events/sec and fig8 sweep wall time.",
    )
    parser.add_argument(
        "--output", default="BENCH_kernel.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny configuration for CI smoke runs (not baseline-comparable)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="process-pool size for the fig8 sweep"
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="time every fig8 point N times and report the minimum",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick, jobs=args.jobs, repeats=args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    speedup = report["speedup"]
    print(f"kernel     : {report['kernel']['events_per_second']:,.0f} events/s "
          f"({speedup['kernel_events_per_second']}x baseline)")
    print(f"fig8 sweep : {report['fig8']['total_wall_s']}s wall, "
          f"{report['fig8']['total_cpu_s']}s cpu")
    batching = report["batching"]
    for label in sorted(batching["speedup_vs_unbatched"], key=int):
        winner = batching["best"][label]
        print(
            f"batching   : {batching['speedup_vs_unbatched'][label]}x peak tps "
            f"vs batch=1 at {label} clusters "
            f"(batch {winner['batch_size']}, depth {winner['pipeline_depth']}, "
            f"{winner['peak_tps']:,.0f} tps)"
        )
    if speedup["comparable_to_baseline"]:
        print(f"speedup    : {speedup['fig8_wall']}x wall, {speedup['fig8_cpu']}x cpu "
              "vs pre-refactor baseline")
    else:
        print("speedup    : n/a (quick mode is not baseline-comparable)")
    print(f"report     : {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke job
    raise SystemExit(main())
