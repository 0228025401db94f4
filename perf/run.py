#!/usr/bin/env python3
"""The repository's benchmark: simulated results and host cost, per workload.

Three ways to run it, all from the repository root::

    python3 perf/run.py [--seed N] [--quick] [--out FILE]
        every workload, end to end (untraced) and per layer (traced),
        each in a fresh subprocess, one after the other; prints every
        metric by name with its unit, writes FILE (default
        .perf_out/results.json) and exits non-zero if a check failed.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, one mode — what the driver of BENCHMARK.json
        calls.  The last line of standard output is one JSON object:
        {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
        metrics are the end-to-end ones, with --trace 1 the per-layer ones.

    python3 perf/run.py --compare A.json B.json
        every (end-to-end metric, workload) ratio of two result files,
        each with its base and a verdict against the metric's bound.

Two kinds of number come out, never mixed in one metric: *simulated*
results (``sim_*``, units ``tx/sim_s`` / ``sim_ms``) are the
reproduction's output and are deterministic for a seed; *host* numbers
(``host_*``, ``setup_s`` and every ``*_us_*`` / ``*_s`` layer time) say
how fast this implementation computes them.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from repro.bench.perfbench import kernel_benchmark

    import report
    from layers import Tracer
    from measure import reference_ns_per_op, run_once
    from workloads import WORKLOADS, scenario_hash
except ImportError as error:  # no program to measure: fail before printing a result
    raise SystemExit(f"perf/run.py: cannot import the program under test from {SRC}: {error}")

#: fewest saturating repeats a full run takes a median over.
MIN_REPEATS = 3
#: operations of one reference-loop timing (about 0.3 s; see measure.py).
REFERENCE_OPS = 400_000
#: share of the traced run phase the per-layer metrics must account for.
MIN_ACCOUNTED = 0.95


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# one workload, untraced: end-to-end metrics
# ----------------------------------------------------------------------
def _obs_off(scenario):
    """The same scenario with the flight recorder off."""
    deployment = dataclasses.replace(scenario.deployment, trace=None)
    return dataclasses.replace(scenario, deployment=deployment)


def _until(seconds: float, started: float, fewest: int, one) -> list[dict]:
    """Call ``one()`` until ``seconds`` of wall time since ``started`` are used up."""
    runs = []
    while True:
        began = time.monotonic()
        runs.append(one())
        took = time.monotonic() - began
        if len(runs) >= fewest and time.monotonic() - started + took > seconds:
            return runs


def _check_runs(problems: list[str], label: str, runs: list[dict], same_as=None) -> None:
    """Collect each run's failed checks; all runs must repeat ``same_as`` (default: the first)."""
    reference = same_as or runs[0]
    for index, run in enumerate(runs):
        problems.extend(f"{label}[{index}]: {problem}" for problem in run["problems"])
        for group in ("sim", "counts"):
            if run[group] != reference[group]:
                problems.append(f"{label}[{index}]: {group} differs from the reference run")


def _check_bypass(problems: list[str], scenario, counts: dict) -> None:
    """Layers a workload is built to bypass must have done no work."""
    if scenario.workload.cross_shard_fraction == 0 and counts["cross_initiated"]:
        problems.append("cross-shard instances started on a 0% cross-shard workload")
    if (scenario.deployment.batch_size or 1) == 1 and counts["txs_per_slot"] != 1:
        problems.append(f"txs_per_slot = {counts['txs_per_slot']} with batching off")
    if not scenario.faults and counts["view_changes"]:
        problems.append(f"{counts['view_changes']} view changes on a fault-free workload")


def measure_end_to_end(workload, seed: int, seconds: float, quick: bool) -> dict:
    """Untraced runs of one workload → end-to-end metrics, noise and checks."""
    started = time.monotonic()
    scenarios = workload.scenarios(seed, quick)
    saturating = scenarios["saturating"]
    problems: list[str] = []
    ops = REFERENCE_OPS // 4 if quick else REFERENCE_OPS
    singles = {kind: run_once(scenarios[kind]) for kind in ("latency", "light")}
    if saturating.deployment.trace:
        singles["obs_off"] = run_once(_obs_off(saturating))
    reference = [reference_ns_per_op(ops)]

    def repeat() -> dict:
        run = run_once(saturating)
        reference.append(reference_ns_per_op(ops))
        around = (reference[-2] + reference[-1]) / 2
        run["host"]["refops_per_commit"] = run["host"]["cpu_us_per_commit"] * 1e3 / around
        return run

    repeats = _until(seconds, started, 1 if quick else MIN_REPEATS, repeat)
    _check_runs(problems, "saturating", repeats)
    for kind, run in singles.items():
        _check_runs(problems, kind, [run])
    first = repeats[0]
    if "obs_off" in singles and singles["obs_off"]["sim"] != first["sim"]:
        problems.append("simulated results differ between recorder on and off")
    _check_bypass(problems, saturating, first["counts"])

    noise = {
        "host_refops_per_commit": [run["host"]["refops_per_commit"] for run in repeats],
        # raw microseconds: what the ratio above is made of; printed, not gated
        "host_cpu_us_per_commit": [run["host"]["cpu_us_per_commit"] for run in repeats],
        "setup_s": [run["host"]["setup_s"] for run in repeats],
    }
    values = {
        "sim_tps": first["sim"]["tps"],
        "sim_p50_ms": singles["latency"]["sim"]["p50_ms"],
        "sim_p99_ms": singles["latency"]["sim"]["p99_ms"],
        "sim_light_p50_ms": singles["light"]["sim"]["p50_ms"],
        "sim_served_share": first["sim"]["served_share"],
        "host_refops_per_commit": statistics.median(noise["host_refops_per_commit"]),
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(noise["setup_s"]),
    }
    runs = repeats + list(singles.values())
    return {
        "values": values,
        "noise": noise,
        "problems": problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "detail": {
            "repeats": len(repeats),
            "samples": {
                "saturating": first["sim"]["samples"],
                "latency": singles["latency"]["sim"]["samples"],
                "light": singles["light"]["sim"]["samples"],
            },
            "sim_stall_ms": first["sim"]["stall_ms"],
            "reference_ns_per_op": reference,
            "scenario_hashes": {kind: scenario_hash(s) for kind, s in scenarios.items()},
        },
    }


# ----------------------------------------------------------------------
# one workload, traced: per-layer metrics
# ----------------------------------------------------------------------
def _kernel_ns_per_event(quick: bool) -> float:
    """Best of two runs of the repository's own event-kernel microbenchmark."""
    events = 50_000 if quick else 200_000
    return min(1e9 / kernel_benchmark(events=events)["events_per_second"] for _ in range(2))


def _pass_times(run: dict) -> dict[str, float]:
    """Self-time metrics of one traced pass, plus the share they account for.

    Span names read ``<layer>:<what>`` (see layers.py); ``pick`` selects a
    layer's spans, optionally only those whose ``<what>`` starts with a
    prefix (``on.`` = message handlers), and remembers what was selected so
    that time in spans no metric reports lowers ``perf.accounted_share``.
    """
    spans = run["profile"]["spans"]
    commits = run["counts"]["commits"]
    used: set[str] = set()

    def pick(layer: str, what: str = "") -> list[str]:
        names = [name for name in spans if name.startswith(f"{layer}:{what}")]
        used.update(names)
        return names

    def self_us(names: list[str]) -> float:
        return sum(spans[name]["self_ns"] for name in names) / 1e3

    def calls(names: list[str]) -> int:
        return sum(spans[name]["calls"] for name in names)

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    times: dict[str, float] = {}
    for layer in (
        "sim.network", "sim.process", "consensus.paxos", "consensus.pbft",
        "core.cross_shard", "consensus.log", "consensus.batching", "core.client",
    ):  # fmt: skip
        times[f"{layer}.self_us_per_commit"] = self_us(pick(layer)) / commits
    for layer in ("consensus.paxos", "consensus.pbft", "core.cross_shard"):
        times[f"{layer}.handler_calls_per_commit"] = calls(pick(layer, "on.")) / commits
    times["sim.network.fanout"] = per(run["counts"]["messages"], calls(pick("sim.network")))
    times["consensus.view_change.self_us_total"] = self_us(pick("consensus.view_change"))
    applying = pick("core.replica", "SharPerReplica.after_decide")
    times["core.replica.apply_us_per_commit"] = self_us(applying) / commits
    times["core.replica.intake_us_per_commit"] = self_us(pick("core.replica", "on.")) / commits
    times["txn.execute_us_per_commit"] = self_us(pick("txn")) / commits
    appends = pick("ledger", "ClusterView.append")
    times["ledger.append_us_per_block"] = per(
        self_us(appends + pick("ledger", "Block.")), calls(appends)
    )
    times["ledger.prune_us_total"] = self_us(pick("ledger", "ClusterView.prune"))
    takes = pick("recovery", "CheckpointManager.take")
    times["recovery.checkpoint_us_each"] = per(self_us(takes), calls(takes))
    others = [name for name in pick("recovery") if name not in takes]
    times["recovery.protocol_us_total"] = self_us(others)
    writes = [name for name in pick("storage") if name.endswith((".deposit", ".withdraw"))]
    digests = pick("storage", "StateStore.state_digest")
    spills = [name for name in pick("storage") if name not in writes + digests]
    times["storage.write_us_per_commit"] = self_us(writes) / commits
    times["storage.digest_ms_per_checkpoint"] = per(self_us(digests) / 1e3, calls(takes))
    times["storage.snapshot_archive_ms_total"] = self_us(spills) / 1e3
    loop_ns = run["run_ns"] - run["profile"]["top_ns"]
    times["sim.loop_share"] = loop_ns / run["run_ns"]
    accounted_ns = loop_ns + sum(spans[name]["self_ns"] for name in used)
    times["perf.accounted_share"] = accounted_ns / run["run_ns"]
    return times


def measure_layers(workload, seed: int, seconds: float, quick: bool) -> dict:
    """One untraced run for exact counts, then traced passes for self times."""
    started = time.monotonic()
    kernel_before = _kernel_ns_per_event(quick)
    saturating = workload.scenarios(seed, quick)["saturating"]
    problems: list[str] = []
    untraced = run_once(saturating)
    base = run_once(_obs_off(saturating)) if saturating.deployment.trace else untraced
    passes = _until(seconds, started, 1, lambda: run_once(saturating, Tracer()))
    kernel_after = _kernel_ns_per_event(quick)

    _check_runs(problems, "untraced", [untraced])
    _check_bypass(problems, saturating, untraced["counts"])
    _check_runs(problems, "traced", passes, same_as=untraced)
    per_pass = [_pass_times(run) for run in passes]
    times = {key: statistics.median(t[key] for t in per_pass) for key in per_pass[0]}
    if times["perf.accounted_share"] < MIN_ACCOUNTED:
        problems.append(
            f"layers account for {times['perf.accounted_share']:.1%} of the traced run phase"
        )
    cross_calls = times["core.cross_shard.handler_calls_per_commit"]
    if saturating.workload.cross_shard_fraction == 0 and cross_calls:
        problems.append("cross-shard handlers ran on a 0% cross-shard workload")

    counts, sim, host = untraced["counts"], untraced["sim"], untraced["host"]
    commits = counts["commits"]
    catch_up = [delay for run in passes for delay in run["catch_up_ms"]]
    traced_cpu_s = statistics.median(run["host"]["run_cpu_s"] for run in passes)
    cross_started = max(counts["cross_initiated"], 1)
    values = {
        "sim.events_per_commit": counts["events"] / commits,
        "sim.events_per_cpu_s": counts["events"] / host["run_cpu_s"],
        "sim.kernel_ns_per_event": min(kernel_before, kernel_after),
        "sim.network.msgs_per_commit": counts["messages"] / commits,
        "sim.network.dropped_share": counts["dropped"] / max(counts["messages"], 1),
        "sim.process.deliveries_per_commit": counts["deliveries"] / commits,
        "sim.process.max_util": counts["max_util"],
        "sim.process.mean_util": counts["mean_util"],
        "core.cross_shard.retries_per_cross": counts["cross_retries"] / cross_started,
        "core.cross_shard.aborted": counts["cross_aborted"],
        "core.cross_shard.late_commits": counts["cross_late_commits"],
        "core.cross_shard.sim_cross_p50_ms": sim["cross_p50_ms"],
        "consensus.log.peak_entries": counts["log_peak_entries"],
        "consensus.batching.txs_per_slot": counts["txs_per_slot"],
        "consensus.batching.peak_queue": counts["batch_peak_queue"],
        "consensus.view_change.completed": counts["view_changes"],
        "core.replica.failed_executions": counts["failed_executions"],
        "core.client.resubmissions": counts["resubmissions"],
        "ledger.blocks_per_commit": counts["blocks"] / commits,
        "ledger.audit_s": host["audit_s"],
        "storage.resident_accounts": counts["resident_accounts"],
        "storage.archive_blocks": counts["archive_blocks"],
        "storage.peak_ledger_blocks": counts["peak_ledger_blocks"],
        "recovery.checkpoints_stable": counts["checkpoints_stable"],
        "recovery.entries_truncated": counts["entries_truncated"],
        "recovery.state_transfers_completed": counts["state_transfers_completed"],
        "recovery.catch_up_ms": statistics.median(catch_up) if catch_up else 0.0,
        "obs.overhead_ratio": host["cpu_us_per_commit"] / base["host"]["cpu_us_per_commit"],
        "obs.finalize_s": host["obs_finalize_s"],
        "obs.events_per_commit": untraced["obs_events"] / commits,
        "api.run_cpu_us_per_commit": host["cpu_us_per_commit"],
        "api.drain_s": host["drain_s"],
        "api.verify_s": host["verify_s"],
        "perf.trace_overhead_ratio": traced_cpu_s / host["run_cpu_s"],
        **times,
    }
    runs = [untraced] + passes + ([base] if base is not untraced else [])
    return {
        "values": values,
        "noise": {},
        "problems": problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "detail": {
            "passes": len(passes),
            "kernel_ns_per_event": {"before": kernel_before, "after": kernel_after},
            "obs_overhead_base_us_per_commit": base["host"]["cpu_us_per_commit"],
            "spans": passes[0]["profile"]["spans"],
        },
        "raw_spans": passes[0]["profile"]["raw_spans"],
    }


# ----------------------------------------------------------------------
# driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: int, quick: bool, out: str | None
) -> int:
    """Measure one workload in this process; print the result line; 0 if correct."""
    spec = load_spec()
    section = {row["name"]: row for row in spec["per_layer" if trace else "end_to_end"]}
    measure = measure_layers if trace else measure_end_to_end
    try:
        result = measure(WORKLOADS[name], seed, 0.0 if quick else seconds, quick)
    except Exception:  # the boundary: a broken workload is a failed result, not a crash
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    problems = result["problems"]
    missing = sorted(set(section) - set(result["values"]))
    extra = sorted(set(result["values"]) - set(section))
    if missing or extra:
        problems.append(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")
    metrics = {
        key: {"value": result["values"][key], "unit": section[key]["unit"]}
        for key in section
        if key in result["values"]
    }
    noise = {
        key: report.summarize(values, section.get(key, {}).get("bound"))
        for key, values in result["noise"].items()
    }
    print(f"== {name}  seed {seed}  {'traced, per layer' if trace else 'untraced, end to end'}")
    print("\n".join(report.format_metrics(metrics)))
    if noise:
        print("noise over the repeats of this run:")
        print("\n".join(report.format_noise(noise)))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if out:
        detail = {
            "workload": name,
            "trace": trace,
            "correct": not problems,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "noise": noise,
            "problems": problems,
            "detail": result["detail"],
        }
        if "raw_spans" in result:  # beside, not inside, "detail": run_all merges that
            detail["raw_spans"] = result["raw_spans"]
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(detail) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": max(result["attempted"], 1),
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


# ----------------------------------------------------------------------
# all workloads: one subprocess per (workload, mode)
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_all(seed: int, seconds: float, quick: bool, out: str) -> int:
    """Every workload, untraced then traced, each in its own subprocess."""
    out_path = Path(out)
    results = {
        "manifest": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "seconds": seconds,
            "quick": quick,
            "regenerate": f"python3 perf/run.py --seed {seed} --seconds {seconds:g}"
            + (" --quick" if quick else ""),
        },
        "workloads": {},
    }
    exit_code = 0
    for name in WORKLOADS:
        row = {"correct": True, "attempted": 0, "failed": 0, "problems": [], "noise": {}}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            part = out_path.with_name(f"{out_path.stem}.{name}.trace{trace}.json")
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(part),
            ] + (["--quick"] if quick else [])  # fmt: skip
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(done.stderr)
            try:
                detail = json.loads(part.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                detail = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                          "noise": {}, "problems": [f"no result from {' '.join(command)}"],
                          "detail": {}}  # fmt: skip
            row["correct"] = row["correct"] and detail["correct"] and done.returncode == 0
            row["attempted"] += detail["attempted"]
            row["failed"] += detail["failed"]
            row["problems"] += detail["problems"]
            row["noise"].update(detail["noise"])
            row[section] = detail["metrics"]
            row[f"{section}_detail"] = detail["detail"]
        row["failed_share"] = row["failed"] / row["attempted"] if row["correct"] else 1.0
        print(f"   {name}: failed_share {row['failed_share']:g} "
              f"({row['failed']} of {row['attempted']} requests), "
              f"{'correct' if row['correct'] else 'CHECKS FAILED'}")  # fmt: skip
        if not row["correct"]:
            exit_code = 1
        results["workloads"][name] = row
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out_path}  (compare two with: python3 perf/run.py --compare A.json B.json)")
    return exit_code


def run_compare(first: str, second: str) -> int:
    """Print the comparison of two result files; non-zero if anything regressed."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (first, second))
    lines, ok = report.compare(a, b, load_spec()["end_to_end"])
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall seconds one (workload, mode) run measures for")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: untraced, end-to-end metrics; 1: traced, per-layer metrics")  # fmt: skip
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 repeat, durations / 3; numbers are not comparable")  # fmt: skip
    parser.add_argument("--out", help="result file (all workloads: default .perf_out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files instead of measuring")  # fmt: skip
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.workload:
        return run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.quick, args.out
        )
    out = args.out or str(ROOT / ".perf_out" / "results.json")
    return run_all(args.seed, args.seconds, args.quick, out)


if __name__ == "__main__":
    raise SystemExit(main())
