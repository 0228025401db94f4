"""Command-line entry point: regenerate figures or run one-off scenarios.

Examples
--------
Regenerate Figure 6(a) with the quick client sweep::

    sharper-bench fig6a

Run a fuller sweep and save the raw points::

    sharper-bench fig6d --full --csv fig6d.csv

List every reproducible figure and every registered system::

    sharper-bench --list
    sharper-bench --list-systems

Run a declarative scenario — any registered system, any workload mix,
optionally crashing a primary or turning it Byzantine mid-run::

    sharper-bench --scenario sharper --cross-shard 0.2 --clients 32
    sharper-bench --scenario ahl --byzantine --crash-primary-at 0.1
    sharper-bench --scenario sharper --byzantine --attack equivocating-primary
    sharper-bench --scenario sharper --batch-size 16 --pipeline-depth 4
    sharper-bench --scenario sharper --trace --trace-out trace.json
    sharper-bench --list-attacks
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..adversary import available_behaviors
from ..api import DeploymentSpec, FaultSchedule, Scenario, available_systems
from ..common.errors import SharPerError
from ..common.types import FaultModel
from ..txn.workload import WorkloadConfig
from .experiments import (
    COALITION_ATTACK,
    FULL_CLIENTS,
    QUICK_CLIENTS,
    list_figures,
    run_figure,
    schedule_attack,
)
from .reporting import format_figure, write_csv

__all__ = ["main"]


def _build_parser(scenario_flags: bool = True) -> argparse.ArgumentParser:
    """The CLI parser; ``scenario_flags=False`` keeps only what figure mode reads."""
    parser = argparse.ArgumentParser(
        prog="sharper-bench",
        description="Regenerate the figures of the SharPer evaluation (Section 4).",
    )
    parser.add_argument("figures", nargs="*", help="figure ids, e.g. fig6a fig7d fig8a")
    parser.add_argument("--list", action="store_true", help="list available figures and exit")
    parser.add_argument(
        "--list-systems", action="store_true", help="list registered systems and exit"
    )
    parser.add_argument(
        "--list-attacks", action="store_true",
        help="list registered adversary behaviors and exit",
    )
    parser.add_argument("--full", action="store_true", help="use the full client sweep")
    parser.add_argument(
        "--duration", type=float, default=0.30, help="simulated seconds per point"
    )
    parser.add_argument(
        "--warmup", type=float, default=0.06, help="simulated warm-up seconds per point"
    )
    parser.add_argument("--csv", type=str, default=None, help="write raw points to this CSV file")
    parser.add_argument("--quiet", action="store_true", help="suppress per-point progress output")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run sweep points/seeds in an N-process pool (results are "
        "bit-identical to a serial run)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, metavar="K",
        help="average every point over K seeds (seed, seed+1, ...)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="simulation seed (figure mode: the first of the --seeds K seeds)",
    )

    scenario = parser.add_argument_group("scenario mode (repro.api.Scenario)")
    scenario.add_argument(
        "--scenario", metavar="SYSTEM", default=None,
        help="run one declarative scenario against a registered system",
    )
    if not scenario_flags:
        return parser
    scenario.add_argument(
        "--byzantine", action="store_true",
        help="scenario: use the Byzantine fault model (default: crash-only)",
    )
    scenario.add_argument(
        "--clusters", type=int, default=4, help="scenario: number of clusters"
    )
    scenario.add_argument(
        "--cross-shard", type=float, default=0.0,
        help="scenario: fraction of cross-shard transactions",
    )
    scenario.add_argument(
        "--clients", type=int, default=32, help="scenario: closed-loop client count"
    )
    scenario.add_argument(
        "--crash-primary-at", type=float, default=None, metavar="T",
        help="scenario: crash a cluster primary at simulated time T",
    )
    scenario.add_argument(
        "--crash-cluster", type=int, default=0, metavar="C",
        help="scenario: which cluster's primary to crash (default 0)",
    )
    scenario.add_argument(
        "--attack", metavar="NAME", default=None,
        help="scenario: arm this adversary (registry name, see --list-attacks). "
        "Replica behaviors attach to a cluster primary, client behaviors to "
        "the first client, and 'coalition' forms the default colluding pair "
        "(initiator-primary delayer + remote vote-withholder)",
    )
    scenario.add_argument(
        "--attack-at", type=float, default=0.05, metavar="T",
        help="scenario: simulated time at which the adversary activates (default 0.05)",
    )
    scenario.add_argument(
        "--attack-cluster", type=int, default=0, metavar="C",
        help="scenario: which cluster's primary turns Byzantine (default 0)",
    )

    batching = parser.add_argument_group("batching (repro.consensus.batching)")
    batching.add_argument(
        "--batch-size", type=int, default=None, metavar="B",
        help="scenario: client requests ordered per consensus slot "
        "(default 1 — the paper's one-transaction blocks; B > 1 lets the "
        "primary's pipeline seal up to B queued requests into one slot)",
    )
    batching.add_argument(
        "--pipeline-depth", type=int, default=None, metavar="D",
        help="scenario: slots a primary keeps in flight before queuing "
        "(default 32; binds only when --batch-size > 1 — at 1 the window "
        "is unbounded and every request is proposed on arrival)",
    )

    recovery = parser.add_argument_group("recovery (repro.recovery)")
    recovery.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="N",
        help="scenario: checkpoint every N decided slots (enables log "
        "compaction and snapshot-based state transfer; 0 disables)",
    )
    recovery.add_argument(
        "--crash-node-at", type=float, default=None, metavar="T",
        help="scenario: crash one replica at simulated time T (churn runs)",
    )
    recovery.add_argument(
        "--crash-node", type=int, default=2, metavar="N",
        help="scenario: which replica --crash-node-at crashes (default 2)",
    )
    recovery.add_argument(
        "--recover-node-at", type=float, default=None, metavar="T",
        help="scenario: recover the crashed replica at simulated time T "
        "(it state-transfers the missed slots and rejoins consensus)",
    )

    storage = parser.add_argument_group("storage (repro.storage)")
    storage.add_argument(
        "--archive", metavar="PATH", default=None,
        help="scenario: sqlite database that checkpoint GC spills pruned "
        "blocks into (requires --checkpoint-interval)",
    )
    storage.add_argument(
        "--audit-archive", action="store_true",
        help="scenario: after the run, re-verify the archive offline "
        "(hash-chain continuity + balance conservation replay)",
    )

    obs = parser.add_argument_group("observability (repro.obs)")
    obs.add_argument(
        "--trace", action="store_true",
        help="scenario: arm the flight recorder (protocol-phase spans, "
        "live gauges) and print the phase-latency breakdown after the run",
    )
    obs.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="scenario: write the trace to PATH — Chrome trace-event JSON "
        "(load in Perfetto / chrome://tracing), or a JSONL event dump "
        "when PATH ends in .jsonl (implies --trace)",
    )
    obs.add_argument(
        "--gauge-interval", type=float, default=0.01, metavar="S",
        help="scenario: gauge sampling period in simulated seconds "
        "(default 0.01; 0 disables the sampling timer, leaving a "
        "spans-only trace)",
    )
    obs.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="scenario: record phase/causal chain events for every Nth "
        "transaction only (default 1 = all), bounding trace size on "
        "long high-load runs; protocol outcome is unchanged",
    )
    return parser


def _deployment(args: argparse.Namespace) -> DeploymentSpec:
    """The deployment the scenario-mode flags describe; unset knobs keep their defaults."""
    trace_spec = None
    if args.trace or args.trace_out is not None:
        from ..obs import TraceSpec

        trace_spec = TraceSpec(gauge_interval=args.gauge_interval, sample=args.trace_sample)
    return DeploymentSpec(
        system=args.scenario,
        fault_model=FaultModel.BYZANTINE if args.byzantine else FaultModel.CRASH,
        num_clusters=args.clusters,
        checkpoint_interval=args.checkpoint_interval,
        batch_size=args.batch_size,
        pipeline_depth=args.pipeline_depth,
        archive=args.archive,
        trace=trace_spec,
    )


def _run_scenario(args: argparse.Namespace) -> int:
    faults = FaultSchedule()
    try:
        if args.crash_primary_at is not None:
            faults = faults.crash_primary(at=args.crash_primary_at, cluster=args.crash_cluster)
        if args.crash_node_at is not None:
            faults = faults.crash_node(at=args.crash_node_at, node_id=args.crash_node)
        if args.recover_node_at is not None:
            faults = faults.recover_node(at=args.recover_node_at, node_id=args.crash_node)
        if args.attack is not None:
            faults = schedule_attack(
                faults,
                args.attack,
                at=args.attack_at,
                num_clusters=args.clusters,
                byzantine=args.byzantine,
                cluster=args.attack_cluster,
            )
    except (SharPerError, ValueError) as error:
        print(f"sharper-bench: error: {error}", file=sys.stderr)
        return 2
    if faults and not args.quiet:
        for event in faults:
            print(f"  scheduled: {event.describe()}", file=sys.stderr)
    if args.audit_archive and not args.archive:
        print("sharper-bench: error: --audit-archive requires --archive", file=sys.stderr)
        return 2
    try:
        scenario = Scenario(
            deployment=_deployment(args),
            workload=WorkloadConfig(cross_shard_fraction=args.cross_shard),
            clients=args.clients,
            duration=args.duration,
            warmup=args.warmup,
            seed=args.seed,
            faults=faults,
        )
        result = scenario.run()
    except SharPerError as error:
        print(f"sharper-bench: error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.trace is not None:
        print()
        print(result.trace.phase_table())
        if result.trace.critical.txs:
            print()
            print(result.trace.critical_table())
            print()
            print(result.trace.straggler_table())
        if args.trace_out is not None:
            from ..obs import write_trace

            write_trace(result.trace, args.trace_out)
            print(f"trace written to {args.trace_out}")
    ok = result.ok
    if args.audit_archive:
        from ..storage import audit_archive

        report = audit_archive(result.system.archive)
        print(report.summary())
        for problem in report.problems:
            print(f"  problem: {problem}", file=sys.stderr)
        ok = ok and report.ok
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_systems:
        print("registered systems:")
        for name, system_cls in available_systems().items():
            print(f"  {name:10s} {system_cls.__module__}.{system_cls.__qualname__}")
        return 0
    if args.list_attacks:
        print("registered adversary behaviors (replica-target):")
        for name, behavior_cls in available_behaviors().items():
            blurb = (behavior_cls.__doc__ or behavior_cls.__name__).strip().splitlines()[0]
            print(f"  {name:26s} {blurb}")
        print("registered adversary behaviors (client-target):")
        for name, behavior_cls in available_behaviors("client").items():
            blurb = (behavior_cls.__doc__ or behavior_cls.__name__).strip().splitlines()[0]
            print(f"  {name:26s} {blurb}")
        print("composite attacks:")
        print(
            f"  {COALITION_ATTACK:26s} colluding pair: initiator-primary "
            "delay-attacker + remote vote-withholder on shared cross-shard targets"
        )
        return 0
    if args.scenario:
        if args.figures or args.csv or args.full or args.jobs != 1 or args.seeds != 1:
            parser.error(
                "--scenario cannot be combined with figure ids, --csv, --full, "
                "--jobs, or --seeds"
            )
        return _run_scenario(args)
    if args.list or not args.figures:
        print("available figures:")
        for figure_id in list_figures():
            print(f"  {figure_id}")
        return 0
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    # Figure mode reads none of the scenario flags: refuse them rather
    # than run a figure that silently ignored them.
    _, stray = _build_parser(scenario_flags=False).parse_known_args(argv)
    if stray:
        flag = stray[0].split("=")[0]
        parser.error(f"{flag} applies to scenario mode only (--scenario SYSTEM)")
    progress = None if args.quiet else (lambda line: print(f"  {line}", file=sys.stderr))
    counts = FULL_CLIENTS if args.full else QUICK_CLIENTS
    seeds = range(args.seed, args.seed + args.seeds)
    for figure_id in args.figures:
        result = run_figure(
            figure_id,
            client_counts=counts,
            duration=args.duration,
            warmup=args.warmup,
            progress=progress,
            jobs=args.jobs,
            seeds=seeds,
        )
        print(format_figure(result))
        print()
        if args.csv:
            target = Path(args.csv)
            if len(args.figures) > 1:
                target = target.with_name(f"{figure_id}_{target.name}")
            write_csv(result, str(target))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
