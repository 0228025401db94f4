"""One measured run of one scenario, driven from outside the program.

:func:`run_once` walks the public ``Scenario`` lifecycle by hand —
``build_system`` → ``spawn_clients`` (→ recorder arming) →
``start_clients`` / ``faults.arm`` → ``sim.run(until)`` → ``drain`` →
``audit`` — so that each phase can be timed separately, and reads the
layers' public counters when the run phase ends.  It returns a flat
``dict`` with four groups of keys:

* ``sim``    — simulated results (deterministic for a seed);
* ``counts`` — exact per-layer operation counts (deterministic);
* ``host``   — CPU seconds per phase (``time.process_time``);
* ``problems`` — failed correctness checks, as strings (empty = correct).

With a :class:`~layers.Tracer` the setup and run phase execute under its
wrappers and the result gains ``profile`` (span aggregates) and
``run_ns`` (run-phase wall time on the tracer's clock).
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from heapq import heappop, heappush

from repro.api.faults import RecoverNode
from repro.common.metrics import MetricsCollector
from repro.obs import FlightRecorder, normalize_trace
from repro.recovery.stats import collect_recovery_stats
from repro.storage.stats import collect_storage_stats

__all__ = ["STALL_GAP", "reference_ns_per_op", "run_once", "stall_seconds"]

#: a commit-free gap at least this long (simulated seconds) is a stall.
STALL_GAP = 0.020
#: period of the read-only catch-up poller (simulated seconds).
POLL_INTERVAL = 0.001


def reference_ns_per_op(ops: int) -> float:
    """CPU nanoseconds per operation of a fixed reference loop of ``ops`` operations.

    The host this runs on drifts by several percent over minutes, which
    no amount of repeating removes from a raw CPU time.  Timing the same
    fixed work right before and after every repeat and dividing by it
    does: both see the same host.  The loop is shaped like the program's
    hot path (a heap of ``[time, sequence, callback, args]`` entries whose
    callbacks reschedule themselves and touch a dict) but shares **no
    code** with it, so speeding the program up never moves the yardstick.
    """
    heap: list[list] = []
    state = {"sequence": 0}
    seen: dict[int, int] = {}

    def fire(when: float, chain: int, remaining: int) -> None:
        seen[chain] = seen.get(chain, 0) + 1
        if remaining:
            state["sequence"] += 1
            heappush(heap, [when + 0.001, state["sequence"], fire, (chain, remaining - 1)])

    chains = 50
    for chain in range(chains):
        state["sequence"] += 1
        heappush(heap, [chain * 1e-5, state["sequence"], fire, (chain, ops // chains - 1)])
    start = time.process_time()
    while heap:
        when, _, callback, args = heappop(heap)
        callback(when, *args)
    return (time.process_time() - start) / ops * 1e9


def stall_seconds(commit_times, start: float, end: float) -> float:
    """Time in ``[start, end]`` covered by commit-free gaps of at least ``STALL_GAP``.

    The gap from the last commit to ``end`` counts, so a system that
    never resumes service is stalled to the end of the window.
    """
    stalled = 0.0
    previous = start
    for moment in sorted(t for t in commit_times if start <= t <= end) + [end]:
        if moment - previous >= STALL_GAP:
            stalled += moment - previous
        previous = moment
    return stalled


class _CatchUpPoller:
    """Times how long a recovered replica takes to reach its peers' height.

    A read-only ``sim.every`` observer: each firing is one extra
    simulator event (counted in ``fired`` so event counts can be
    reconciled) and touches no protocol state.  Used in the traced pass
    only.
    """

    def __init__(self, system, recoveries) -> None:
        self.fired = 0
        self.caught_up_after: list[float] = []
        self._system = system
        self._pending = sorted((event.time, event.node_id) for event in recoveries)
        self._timer = system.sim.every(POLL_INTERVAL, self._poll) if self._pending else None

    def _poll(self) -> None:
        self.fired += 1
        now = self._system.sim.now
        replicas = self._system.replicas
        for entry in list(self._pending):
            recovered_at, node_id = entry
            if now < recovered_at:
                continue
            node = replicas[node_id]
            peers = [
                peer.chain.height
                for peer in self._system.replicas_of(node.cluster_id)
                if peer is not node and not peer.crashed
            ]
            if not peers or node.chain.height >= min(peers):
                self.caught_up_after.append(now - recovered_at)
                self._pending.remove(entry)
        if not self._pending:
            self._timer.cancel()


def _counts(system, scenario, commits: int) -> dict:
    """Public counters of every layer, read when the run phase ends."""
    sim, network = system.sim, system.network
    replicas = system.processes()
    elapsed = scenario.duration
    utilization = [replica.utilization(elapsed) for replica in replicas]
    batchers = [replica.batcher.stats() for replica in replicas if replica.batcher is not None]
    slots = sum(b["batches_proposed"] + b["singletons_proposed"] for b in batchers)
    batched = sum(b["batched_requests"] + b["singletons_proposed"] for b in batchers)
    crosses = [replica.cross for replica in replicas]
    initiated = sum(cross.initiated for cross in crosses)
    recovery = collect_recovery_stats(system)
    storage = collect_storage_stats(system)
    return {
        "commits": commits,
        "events": sim.processed_events,
        "messages": network.messages_sent,
        "dropped": network.messages_dropped,
        "deliveries": sum(p.messages_received for p in replicas)
        + sum(client.messages_received for client in system.clients),
        "max_util": max(utilization),
        "mean_util": statistics.fmean(utilization),
        "blocks": sum(view.height for view in system.views().values()),
        "log_peak_entries": max(replica.log.peak_entry_count for replica in replicas),
        "txs_per_slot": batched / slots if slots else 1.0,
        "batch_peak_queue": max((b["peak_queue"] for b in batchers), default=0),
        "view_changes": sum(r.intra.view_change.view_changes_completed for r in replicas),
        "failed_executions": sum(replica.failed_executions for replica in replicas),
        "resubmissions": sum(client.resubmissions for client in system.clients),
        "cross_initiated": initiated,
        "cross_retries": sum(cross.retries for cross in crosses),
        "cross_aborted": sum(cross.aborted for cross in crosses),
        "cross_late_commits": sum(cross.late_commits for cross in crosses),
        "checkpoints_taken": recovery.checkpoints_taken,
        "checkpoints_stable": recovery.checkpoints_stable,
        "entries_truncated": recovery.entries_truncated,
        "state_transfers_completed": recovery.state_transfers_completed,
        "resident_accounts": storage.resident_accounts,
        "archive_blocks": storage.archive_blocks,
        "peak_ledger_blocks": storage.peak_ledger_blocks,
    }


def run_once(scenario, tracer=None) -> dict:
    """Run ``scenario`` once; see the module docstring for the result."""
    cpu = time.process_time
    problems: list[str] = []
    gc.collect()
    with tracer.installed() if tracer is not None else nullcontext():
        setup_start = cpu()
        system = scenario.build_system()
        metrics = MetricsCollector(warmup=scenario.warmup, measure_until=scenario.duration)
        clients = system.spawn_clients(
            scenario.clients, metrics, retry_timeout=scenario.retry_timeout
        )
        recorder = None
        trace_spec = normalize_trace(scenario.deployment.trace)
        if trace_spec is not None:
            recorder = FlightRecorder(trace_spec)
            system.arm_recorder(recorder)
            recorder.start_gauges(system)
        setup_s = cpu() - setup_start

        poller = None
        if tracer is not None:
            recoveries = [e for e in scenario.faults if isinstance(e, RecoverNode)]
            poller = _CatchUpPoller(system, recoveries)
            tracer.reset()
        run_start, run_start_ns = cpu(), time.perf_counter_ns()
        system.start_clients(clients)
        scenario.faults.arm(system)
        end = system.sim.run(until=scenario.duration)
        run_cpu_s, run_ns = cpu() - run_start, time.perf_counter_ns() - run_start_ns
        profile = tracer.snapshot() if tracer is not None else None

    commits = len(metrics.samples)
    stats = metrics.finalize(end)
    counts = _counts(system, scenario, commits)
    if poller is not None:
        counts["events"] -= poller.fired
    steady = [s for s in metrics.samples if scenario.warmup <= s.submitted_at < scenario.duration]
    cross = [s.latency for s in steady if s.cross_shard]
    stalled = stall_seconds(
        (s.committed_at for s in metrics.samples), scenario.warmup, scenario.duration
    )

    drain_start = cpu()
    system.drain(scenario.drain_grace)
    drain_s = cpu() - drain_start

    verify_start = cpu()
    audit = system.audit()
    audit_s = cpu() - verify_start
    problems.extend(f"ledger audit: {problem}" for problem in audit.problems)
    if system.total_balance() != system.expected_total_balance():
        problems.append(
            f"balance not conserved: {system.total_balance()} != "
            f"{system.expected_total_balance()}"
        )
    if scenario.audit_safety:
        problems.extend(f"safety audit: {p}" for p in system.safety_audit().problems)
    verify_s = cpu() - verify_start
    completed = len(metrics.samples)
    refused = sum(client.failed for client in system.clients)
    if metrics.submitted != completed:
        problems.append(f"submitted {metrics.submitted} != completed {completed} after drain")
    if refused:
        problems.append(f"{refused} requests completed with a failure reply")
    if commits == 0 or stats.committed == 0:
        problems.append("no transaction committed in the measured window")

    finalize_s, obs_events = 0.0, 0
    if recorder is not None:
        finalize_start = cpu()
        report = recorder.finalize(system, system.sim.now)
        finalize_s = cpu() - finalize_start
        obs_events = len(report.events) + len(report.causal)
    if system.archive is not None:
        system.archive.close()

    result = {
        "sim": {
            "tps": stats.throughput,
            "p50_ms": stats.p50_latency * 1e3,
            "p99_ms": stats.p99_latency * 1e3,
            "samples": stats.committed,
            "stall_ms": stalled * 1e3,
            "served_share": 1.0 - stalled / (scenario.duration - scenario.warmup),
            "cross_p50_ms": statistics.median(cross) * 1e3 if cross else 0.0,
        },
        "counts": counts,
        "host": {
            "setup_s": setup_s,
            "run_cpu_s": run_cpu_s,
            "cpu_us_per_commit": run_cpu_s / max(commits, 1) * 1e6,
            "drain_s": drain_s,
            "audit_s": audit_s,
            "verify_s": verify_s,
            "obs_finalize_s": finalize_s,
        },
        "obs_events": obs_events,
        "attempted": metrics.submitted,
        "failed": metrics.submitted - completed + refused,
        "problems": problems,
    }
    if tracer is not None:
        result["profile"] = profile
        result["run_ns"] = run_ns
        result["catch_up_ms"] = [delay * 1e3 for delay in poller.caught_up_after]
    return result
