"""End-to-end observability scenarios: the flight-recorder acceptance tests.

The recorder's contract has three halves:

* **Tracing off is free** — an untraced run and a spans-only traced run
  (``TraceSpec(gauge_interval=0)``) are bit-identical: same event count,
  same messages, same commits, same per-replica state digests, under
  batching and under churn.  Gauge sampling adds *only* its own timer
  events: the protocol outcome is unchanged and the simulator event
  count grows by exactly ``gauge_ticks``.
* **Tracing on is complete** — a traced 5-cluster batched run yields a
  Chrome-trace export with balanced spans that passes the validator,
  and a phase table attributing >=95% of end-to-end latency.
* **Elections are observable** — view-change spans bound a liveness
  stall: when a coalition larger than ``f`` mutes during the election
  (ROADMAP residue), the stalled election shows up as *open* spans and
  the view never advances, while the control run (no mutes) closes its
  spans and installs a new view.

Pattern follows ``test_batching_scenarios.py``'s differential style.
"""

import dataclasses
import hashlib
import sys

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario, run_scenarios
from repro.common.types import ClusterId, FaultModel
from repro.obs import TraceSpec, write_chrome_trace
from repro.obs.export import chrome_trace_events
from repro.txn.workload import WorkloadConfig


def traced_scenario(
    trace=None,
    batch_size: int | None = None,
    pipeline_depth: int | None = None,
    fault_model: FaultModel = FaultModel.CRASH,
    num_clusters: int = 3,
    cross_shard_fraction: float = 0.1,
    clients: int = 24,
    duration: float = 0.6,
    seed: int = 5,
    faults: FaultSchedule | None = None,
    checkpoint_interval: int | None = None,
    **overrides,
) -> Scenario:
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            fault_model=fault_model,
            num_clusters=num_clusters,
            batch_size=batch_size,
            pipeline_depth=pipeline_depth,
            checkpoint_interval=checkpoint_interval,
            trace=trace,
        ),
        workload=WorkloadConfig(
            cross_shard_fraction=cross_shard_fraction, accounts_per_shard=64
        ),
        clients=clients,
        duration=duration,
        seed=seed,
        faults=faults or FaultSchedule(),
        **overrides,
    )


def replica_digests(result) -> dict:
    return {
        pid: replica.store.state_digest()
        for pid, replica in result.system.replicas.items()
    }


def assert_identical(first, second) -> None:
    """Bit-identity in every observable dimension, event count included."""
    first.raise_if_failed()
    second.raise_if_failed()
    assert first.stats.committed == second.stats.committed
    assert first.stats.committed_cross == second.stats.committed_cross
    assert first.chain_heights == second.chain_heights
    assert first.total_balance == second.total_balance
    assert replica_digests(first) == replica_digests(second)
    assert (
        first.system.network.messages_sent == second.system.network.messages_sent
    )
    assert first.system.sim.processed_events == second.system.sim.processed_events


def load_validator():
    sys.path.insert(0, "tools")
    try:
        from validate_trace import validate
    finally:
        sys.path.pop(0)
    return validate


SPANS_ONLY = TraceSpec(gauge_interval=0)


class TestTracedAcceptance:
    def test_traced_five_cluster_batched_run(self, tmp_path):
        """Acceptance: 5 clusters, batching on, full tracing — the Chrome
        export validates, spans balance, and the phase table attributes
        >=95% of end-to-end latency."""
        result = traced_scenario(
            trace=True, num_clusters=5, batch_size=8, pipeline_depth=4
        ).run()
        result.raise_if_failed()
        report = result.trace
        assert report is not None
        assert result.stats.committed > 0
        assert report.breakdown.txs > 0
        assert report.breakdown.attributed_fraction >= 0.95
        assert len(report.slot_spans) > 0
        assert report.gauge_ticks > 0
        # Per-phase table covers both lanes and renders the milestones.
        table = report.phase_table()
        assert "decided" in table and "cross_start" in table
        # The Chrome export is balanced and passes the validator.
        events = chrome_trace_events(report)
        opens = sum(1 for event in events if event["ph"] == "b")
        closes = sum(1 for event in events if event["ph"] == "e")
        assert opens == closes > 0
        path = str(tmp_path / "trace.json")
        write_chrome_trace(report, path)
        assert load_validator()(path) == []
        # Gauges made it into the export as counter tracks.
        assert any(event["ph"] == "C" for event in events)

    def test_trace_report_rides_the_result(self):
        result = traced_scenario(trace=SPANS_ONLY, duration=0.3).run()
        assert result.trace.breakdown.txs > 0
        assert result.trace.breakdown.attributed_fraction >= 0.95
        assert result.stats.submitted >= result.stats.committed > 0


class TestZeroOverheadOff:
    def test_spans_only_trace_is_bit_identical_plain(self):
        """A spans-only traced run takes the exact untraced event path."""
        off = traced_scenario().run()
        on = traced_scenario(trace=SPANS_ONLY).run()
        assert_identical(off, on)
        assert on.trace is not None and off.trace is None

    def test_spans_only_trace_is_bit_identical_batched(self):
        off = traced_scenario(batch_size=8, pipeline_depth=4).run()
        on = traced_scenario(
            trace=SPANS_ONLY, batch_size=8, pipeline_depth=4
        ).run()
        assert_identical(off, on)

    def test_spans_only_trace_is_bit_identical_under_churn(self):
        def faults():
            return (
                FaultSchedule()
                .crash_node(at=0.2, node_id=2)
                .recover_node(at=0.5, node_id=2)
            )

        off = traced_scenario(faults=faults(), seed=7, duration=0.8).run()
        on = traced_scenario(
            trace=SPANS_ONLY, faults=faults(), seed=7, duration=0.8
        ).run()
        assert_identical(off, on)

    def test_gauge_sampling_adds_exactly_its_own_ticks(self):
        """Gauges only read state: the protocol outcome is unchanged and
        the event count grows by exactly the sampling timer's firings."""
        off = traced_scenario().run()
        on = traced_scenario(trace=True).run()
        on.raise_if_failed()
        assert on.stats.committed == off.stats.committed
        assert on.chain_heights == off.chain_heights
        assert replica_digests(on) == replica_digests(off)
        assert on.system.network.messages_sent == off.system.network.messages_sent
        assert on.trace.gauge_ticks > 0
        assert (
            on.system.sim.processed_events
            == off.system.sim.processed_events + on.trace.gauge_ticks
        )


class TestPooledTracing:
    def test_serial_and_pooled_traced_runs_agree(self):
        """The report is picklable: pooled runs return the same trace."""
        base = traced_scenario(
            trace=True, batch_size=8, pipeline_depth=4, duration=0.3
        )
        scenarios = [dataclasses.replace(base, seed=seed) for seed in (1, 2)]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for s, p in zip(serial, pooled):
            assert p.system is None  # detached across the process boundary
            assert s.stats.committed == p.stats.committed
            assert s.chain_heights == p.chain_heights
            assert p.trace is not None
            assert s.trace == p.trace


def mute_coalition_scenario(mutes: int) -> Scenario:
    """Cluster 0's primary goes silent; ``mutes`` backups additionally
    mute during the resulting election (cluster 0 is pids 0..3, f=1)."""
    faults = FaultSchedule().make_primary_byzantine(
        at=0.05, cluster=0, behavior="silent-primary"
    )
    for node in range(1, 1 + mutes):
        faults = faults.make_byzantine(
            at=0.05, node=node, behavior="mute-during-view-change"
        )
    return traced_scenario(
        trace=SPANS_ONLY,
        fault_model=FaultModel.BYZANTINE,
        clients=16,
        duration=1.2,
        retry_timeout=0.2,
        faults=faults,
    )


class TestMuteCoalitionStallsElection:
    """ROADMAP residue: adaptive mute attacks on the election itself.

    With ``f`` or fewer mutes the view change tolerates them by design;
    a coalition of *more than* ``f`` mutes (plus the silent primary)
    drops the correct electorate below quorum and stalls the election.
    The recorder bounds the stall: the suspicion opens view-change
    spans that never close.
    """

    def test_control_without_mutes_elects_a_new_view(self):
        result = mute_coalition_scenario(mutes=0).run()
        assert result.safety is not None and not result.safety.problems
        attacked = result.system.replicas_of(ClusterId(0))
        assert any(
            replica.intra.view >= 1
            for replica in attacked
            if not replica.byzantine
        )
        # The election completed: cluster 0's spans opened and closed.
        assert any(span[1] == 0 for span in result.trace.vc_spans)

    def test_coalition_beyond_f_stalls_the_election(self):
        result = mute_coalition_scenario(mutes=2).run()  # 2 mutes > f=1
        # Safe but not live: no conflicting commits anywhere.
        assert result.safety is not None and not result.safety.problems
        attacked = result.system.replicas_of(ClusterId(0))
        correct = [r for r in attacked if not r.byzantine]
        assert correct and all(r.intra.view == 0 for r in correct)
        # The stall is visible and bounded: the correct replicas' spans
        # are still open at end of run, stretching to the horizon.
        open_spans = [span for span in result.trace.open_vcs if span[1] == 0]
        assert open_spans
        assert all(opened < result.trace.end_time for *_, opened in open_spans)
        # The other clusters are unaffected and keep committing.
        assert result.stats.committed > 0
        for cluster in (1, 2):
            assert any(
                replica.log.entry_count > 0
                for replica in result.system.replicas_of(ClusterId(cluster))
            )


def trace_fingerprint(report) -> str:
    """sha256 over what the hooks wrote, in the order they wrote it."""
    blob = repr((report.events, report.event_meta, report.slot_spans, report.causal))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: trace content recorded at commit 890a182, before the engines' hook
#: sites were folded into ``FlightRecorder.milestone``: scenario kwargs →
#: (phase events, fingerprint).  Event order inside one dispatch is part
#: of the pin, so a hook that moves relative to a send or a vote shows.
TRACE_PINNED = {
    "crash_batched": (
        dict(trace=SPANS_ONLY, batch_size=8, pipeline_depth=4, duration=0.2),
        (19610, "5073710b4e8f4964"),
    ),
    "byzantine_cross": (
        dict(
            trace=SPANS_ONLY, fault_model=FaultModel.BYZANTINE,
            cross_shard_fraction=0.5, clients=12, duration=0.15,
        ),
        (7180, "4dce75e3e9a68b5a"),
    ),
    "crash_primary_ckpt": (
        dict(
            trace=SPANS_ONLY, checkpoint_interval=16, duration=0.6, retry_timeout=0.1,
            faults=FaultSchedule().crash_primary(at=0.1, cluster=0).recover_node(at=0.4, node_id=0),
        ),
        (10547, "14b57ce652e3e011"),
    ),
}


def report_fingerprint(report) -> str:
    """sha256 over what finalize reduced the trace to."""
    blob = repr((report.deciding, report.critical))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: ``report_fingerprint`` of the ``TRACE_PINNED`` scenarios, recorded at
#: commit e184ffe, when finalize still copied the trace into a node dict
#: and kept every quorum's vote list until the end: a streamed reduction
#: must sum the same floats in the same order.
REPORT_PINNED = {
    "crash_batched": "30c7e178ebb396b9",
    "byzantine_cross": "6e3eb1e9c8508319",
    "crash_primary_ckpt": "168cc48be6105901",
}


class TestTraceContentIsPinned:
    """The refactored hook sites write the same trace, event for event,
    and finalize reduces it to the same report, byte for byte."""

    @pytest.mark.parametrize("name", sorted(TRACE_PINNED))
    def test_trace_reproduces_the_parent_commit(self, name):
        kwargs, pinned = TRACE_PINNED[name]
        result = traced_scenario(**kwargs).run()
        result.raise_if_failed()
        report = result.trace
        assert len(report.slot_spans) > 0 and len(report.causal) > 0
        assert (len(report.events), trace_fingerprint(report)) == pinned
        assert report.deciding and report.critical.txs > 0
        assert report_fingerprint(report) == REPORT_PINNED[name]
