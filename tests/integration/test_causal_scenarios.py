"""End-to-end causal-graph scenarios: the critical-path acceptance tests.

The causal layer's contract, checked differentially against the rest of
the system:

* **Exactness** — for every committed transaction in a traced run
  (intra, cross-shard, batched, Byzantine), the reconstructed critical
  path is a contiguous causal chain from submit to reply: consecutive
  edges share their node event id and timestamp *exactly*, and the
  path total equals the latency the metrics layer recorded for the
  same transaction with float equality, not tolerance.
* **Deciding votes match engine bookkeeping** — every deciding-vote row
  the recorder emits names a voter the observing replica's own
  ``QuorumTracker`` counted for that key.
* **Tracing stays free** — a causal-traced run is protocol-identical to
  an untraced run; ``--trace-sample N`` keeps that bit-identity while
  recording fewer phase events.
* **Crashes cut chains cleanly** — spans open at a crash are exported
  as ``open: true`` (never mis-closed), transactions cut by the crash
  simply have no reply and are excluded, and the surviving paths stay
  exact; the flow-enabled export still validates.

Pattern follows ``test_obs_scenarios.py``'s differential style.
"""

import json

from repro.api import FaultSchedule
from repro.common.types import FaultModel
from repro.obs import TraceSpec, write_chrome_trace

from test_obs_scenarios import (
    SPANS_ONLY,
    assert_identical,
    load_validator,
    traced_scenario,
)


def latency_samples(result) -> dict:
    """The metrics layer's per-transaction samples, keyed by tx id."""
    return {
        sample.tx_id: sample
        for sample in result.system.clients[0].metrics.samples
    }


def assert_paths_exact(result) -> tuple:
    """Every critical path is contiguous and equals the measured latency."""
    report = result.trace
    paths = report.critical_paths()
    assert paths, "traced run produced no critical paths"
    samples = latency_samples(result)
    matched = 0
    for path in paths:
        edges = path.edges
        for first, second in zip(edges, edges[1:]):
            assert first.dst_eid == second.src_eid
            assert first.t1 == second.t0  # shared node: exact, not approx
        for edge in edges:
            assert edge.t1 - edge.t0 >= 0.0
        assert edges[0].src_eid < edges[-1].dst_eid
        sample = samples.get(path.tx)
        if sample is None:
            continue  # committed outside the measurement window
        matched += 1
        assert path.total == sample.latency  # identical float expression
    assert matched > 0
    return paths


class TestCriticalPathExactness:
    def test_intra_paths_are_exact_and_complete(self):
        result = traced_scenario(trace=SPANS_ONLY, cross_shard_fraction=0.0).run()
        paths = assert_paths_exact(result)
        # Unbatched intra-shard chains never leave their dispatch chain:
        # every path walks clean back to its submit.
        assert all(path.complete for path in paths)
        assert all(not path.cross for path in paths)
        summary = result.trace.critical
        assert summary.txs == len(paths)
        assert summary.complete == len(paths)
        assert summary.wire_share > 0.5  # latency is dominated by the wire

    def test_cross_shard_paths_are_exact(self):
        result = traced_scenario(trace=SPANS_ONLY, cross_shard_fraction=0.3).run()
        paths = assert_paths_exact(result)
        assert any(path.cross for path in paths)
        # Slot-ordered apply can hand a commit to another dispatch; those
        # chains clip at submit and surface the gap as a wait edge.
        clipped = [path for path in paths if not path.complete]
        for path in clipped:
            assert path.edges[0].kind == "wait"
        assert result.trace.critical.cross_avg_ms > 0.0

    def test_batched_paths_are_exact_with_wait_edges(self):
        result = traced_scenario(
            trace=SPANS_ONLY, batch_size=8, pipeline_depth=4
        ).run()
        paths = assert_paths_exact(result)
        # Requests queued behind the pipeline window are charged a
        # synthetic wait edge; under batch=8 at 24 clients some must be.
        assert any(
            not path.complete and path.edges[0].kind == "wait" for path in paths
        )
        assert result.trace.critical.wait_share > 0.0

    def test_byzantine_paths_are_exact(self):
        result = traced_scenario(
            trace=SPANS_ONLY,
            fault_model=FaultModel.BYZANTINE,
            num_clusters=2,
            cross_shard_fraction=0.2,
        ).run()
        assert_paths_exact(result)


class TestDecidingVotes:
    def test_crash_deciding_votes_match_paxos_bookkeeping(self):
        result = traced_scenario(trace=SPANS_ONLY, cross_shard_fraction=0.0).run()
        rows = [row for row in result.trace.deciding if row[1] == "accept"]
        assert rows
        for pid, _kind, key, voter, _t, _lag in rows:
            replica = result.system.replicas[pid]
            assert voter in replica.intra._votes.voters(key)
            assert replica.intra._votes.reached(key)
        # Every deciding row is observed at the slot's primary, and the
        # recorder closed the key on the vote that flipped the quorum.
        assert len(rows) == result.trace.critical.txs

    def test_byzantine_deciding_votes_match_pbft_bookkeeping(self):
        result = traced_scenario(
            trace=SPANS_ONLY,
            fault_model=FaultModel.BYZANTINE,
            num_clusters=2,
            cross_shard_fraction=0.0,
        ).run()
        prepares = [row for row in result.trace.deciding if row[1] == "prepare"]
        commits = [row for row in result.trace.deciding if row[1] == "commit"]
        assert prepares and commits
        for rows, tracker in ((prepares, "_votes"), (commits, "_commits")):
            for pid, _kind, key, voter, _t, _lag in rows:
                replica = result.system.replicas[pid]
                assert voter in getattr(replica.intra, tracker).voters(key)

    def test_cross_shard_deciding_votes_recorded(self):
        result = traced_scenario(trace=SPANS_ONLY, cross_shard_fraction=0.3).run()
        kinds = {row[1] for row in result.trace.deciding}
        assert "cross_accept" in kinds
        straggler = result.trace.straggler_table()
        assert "cross_accept" in straggler

    def test_straggler_lags_are_nonnegative(self):
        result = traced_scenario(trace=SPANS_ONLY, cross_shard_fraction=0.2).run()
        for _pid, _kind, _key, _voter, _t, lag in result.trace.deciding:
            # The deciding vote arrives at or after the median by
            # definition (it is the last vote of its quorum).
            assert lag >= 0.0


class TestSampling:
    def test_sampled_run_is_bit_identical_to_untraced(self):
        untraced = traced_scenario(trace=None).run()
        sampled = traced_scenario(trace=TraceSpec(gauge_interval=0, sample=4)).run()
        assert_identical(untraced, sampled)

    def test_sampling_records_fewer_phase_events(self):
        full = traced_scenario(trace=SPANS_ONLY).run()
        sampled = traced_scenario(trace=TraceSpec(gauge_interval=0, sample=4)).run()
        assert 0 < len(sampled.trace.events) < len(full.trace.events) / 2
        # Sampled chains still reconstruct exactly.
        assert_paths_exact(sampled)


class TestCrashCut:
    def crashed_run(self):
        faults = FaultSchedule().crash_node(at=0.3, node_id=1)
        return traced_scenario(
            trace=SPANS_ONLY, cross_shard_fraction=0.1, faults=faults,
            verify=False,
        ).run()

    def test_open_spans_flagged_open_not_misclosed(self, tmp_path):
        faults = FaultSchedule().crash_primary(at=0.3, cluster=0)
        result = traced_scenario(
            trace=SPANS_ONLY, faults=faults, verify=False
        ).run()
        report = result.trace
        # The crashed primary (and replicas waiting on it) hold slots
        # that never applied: they surface as open, never as closed.
        assert report.open_slots or report.open_vcs
        open_keys = {(pid, slot) for pid, _c, slot, _t in report.open_slots}
        closed_keys = {(pid, slot) for pid, _c, slot, _t0, _t1 in report.slot_spans}
        assert not (open_keys & closed_keys)
        path = tmp_path / "crash_trace.json"
        write_chrome_trace(report, str(path))
        payload = json.loads(path.read_text())
        open_closes = [
            event
            for event in payload["traceEvents"]
            if event["ph"] == "e" and event.get("args", {}).get("open")
        ]
        assert open_closes
        assert load_validator()(str(path)) == []

    def test_chains_cut_by_crash_stay_exact(self):
        result = self.crashed_run()
        paths = assert_paths_exact(result)
        # In-flight transactions at the crash have no reply event and
        # are never walked: every reconstructed path still telescopes.
        tx_with_paths = {path.tx for path in paths}
        submitted = {
            tx for _t, tx, phase, _pid in result.trace.events if phase == "submit"
        }
        assert tx_with_paths <= submitted

    def test_no_recv_nodes_at_crashed_pid_after_crash(self):
        result = self.crashed_run()
        for _eid, _parent, t, kind, pid, _label in result.trace.causal:
            if pid == 1 and kind == "recv":
                assert t <= 0.3 + 1e-9

    def test_crashed_trace_flow_export_validates(self, tmp_path):
        result = self.crashed_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(result.trace, str(path))
        assert load_validator()(str(path)) == []
        payload = json.loads(path.read_text())
        assert any(
            event["ph"] == "f" and event.get("cat") == "flow"
            for event in payload["traceEvents"]
        )
