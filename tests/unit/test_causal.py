"""Unit tests for the causal analyzer, validator edge checks and report CSV."""

import json
import sys

import pytest

from repro.obs.causal import (
    critical_paths,
    critpath_columns,
    render_critical_table,
    render_straggler_table,
    straggler_summary,
    summarize_edge_records,
    summarize_paths,
)
from repro.obs.export import chrome_trace_events, jsonl_rows, write_chrome_trace
from repro.obs.recorder import FlightRecorder, TraceSpec


# ----------------------------------------------------------------------
# synthetic graph fixtures
# ----------------------------------------------------------------------
def recorded_chain():
    """One tx through submit -> send -> recv -> send -> recv -> reply."""
    recorder = FlightRecorder(TraceSpec(gauges=False))
    request, reply = object(), object()
    recorder.slot_open(0.0, 0, 0, 0)                      # keep exports span-bearing
    recorder.slot_close(0.006, 0, 0)
    recorder.submit(0.0, "t1", 100, cross=False)          # eid 1, opens ctx
    recorder.wire_send(0.001, 100, 0, request)            # eid 2 <- 1
    recorder.clear_context()
    recorder.begin_dispatch(0.003, request, 100, 0)       # eid 3 <- 2
    recorder.phase(0.003, "t1", "decided", 0)             # eid 4 <- 3 (leaf)
    recorder.wire_send(0.004, 0, 100, reply)              # eid 5 <- 3
    recorder.clear_context()
    recorder.begin_dispatch(0.006, reply, 0, 100)         # eid 6 <- 5
    recorder.phase(0.006, "t1", "reply", 100)             # eid 7 <- 6
    recorder.clear_context()
    return recorder


class TestCriticalPaths:
    def test_complete_chain_reconstructs(self):
        recorder = recorded_chain()
        paths = critical_paths(
            recorder.events, recorder.event_meta, recorder.causal, set()
        )
        assert len(paths) == 1
        path = paths[0]
        assert path.complete
        assert path.total == 0.006 - 0.0
        kinds = [edge.kind for edge in path.edges]
        assert kinds == ["send", "recv", "send", "recv", "phase"]
        # Contiguity: shared nodes carry identical eids and timestamps.
        for first, second in zip(path.edges, path.edges[1:]):
            assert first.dst_eid == second.src_eid
            assert first.t1 == second.t0
        assert path.edges[0].src_eid == 1  # rooted at the submit event

    def test_clipped_chain_gets_wait_edge(self):
        recorder = FlightRecorder(TraceSpec(gauges=False))
        request, reply = object(), object()
        recorder.submit(0.0, "t1", 100, cross=True)
        recorder.clear_context()
        # The reply chain starts from a contextless dispatch (e.g. a
        # timer-driven resend): its send has parent 0.
        recorder.wire_send(0.004, 0, 100, reply)
        recorder.begin_dispatch(0.006, reply, 0, 100)
        recorder.phase(0.006, "t1", "reply", 100)
        recorder.clear_context()
        del request
        paths = critical_paths(
            recorder.events, recorder.event_meta, recorder.causal, {"t1"}
        )
        assert len(paths) == 1
        path = paths[0]
        assert not path.complete
        assert path.cross
        assert path.edges[0].kind == "wait"
        assert path.edges[0].label == "wait"
        assert path.total == 0.006
        # The wait edge still makes the chain telescope exactly.
        assert path.edges[0].t0 == 0.0 and path.edges[0].t1 == 0.004

    def test_tx_without_reply_or_submit_is_excluded(self):
        recorder = FlightRecorder(TraceSpec(gauges=False))
        recorder.submit(0.0, "no-reply", 100, cross=False)
        recorder.clear_context()
        recorder.phase(0.001, "no-submit", "reply", 100)
        paths = critical_paths(
            recorder.events, recorder.event_meta, recorder.causal, set()
        )
        assert paths == ()

    def test_no_causal_meta_returns_empty(self):
        assert critical_paths([(0.0, "t", "submit", 1)], [], [], set()) == ()

    def test_same_time_submits_are_ordered_by_tx_id(self):
        recorder = FlightRecorder(TraceSpec(gauges=False))
        for tx, client in (("t2", 101), ("t1", 100)):  # t2 submits (and replies) first
            request = object()
            recorder.submit(0.0, tx, client, cross=False)
            recorder.wire_send(0.001, client, 0, request)
            recorder.clear_context()
            recorder.begin_dispatch(0.002, request, client, 0)
            recorder.phase(0.002, tx, "reply", 0)
            recorder.clear_context()
        paths = critical_paths(recorder.events, recorder.event_meta, recorder.causal, set())
        assert [path.tx for path in paths] == ["t1", "t2"]
        assert all(path.complete for path in paths)

    def test_clipped_chain_inside_a_stream(self):
        """One clipped path between two complete ones: each path is
        walked on its own, and the summary counts exactly one clip."""
        recorder = FlightRecorder(TraceSpec(gauges=False))

        def complete(tx, t):
            request = object()
            recorder.submit(t, tx, 100, cross=False)
            recorder.wire_send(t + 0.001, 100, 0, request)
            recorder.clear_context()
            recorder.begin_dispatch(t + 0.002, request, 100, 0)
            recorder.phase(t + 0.002, tx, "reply", 0)
            recorder.clear_context()

        complete("a", 0.0)
        recorder.submit(0.01, "b", 100, cross=True)
        recorder.clear_context()
        resend = object()
        recorder.wire_send(0.013, 100, 0, resend)  # timer-driven: no context
        recorder.begin_dispatch(0.015, resend, 100, 0)
        recorder.phase(0.015, "b", "reply", 0)
        recorder.clear_context()
        complete("c", 0.02)

        paths = critical_paths(
            recorder.events, recorder.event_meta, recorder.causal, {"b"}
        )
        assert [(path.tx, path.complete) for path in paths] == [
            ("a", True), ("b", False), ("c", True)
        ]
        clipped = paths[1]
        assert clipped.edges[0].kind == "wait"
        assert (clipped.edges[0].t0, clipped.edges[-1].t1) == (0.01, 0.015)
        summary = recorder.finalize(_FakeSystem(), end_time=0.03).critical
        assert (summary.txs, summary.complete) == (3, 2)
        assert summary == summarize_paths(paths)

    def test_on_demand_paths_survive_finalize(self):
        recorder = recorded_chain()
        before = critical_paths(
            recorder.events, recorder.event_meta, recorder.causal, set()
        )
        report = recorder.finalize(_FakeSystem(), end_time=0.01)
        assert report.critical_paths() == before
        assert report.critical_paths() == before  # the walk is repeatable


class TestSummaries:
    def test_summarize_paths_shares_sum_to_one(self):
        recorder = recorded_chain()
        paths = critical_paths(
            recorder.events, recorder.event_meta, recorder.causal, set()
        )
        summary = summarize_paths(paths)
        assert summary.txs == 1 and summary.complete == 1
        share = sum(entry.share for entry in summary.intra)
        assert share == pytest.approx(1.0)
        assert summary.cross == ()
        assert 0.0 < summary.wire_share < 1.0
        assert summary.wait_share == 0.0
        table = render_critical_table(summary)
        assert "recv:" in table and "1 critical paths (1 complete)" in table

    def test_summarize_edge_records_scopes_and_waits(self):
        records = [
            ("a", False, "recv", "recv:X", 0.002),
            ("a", False, "wait", "wait:wait", 0.001),
            ("b", True, "recv", "recv:Y", 0.004),
        ]
        summary = summarize_edge_records(records)
        assert (summary.txs, summary.complete, summary.hops_avg) == (2, 1, 1.5)
        assert summary.wait_share == pytest.approx(0.001 / 0.007)
        assert summary.intra_avg_ms == pytest.approx(3.0)
        assert summary.cross_avg_ms == pytest.approx(4.0)
        columns = critpath_columns(summary)
        assert columns["critpath_txs"] == 2
        assert columns["critpath_complete"] == 1
        assert set(columns) == {
            "critpath_txs", "critpath_complete", "critpath_hops_avg",
            "critpath_wire_share", "critpath_wait_share",
            "critpath_intra_avg_ms", "critpath_cross_avg_ms",
        }

    def test_straggler_summary_sorts_worst_first(self):
        rows = [
            (0, "accept", ("k1",), 2, 0.5, 0.001),
            (0, "accept", ("k2",), 2, 0.6, 0.003),
            (0, "accept", ("k3",), 3, 0.7, 0.0005),
        ]
        stats = straggler_summary(rows)
        assert [entry.pid for entry in stats] == [2, 3]
        assert stats[0].count == 2
        assert stats[0].avg_lag_ms == pytest.approx(2.0)
        assert stats[0].max_lag_ms == pytest.approx(3.0)
        table = render_straggler_table(stats)
        assert "accept" in table
        assert "(no deciding votes recorded)" in render_straggler_table(())


# ----------------------------------------------------------------------
# quorum-vote recording semantics
# ----------------------------------------------------------------------
class TestQuorumVotes:
    def test_deciding_vote_closes_key_and_dedups(self):
        recorder = FlightRecorder(TraceSpec(gauges=False))
        recorder.quorum_vote(0.1, 0, "accept", ("k",), 0, False)
        recorder.quorum_vote(0.1, 0, "accept", ("k",), 0, False)  # dup voter
        recorder.quorum_vote(0.2, 0, "accept", ("k",), 1, False)
        recorder.quorum_vote(0.3, 0, "accept", ("k",), 2, True)   # deciding
        recorder.quorum_vote(0.4, 0, "accept", ("k",), 3, True)   # late: dropped
        report = recorder.finalize(_FakeSystem(), end_time=1.0)
        assert len(report.deciding) == 1
        pid, kind, key, voter, t, lag = report.deciding[0]
        assert (pid, kind, key, voter, t) == (0, "accept", ("k",), 2, 0.3)
        assert lag == pytest.approx(0.3 - 0.2)  # median of 0.1/0.2/0.3

    def test_undecided_quorums_are_not_reported(self):
        recorder = FlightRecorder(TraceSpec(gauges=False))
        recorder.quorum_vote(0.1, 0, "accept", ("k",), 0, False)
        report = recorder.finalize(_FakeSystem(), end_time=1.0)
        assert report.deciding == ()


class _FakeSystem:
    class sim:
        now = 0.0

    @staticmethod
    def processes():
        return []


# ----------------------------------------------------------------------
# exporters: flow events + jsonl rows
# ----------------------------------------------------------------------
def _chain_report():
    return recorded_chain().finalize(_FakeSystem(), end_time=0.01)


class TestFlowExport:
    def test_flow_pairs_are_emitted_and_self_contained(self):
        events = chrome_trace_events(_chain_report())
        starts = [e for e in events if e["ph"] == "s" and e["cat"] == "flow"]
        finishes = [e for e in events if e["ph"] == "f" and e["cat"] == "flow"]
        # phase edges are skipped: 4 wire hops -> 4 arrows.
        assert len(starts) == len(finishes) == 4
        eids = {e["args"]["eid"] for e in starts} | {e["args"]["eid"] for e in finishes}
        for finish in finishes:
            assert finish["bp"] == "e"
            assert finish["args"]["parent"] in eids
            assert finish["args"]["dur_ms"] >= 0.0
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_deciding_instants_exported(self):
        recorder = recorded_chain()
        recorder.quorum_vote(0.003, 0, "accept", (0, 1, "d"), 2, True)
        report = recorder.finalize(_FakeSystem(), end_time=0.01)
        events = chrome_trace_events(report)
        deciding = [e for e in events if e.get("cat") == "deciding"]
        assert len(deciding) == 1
        assert deciding[0]["name"] == "deciding:accept"
        assert deciding[0]["args"]["voter"] == 2

    def test_jsonl_rows_carry_causal_graph(self):
        rows = list(jsonl_rows(_chain_report()))
        phase_rows = [row for row in rows if row["type"] == "phase"]
        assert all("eid" in row and "parent" in row for row in phase_rows)
        causal_rows = [row for row in rows if row["type"] == "causal"]
        assert {row["kind"] for row in causal_rows} == {"send", "recv"}
        # Round-trip: the JSONL graph rebuilds the identical paths.
        events = [(r["t"], r["tx"], r["phase"], r["pid"]) for r in phase_rows]
        meta = [(r["eid"], r["parent"]) for r in phase_rows]
        causal = [
            (r["eid"], r["parent"], r["t"], r["kind"], r["pid"], r["label"])
            for r in causal_rows
        ]
        rebuilt = critical_paths(events, meta, causal, set())
        assert rebuilt == _chain_report().critical_paths()


# ----------------------------------------------------------------------
# validator: flow edge checks
# ----------------------------------------------------------------------
def load_validator():
    sys.path.insert(0, "tools")
    try:
        from validate_trace import validate
    finally:
        sys.path.pop(0)
    return validate


def _write_trace(tmp_path, extra_events=(), mutate=None):
    report = _chain_report()
    path = tmp_path / "trace.json"
    write_chrome_trace(report, str(path))
    if extra_events or mutate:
        payload = json.loads(path.read_text())
        if mutate:
            mutate(payload)
        payload["traceEvents"].extend(extra_events)
        path.write_text(json.dumps(payload))
    return str(path)


class TestValidatorEdges:
    def test_flow_enabled_trace_validates(self, tmp_path):
        validate = load_validator()
        assert validate(_write_trace(tmp_path)) == []

    def test_trace_without_flows_skips_edge_checks(self, tmp_path):
        validate = load_validator()

        def strip_flows(payload):
            payload["traceEvents"] = [
                e for e in payload["traceEvents"]
                if e.get("cat") not in ("flow", "deciding")
            ]

        assert validate(_write_trace(tmp_path, mutate=strip_flows)) == []

    def test_dangling_parent_is_flagged(self, tmp_path):
        validate = load_validator()

        def dangle(payload):
            for event in payload["traceEvents"]:
                if event.get("ph") == "f":
                    event["args"]["parent"] = 999_999
                    break

        problems = validate(_write_trace(tmp_path, mutate=dangle))
        assert any("dangling causal parent" in p for p in problems)

    def test_cycle_is_flagged(self, tmp_path):
        validate = load_validator()

        def loop(payload):
            flows = [e for e in payload["traceEvents"] if e.get("ph") == "f"]
            a, b = flows[0], flows[1]
            a["args"]["parent"] = b["args"]["eid"]
            b["args"]["parent"] = a["args"]["eid"]

        problems = validate(_write_trace(tmp_path, mutate=loop))
        assert any("causal cycle" in p for p in problems)

    def test_unbalanced_flow_is_flagged(self, tmp_path):
        validate = load_validator()
        orphan = {
            "ph": "s", "cat": "flow", "name": "critpath:x", "id": "f999",
            "pid": -1, "tid": 0, "ts": 999_999, "args": {"eid": 50, "tx": "t"},
        }
        problems = validate(_write_trace(tmp_path, extra_events=[orphan]))
        assert any("flow" in p and "1 's' / 0 'f'" in p for p in problems)


# ----------------------------------------------------------------------
# report --format csv
# ----------------------------------------------------------------------
class TestReportCsv:
    def run_report(self, tmp_path, fmt, capsys, jsonl=False):
        from repro.obs.export import write_jsonl
        from repro.obs.report import main

        recorder = recorded_chain()
        recorder.quorum_vote(0.003, 0, "accept", (0, 1, "d"), 2, True)
        report = recorder.finalize(_FakeSystem(), end_time=0.01)
        path = tmp_path / ("trace.jsonl" if jsonl else "trace.json")
        if jsonl:
            write_jsonl(report, str(path))
        else:
            write_chrome_trace(report, str(path))
        argv = [str(path)] + (["--format", fmt] if fmt else [])
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_csv_has_all_sections(self, tmp_path, capsys):
        out = self.run_report(tmp_path, "csv", capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "section,scope,name,count,avg_ms,p50_ms,p95_ms,share"
        sections = {line.split(",")[0] for line in lines[1:]}
        assert sections == {"phase", "critpath", "straggler"}

    def test_csv_from_jsonl_matches_chrome_critpath(self, tmp_path, capsys):
        chrome = self.run_report(tmp_path, "csv", capsys)
        jsonl = self.run_report(tmp_path, "csv", capsys, jsonl=True)

        def pick(text):
            # Chrome exports skip zero-duration phase edges (no flow
            # arrow to draw); compare the wire edges both paths carry.
            return sorted(
                line for line in text.splitlines()
                if line.startswith("critpath") and ",phase:" not in line
            )

        assert pick(chrome) == pick(jsonl)

    def test_table_format_includes_critical_and_straggler(self, tmp_path, capsys):
        out = self.run_report(tmp_path, None, capsys)
        assert "critical edge" in out
        assert "deciding" in out
