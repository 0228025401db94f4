"""Unit tests for the flight recorder (repro.obs) and its exporters."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.api import DeploymentSpec
from repro.obs import (
    INERT_RECORDER,
    FlightRecorder,
    InertRecorder,
    TraceSpec,
    attribute_phases,
    normalize_trace,
    render_phase_table,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.export import chrome_trace_events
from repro.obs.phases import KNOWN_PHASES, PHASES_CROSS, PHASES_INTRA, phase_columns
from repro.obs.report import main as report_main


# ----------------------------------------------------------------------
# phase attribution
# ----------------------------------------------------------------------
def _events_for(tx, times):
    """(time, tx, phase, pid) tuples for an intra tx at given phase times."""
    return [(t, tx, phase, 0) for phase, t in times.items()]


class TestAttributePhases:
    def test_gaps_sum_to_end_to_end(self):
        events = _events_for(
            "t1",
            {"submit": 0.0, "enqueue": 0.001, "propose": 0.0015, "decided": 0.003,
             "applied": 0.004, "reply": 0.005},
        )
        breakdown = attribute_phases(events, set())
        assert breakdown.txs == 1
        assert breakdown.attributed_fraction == pytest.approx(1.0)
        total = sum(stats.total_ms for stats in breakdown.intra)
        assert total == pytest.approx(5.0)

    def test_tx_without_reply_excluded(self):
        events = _events_for("t1", {"submit": 0.0, "enqueue": 0.001})
        breakdown = attribute_phases(events, set())
        assert breakdown.txs == 0
        assert breakdown.attributed_fraction == 1.0

    def test_cross_txs_use_cross_taxonomy(self):
        events = _events_for(
            "x1",
            {"submit": 0.0, "enqueue": 0.001, "cross_start": 0.002,
             "cross_prepared": 0.003, "decided": 0.004, "applied": 0.005,
             "reply": 0.006},
        )
        breakdown = attribute_phases(events, {"x1"})
        assert not breakdown.intra
        names = [stats.phase for stats in breakdown.cross]
        assert "cross_start" in names and "cross_prepared" in names
        assert breakdown.attributed_fraction == pytest.approx(1.0)

    def test_first_occurrence_wins_across_replicas(self):
        events = [
            (0.0, "t1", "submit", 100),
            (0.001, "t1", "decided", 1),  # a higher pid decided first
            (0.002, "t1", "decided", 0),
            (0.003, "t1", "reply", 100),
        ]
        breakdown = attribute_phases(events, set())
        decided = next(s for s in breakdown.intra if s.phase == "decided")
        assert decided.avg_ms == pytest.approx(1.0)

    def test_events_out_of_time_order_are_refused(self):
        events = [(0.0, "t1", "submit", 100), (0.002, "t1", "decided", 1),
                  (0.001, "t1", "decided", 0), (0.003, "t1", "reply", 100)]
        with pytest.raises(ValueError, match="out of time order"):
            attribute_phases(events, set())

    def test_unknown_phase_time_folds_into_next_gap(self):
        # A milestone outside the canonical order must not lose latency:
        # the gap it would carve merges into the next known milestone.
        events = _events_for("t1", {"submit": 0.0, "decided": 0.004, "reply": 0.005})
        breakdown = attribute_phases(events, set())
        assert breakdown.attributed_fraction == pytest.approx(1.0)

    def test_phase_taxonomies_cover_known_phases(self):
        assert KNOWN_PHASES == frozenset(PHASES_INTRA) | frozenset(PHASES_CROSS)

    def test_render_and_columns(self):
        events = _events_for(
            "t1", {"submit": 0.0, "enqueue": 0.001, "reply": 0.002}
        )
        breakdown = attribute_phases(events, set())
        table = render_phase_table(breakdown)
        assert "enqueue" in table and "100.0%" in table
        columns = phase_columns(breakdown)
        assert columns["phase_intra_enqueue_avg_ms"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------
class _FakeProcess:
    def __init__(self, pid, cluster_id):
        self.pid = pid
        self.cluster = type("C", (), {"cluster_id": cluster_id})()
        self.log = type("L", (), {"entry_count": 0})()


class _FakeSystem:
    def __init__(self):
        self.network = type(
            "N", (), {"messages_sent": 5, "messages_delivered": 3, "messages_dropped": 0}
        )()
        self._procs = [_FakeProcess(0, 0), _FakeProcess(1, 0)]

    def processes(self):
        return self._procs


class TestFlightRecorder:
    def test_normalize_trace(self):
        assert normalize_trace(None) is None
        assert normalize_trace(False) is None
        assert normalize_trace(True) == TraceSpec()
        spec = TraceSpec(gauge_interval=0)
        assert normalize_trace(spec) is spec

    def test_negative_gauge_interval_is_refused(self):
        with pytest.raises(ConfigurationError, match="gauge_interval"):
            TraceSpec(gauge_interval=-0.01)

    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_below_one_is_refused(self, sample):
        with pytest.raises(ConfigurationError, match="sample"):
            TraceSpec(sample=sample)

    @pytest.mark.parametrize("trace", [1, 0, "yes", {"sample": 2}])
    def test_a_trace_that_is_not_none_bool_or_spec_is_refused(self, trace):
        with pytest.raises(ConfigurationError, match="trace must be"):
            normalize_trace(trace)
        with pytest.raises(ConfigurationError, match="trace must be"):
            DeploymentSpec(trace=trace)

    def test_inert_recorder_has_every_hook_and_records_nothing(self):
        hooks = {
            name
            for name in vars(FlightRecorder)
            if not name.startswith("_") and callable(getattr(FlightRecorder, name))
        }
        assert hooks <= set(dir(InertRecorder))
        assert isinstance(INERT_RECORDER, InertRecorder)
        assert INERT_RECORDER.finalize(None, 1.0) is None
        assert INERT_RECORDER.quorum_vote(0.0, 0, "accept", ("k",), 1, True) is None
        handled = []
        INERT_RECORDER.dispatch(0.0, lambda message, src: handled.append((message, src)), "m", 1, 2)
        INERT_RECORDER.dispatch(0.0, None, "dropped", 1, 2)  # no handler: nothing runs
        assert handled == [("m", 1)]

    def test_slot_spans_first_open_wins(self):
        recorder = FlightRecorder()
        recorder.slot_open(0.001, pid=0, cluster=0, slot=7)
        recorder.slot_open(0.002, pid=0, cluster=0, slot=7)  # re-propose: ignored
        recorder.slot_close(0.005, pid=0, slot=7)
        recorder.slot_close(0.006, pid=0, slot=7)  # double close: no-op
        assert list(recorder.slot_spans) == [(0, 0, 7, 0.001, 0.005)]

    def test_vc_span_close_without_open_is_noop(self):
        recorder = FlightRecorder()
        recorder.vc_close(0.1, pid=3, view=2)
        assert recorder.vc_spans == []
        recorder.vc_open(0.1, pid=3, cluster=1, view=2)
        recorder.vc_close(0.2, pid=3, view=2)
        assert recorder.vc_spans == [(3, 1, 2, 0.1, 0.2)]

    def test_count_send_accumulates(self):
        recorder = FlightRecorder()
        recorder.count_send("PrePrepare", 1)
        recorder.count_send("PrePrepare", 3)
        assert recorder.sent_by_type == {"PrePrepare": 4}

    def test_finalize_produces_picklable_report(self):
        import pickle

        recorder = FlightRecorder(TraceSpec(gauge_interval=0))
        recorder.submit(0.0, "t1", 100, cross=False)
        recorder.phase(0.001, "t1", "reply", 100)
        recorder.slot_open(0.0005, pid=0, cluster=0, slot=1)
        report = recorder.finalize(_FakeSystem(), end_time=0.5)
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.open_slots == ((0, 0, 1, 0.0005),)
        assert clone.breakdown.txs == 1
        assert "1 slot spans" not in clone.summary()  # still open, not closed

    def test_critpath_columns_are_prefixed(self):
        recorder = FlightRecorder(TraceSpec(gauge_interval=0))
        report = recorder.finalize(_FakeSystem(), end_time=0.1)
        assert all(key.startswith("critpath_") for key in report.critpath_columns())
        assert "critpath_txs" in report.phase_columns()


# ----------------------------------------------------------------------
# exporters + validator + report CLI
# ----------------------------------------------------------------------
def _tiny_report():
    recorder = FlightRecorder(TraceSpec(gauge_interval=0))
    recorder.submit(0.0, "t1", 100, cross=False)
    recorder.phase(0.001, "t1", "enqueue", 0)
    recorder.phase(0.003, "t1", "decided", 0)
    recorder.phase(0.004, "t1", "applied", 0)
    recorder.phase(0.005, "t1", "reply", 100)
    recorder.slot_open(0.001, pid=0, cluster=0, slot=1)
    recorder.slot_close(0.004, pid=0, slot=1)
    recorder.vc_open(0.002, pid=1, cluster=0, view=1)  # left open on purpose
    recorder.count_send("PaxosAccept", 2)
    return recorder.finalize(_FakeSystem(), end_time=0.01)


class TestExport:
    def test_chrome_events_sorted_and_balanced(self):
        events = chrome_trace_events(_tiny_report())
        timestamps = [event["ts"] for event in events if event["ph"] != "M"]
        assert timestamps == sorted(timestamps)
        opens = sum(1 for event in events if event["ph"] == "b")
        closes = sum(1 for event in events if event["ph"] == "e")
        assert opens == closes == 2  # one slot span + one open vc span
        open_close = [
            event for event in events
            if event["ph"] == "e" and event.get("args", {}).get("open")
        ]
        assert len(open_close) == 1  # the vc span closed at end_time

    def test_chrome_trace_validates(self, tmp_path):
        import sys

        sys.path.insert(0, "tools")
        try:
            from validate_trace import validate
        finally:
            sys.path.pop(0)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(_tiny_report(), path)
        assert validate(path) == []

    def test_validator_flags_unbalanced_and_unknown(self, tmp_path):
        import sys

        sys.path.insert(0, "tools")
        try:
            from validate_trace import validate
        finally:
            sys.path.pop(0)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": [
                        {"ph": "b", "cat": "slot", "id": "s0:1", "ts": 1},
                        {"ph": "i", "cat": "phase", "name": "warp", "ts": 2},
                    ]
                },
                handle,
            )
        problems = validate(path)
        assert any("unbalanced" in problem for problem in problems)
        assert any("unknown phase" in problem for problem in problems)

    def test_jsonl_roundtrip_and_dispatch(self, tmp_path):
        report = _tiny_report()
        jsonl = str(tmp_path / "trace.jsonl")
        chrome = str(tmp_path / "trace.json")
        write_trace(report, jsonl)
        write_trace(report, chrome)
        rows = [json.loads(line) for line in open(jsonl)]
        assert rows[0]["type"] == "meta"
        assert sum(1 for row in rows if row["type"] == "phase") == len(report.events)
        with open(chrome) as handle:
            assert "traceEvents" in json.load(handle)

    def test_report_cli_on_both_formats(self, tmp_path, capsys):
        report = _tiny_report()
        for name in ("trace.json", "trace.jsonl"):
            path = str(tmp_path / name)
            write_trace(report, path)
            assert report_main([path]) == 0
            out = capsys.readouterr().out
            assert "transactions" in out and "phase events" in out

    def test_report_cli_rejects_empty(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"type": "meta", "end": 0.0}) + "\n")
        assert report_main([path]) == 1
        assert "no phase events" in capsys.readouterr().out
