"""Unit tests for the measurement utilities."""

import pytest

from repro.common.metrics import (
    LatencySample,
    MetricsCollector,
    RunStats,
    summarize_latencies,
)


class TestLatencySample:
    def test_latency(self):
        sample = LatencySample("tx", submitted_at=1.0, committed_at=1.25)
        assert sample.latency == pytest.approx(0.25)


class TestSummaries:
    def test_empty(self):
        summary = summarize_latencies([])
        assert summary["mean"] == 0.0 and summary["p99"] == 0.0

    def test_percentiles(self):
        values = [i / 100 for i in range(1, 101)]
        summary = summarize_latencies(values)
        assert summary["mean"] == pytest.approx(0.505)
        assert summary["p50"] == pytest.approx(0.50)
        assert summary["p95"] == pytest.approx(0.95)
        assert summary["max"] == pytest.approx(1.0)


class TestMetricsCollector:
    def test_throughput_over_steady_window(self):
        collector = MetricsCollector(warmup=1.0, measure_until=3.0)
        # 10 transactions submitted inside the window, 5 outside.
        for index in range(10):
            collector.record_commit(f"in-{index}", submitted_at=1.5, committed_at=1.6)
        for index in range(5):
            collector.record_commit(f"out-{index}", submitted_at=0.5, committed_at=0.6)
        stats = collector.finalize(end_time=10.0)
        assert stats.committed == 10
        assert stats.throughput == pytest.approx(10 / 2.0)
        assert stats.avg_latency == pytest.approx(0.1)

    def test_cross_and_intra_latency_split(self):
        collector = MetricsCollector()
        collector.record_commit("a", 0.0, 0.1, cross_shard=False)
        collector.record_commit("b", 0.0, 0.3, cross_shard=True)
        stats = collector.finalize(end_time=1.0)
        assert stats.avg_latency_intra == pytest.approx(0.1)
        assert stats.avg_latency_cross == pytest.approx(0.3)
        assert stats.committed_cross == 1

    def test_aborts_and_submissions_counted(self):
        collector = MetricsCollector()
        collector.record_submission()
        collector.record_submission()
        collector.aborted += 1
        stats = collector.finalize(end_time=1.0)
        assert collector.submitted == 2
        assert stats.aborted == 1

    def test_as_dict_units(self):
        collector = MetricsCollector()
        collector.record_commit("a", 0.0, 0.050)
        stats = collector.finalize(end_time=1.0)
        row = stats.as_dict()
        assert row["avg_latency_ms"] == pytest.approx(50.0)
        assert row["throughput_tps"] == stats.throughput

    def test_submitted_surfaces_as_offered_load(self):
        collector = MetricsCollector()
        for _ in range(4):
            collector.record_submission()
        collector.record_commit("a", 0.0, 0.1)
        collector.aborted += 1
        stats = collector.finalize(end_time=1.0)
        assert stats.submitted == 4
        row = stats.as_dict()
        assert row["submitted"] == 4
        assert row["abort_rate"] == pytest.approx(0.25)
        # The new columns are appended at the end; the legacy prefix is
        # byte-stable for BENCH_* consumers keyed on column order.
        assert list(row)[-2:] == ["submitted", "abort_rate"]

    def test_abort_rate_zero_without_submissions(self):
        stats = MetricsCollector().finalize(end_time=1.0)
        assert stats.abort_rate == 0.0
        assert stats.as_dict()["abort_rate"] == 0.0


def make_stats(duration=1.0, committed=10, cross=0, avg=0.1, aborted=0, submitted=0):
    return RunStats(
        duration=duration,
        committed=committed,
        aborted=aborted,
        throughput=committed / duration,
        avg_latency=avg,
        p50_latency=avg,
        p95_latency=avg * 2,
        p99_latency=avg * 3,
        avg_latency_intra=avg,
        avg_latency_cross=avg * 4 if cross else 0.0,
        committed_cross=cross,
        submitted=submitted,
    )


class TestRunStatsAggregate:
    def test_single_run_is_returned_unchanged(self):
        stats = make_stats()
        assert RunStats.aggregate([stats]) is stats

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            RunStats.aggregate([])

    def test_counts_sum_and_throughput_pools(self):
        pooled = RunStats.aggregate(
            [make_stats(duration=1.0, committed=10), make_stats(duration=1.0, committed=30)]
        )
        assert pooled.committed == 40
        assert pooled.duration == pytest.approx(2.0)
        assert pooled.throughput == pytest.approx(20.0)

    def test_latencies_weighted_by_committed(self):
        pooled = RunStats.aggregate(
            [
                make_stats(committed=10, avg=0.1),
                make_stats(committed=30, avg=0.2),
            ]
        )
        assert pooled.avg_latency == pytest.approx((10 * 0.1 + 30 * 0.2) / 40)

    def test_cross_shard_latency_weighted_by_cross_count(self):
        pooled = RunStats.aggregate(
            [
                make_stats(committed=10, cross=2, avg=0.1),
                make_stats(committed=10, cross=6, avg=0.3),
            ]
        )
        assert pooled.committed_cross == 8
        assert pooled.avg_latency_cross == pytest.approx((2 * 0.4 + 6 * 1.2) / 8)

    def test_submitted_and_abort_rate_pool(self):
        pooled = RunStats.aggregate(
            [
                make_stats(committed=10, aborted=1, submitted=20),
                make_stats(committed=30, aborted=3, submitted=60),
            ]
        )
        assert pooled.submitted == 80
        assert pooled.abort_rate == pytest.approx(4 / 80)
