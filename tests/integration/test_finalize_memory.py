"""What a trace costs to hold and to finalize.

The recorder stores phase events and message nodes as rows of one
table (``repro.obs.causal.NodeTable``: each row's numbers packed into a
bytearray, its label a reference to one of the run's own strings), so
what it holds when the run ends is a few dozen bytes per recorded row,
not a tuple, an eid int and a float object each.  Quorum votes reduce to their deciding row
when the deciding vote arrives, so a finished run holds vote lists for
undecided quorums only.

``FlightRecorder.finalize`` copies nothing: the report's rows are views
over the recorder's table, and the critical-path walk resolves an eid
by indexing the table and hands one path at a time to the summary.
"""

import tracemalloc

import pytest

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.common.metrics import MetricsCollector
from repro.obs.recorder import FlightRecorder

#: the recorder's storage: its hooks (recorder.py) and the node table
#: and span tables they append to (causal.py).
RECORDER_FILES = [
    tracemalloc.Filter(True, "*repro/obs/recorder.py"),
    tracemalloc.Filter(True, "*repro/obs/causal.py"),
]


@pytest.fixture(scope="module")
def traced_intra():
    """The benchmark's ``traced_intra`` shape, scaled down in time: the
    result, its recorder, the recorder's bytes per commit at the end of
    the run phase and the bytes ``finalize`` allocated above its report.

    tracemalloc runs from the moment the recorder is built.  When the
    run phase ends (the metrics collector is finalized), a snapshot
    counts what the recorder's modules allocated and still hold.  When
    ``finalize`` is entered the peak is reset, so the peak minus what is
    live afterwards is what finalize allocated above the report."""
    scenario = Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.CRASH, num_clusters=4, f=1, trace=True
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.0, accounts_per_shard=256),
        clients=120,
        duration=0.1,
        warmup=0.03,
        seed=1,
    )
    seen = {}
    init, run_ended, finalize = (
        FlightRecorder.__init__, MetricsCollector.finalize, FlightRecorder.finalize
    )

    def traced_init(recorder, spec=None):
        tracemalloc.start()
        init(recorder, spec)

    def held_at_end_of_run(metrics, end_time):
        snapshot = tracemalloc.take_snapshot().filter_traces(RECORDER_FILES)
        held = sum(trace.size for trace in snapshot.traces)
        seen.update(commits=len(metrics.samples), held=held)
        return run_ended(metrics, end_time)

    def measured(recorder, system, end_time):
        tracemalloc.reset_peak()
        report = finalize(recorder, system, end_time)
        live, peak = tracemalloc.get_traced_memory()
        seen.update(recorder=recorder, transient=peak - live)
        return report

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FlightRecorder, "__init__", traced_init)
            patch.setattr(MetricsCollector, "finalize", held_at_end_of_run)
            patch.setattr(FlightRecorder, "finalize", measured)
            result = scenario.run()
    finally:
        tracemalloc.stop()
    result.raise_if_failed()
    assert seen["commits"] > 2000
    return result, seen["recorder"], seen["held"] / seen["commits"], seen["transient"]


def test_the_recorder_holds_under_1_25_kib_per_commit_when_the_run_ends(traced_intra):
    # 4,190 B per commit on this run (2,883 commits by the end of the
    # run phase) when every phase event, (eid, parent) pair, message node
    # and slot span was a tuple; ~1,140 B as packed rows, of which ~230 B
    # are deciding-vote rows and the decided-quorum set.
    _, _, held_per_commit, _ = traced_intra
    assert held_per_commit <= 1280, f"{held_per_commit:.0f} bytes per commit"


def test_finalize_allocates_under_a_kilobyte_per_commit_above_its_report(traced_intra):
    # 4,048 B per commit on this run (3,003 commits) when finalize copied
    # every recorded row into a dict node, built every path and edge
    # object at once, then a list of every edge again.  ~590 B now: the
    # walk needs ~150 B (a sort key per transaction); the peak is phase
    # attribution's first-seen times per transaction.  The bound leaves
    # room for 3.10-3.12 size drift.
    result, _, _, transient = traced_intra
    commits = result.trace.critical.txs
    assert commits > 2000
    assert transient / commits <= 768, f"{transient / commits:.0f} bytes per commit"


def test_a_finished_run_holds_votes_of_undecided_quorums_only(traced_intra):
    result, recorder, _, _ = traced_intra
    assert recorder._quorum_done
    assert not recorder._quorum_done & recorder._quorum_votes.keys()
    assert len(result.trace.deciding) == len(recorder._quorum_done)
