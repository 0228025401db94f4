"""What finalizing a trace costs: a streamed reduction, not a second trace.

``FlightRecorder.finalize`` walks every committed transaction's critical
path and sums it into ``TraceReport.critical``.  The walk resolves eids
through one table of references to the rows the recorder already holds
and hands one path at a time to the summary, so the memory it needs on
top of the report it returns is a table slot per recorded event plus a
sort key per transaction.  Quorum votes reduce to their deciding row
when the deciding vote arrives, so a finished run holds vote lists for
undecided quorums only.
"""

import tracemalloc

import pytest

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.obs.recorder import FlightRecorder


@pytest.fixture(scope="module")
def traced_intra():
    """The benchmark's ``traced_intra`` shape, scaled down in time: the
    result, its recorder and the bytes ``finalize`` allocated above its
    report.  Only ``finalize`` runs under tracemalloc, so the peak is
    what it allocated; what is still live afterwards is the report."""
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
    finalize = FlightRecorder.finalize

    def measured(recorder, system, end_time):
        tracemalloc.start()
        try:
            report = finalize(recorder, system, end_time)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        seen.update(recorder=recorder, transient=peak - live)
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlightRecorder, "finalize", measured)
        result = scenario.run()
    result.raise_if_failed()
    return result, seen["recorder"], seen["transient"]


def test_finalize_allocates_under_a_kilobyte_per_commit_above_its_report(traced_intra):
    # 4,048 B per commit on this run (3,003 commits) when finalize copied
    # every recorded row into a dict node, built every path and edge
    # object at once, then a list of every edge again; ~270 B now (a
    # table slot per row, a sort key per transaction).  The bound leaves
    # room for 3.10-3.12 size drift.
    result, _, transient = traced_intra
    commits = result.trace.critical.txs
    assert commits > 2000
    assert transient / commits <= 1024, f"{transient / commits:.0f} bytes per commit"


def test_a_finished_run_holds_votes_of_undecided_quorums_only(traced_intra):
    result, recorder, _ = traced_intra
    assert recorder._quorum_done
    assert not recorder._quorum_done & recorder._quorum_votes.keys()
    assert len(result.trace.deciding) == len(recorder._quorum_done)
