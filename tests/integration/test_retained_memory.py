"""What a committed slot keeps: its ledger, not the bookkeeping that ordered it.

Payloads (transactions, client requests, batches, blocks) keep their
memos in slots rather than a per-instance ``__dict__``; the block memo
on an ordered item is a bare weak reference; and the two rolling-timer
deques (view-change commit timers, client retry timers) drop their
leading dead entries as slots are decided and requests complete, rather
than only when their timer next fires.  This measures what a run holds
when its run phase ends, from the moment the system is built.
"""

import tracemalloc

import pytest

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, Scenario
from repro.common.metrics import MetricsCollector


@pytest.fixture(scope="module")
def intra_paxos():
    """The benchmark's untraced ``intra_paxos`` shape, scaled down in time:
    the system and the bytes it still holds per commit when the run
    phase ends (the metrics collector is finalized)."""
    scenario = Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.CRASH, num_clusters=4, f=1
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.0, accounts_per_shard=256),
        clients=120,
        duration=0.08,
        warmup=0.03,
        seed=1,
        verify=False,
    )
    seen = {}
    build, run_ended = Scenario.build_system, MetricsCollector.finalize

    def traced_build(self):
        tracemalloc.start()
        return build(self)

    def held_at_end_of_run(metrics, end_time):
        seen.update(commits=len(metrics.samples), held=tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        return run_ended(metrics, end_time)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Scenario, "build_system", traced_build)
            patch.setattr(MetricsCollector, "finalize", held_at_end_of_run)
            result = scenario.run()
    finally:
        tracemalloc.stop()
    result.raise_if_failed()
    assert seen["commits"] > 2000
    return result.system, seen["held"] / seen["commits"]


def test_a_run_holds_under_3_5_kib_per_commit_when_the_run_ends(intra_paxos):
    # 4,335 B per commit on this run when every payload kept its memos in
    # a __dict__, the block memo kept a key tuple beside its weak
    # reference, and the view-change deque kept an entry per slot ever
    # monitored; 3,195 B now.  The bound leaves room for 3.10-3.12 size
    # drift.
    _, held_per_commit = intra_paxos
    assert held_per_commit <= 3584, f"{held_per_commit:.0f} bytes per commit"


def test_the_timer_deques_hold_only_live_entries(intra_paxos):
    system, _ = intra_paxos
    managers = [replica.intra.view_change for replica in system.replicas.values()]
    assert any(manager._monitored for manager in managers)  # slots in flight at the end
    for manager in managers:
        assert all(slot in manager._monitored for _, slot in manager._deadlines)
    for client in system.clients:
        outstanding = client._outstanding
        for deadline, tx_id in client._retry_deadlines:
            assert outstanding[tx_id].resend_deadline == deadline
