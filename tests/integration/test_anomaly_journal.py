"""Rare events from an untraced run: ``failover_ckpt``'s stall in the anomaly journal.

perf/'s ``failover_ckpt`` workload crashes cluster 0's primary at 0.2 s
and recovers it at 0.9 s.  Cluster 0 fails over at 0.70 s, yet clusters
1–3 commit nothing until ~1.0 s although their primaries live: each
holds a reserved position for a cross-shard instance whose initiator
crashed (docs/recovery.md, "Where failover_ckpt's stall comes from").
The merged journal shows that without a trace: cluster 0's view change at
0.70 s, then nothing in clusters 1–3 until every replica's gap timer
suspects its primary at ~1.00 s and a view change follows.
"""

from repro import WorkloadConfig
from repro.api import DeploymentSpec, FaultSchedule, Scenario

VIEW_CHANGE = ("gap_suspected", "view_change_started", "view_installed")


def failover_ckpt(duration: float) -> Scenario:
    """perf/'s ``failover_ckpt`` workload, run to ``duration`` and not audited."""
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", num_clusters=4, checkpoint_interval=64, archive=":memory:"
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=16384),
        clients=64,
        duration=duration,
        retry_timeout=0.5,
        verify=False,
        faults=FaultSchedule().crash_primary(at=0.2, cluster=0).recover_node(at=0.9, node_id=0),
    )


def test_the_stall_is_bracketed_by_gap_suspicions_and_view_changes():
    result = failover_ckpt(duration=1.06).run()
    cluster_of = {pid: int(replica.cluster_id) for pid, replica in result.system.replicas.items()}
    rows = [row for row in result.anomalies.rows if row.kind in VIEW_CHANGE]
    failover = [row for row in rows if cluster_of[row.pid] == 0]
    assert {row.kind for row in failover} == {"view_change_started", "view_installed"}
    assert all(0.69 < row.time < 0.71 for row in failover)
    for cluster in (1, 2, 3):
        stalled = [row for row in rows if cluster_of[row.pid] == cluster]
        assert {row.kind for row in stalled} == set(VIEW_CHANGE)
        # Nothing from the crash until the gap timers fire, ~0.8 s later.
        assert stalled[0].kind == "gap_suspected" and 1.0 < stalled[0].time < 1.01
        # Every view change there opens at a replica the instant its gap timer suspects.
        suspicions = {(row.pid, row.time) for row in stalled if row.kind == "gap_suspected"}
        opened = {(row.pid, row.time) for row in stalled if row.kind == "view_change_started"}
        assert opened == suspicions
    assert result.anomalies.totals["recovered"] == 1
