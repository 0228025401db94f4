"""The intra-shard engine end to end: the runs the other pin sets miss.

``BASELINES_PINNED`` covers untraced, faultless baselines and
``TRACE_PINNED`` covers traced SharPer only.  The pins below add the
traced baselines (every intra-shard row runs traced somewhere) and a
Byzantine fail-over whose recovering replica parks pre-prepares of the
new view and replays them when it installs that view.  All of them
were recorded before Paxos, PBFT, Fast Paxos and FaB became one engine.

Beside the pins: single-node crash clusters (``f = 0``) commit, traced
Fast Paxos / FaB runs record their deciding votes, and two known breaks
held as strict xfails: AHL's cross-shard atomicity under a shard-primary
crash, and a Byzantine fork when the crashed primary recovers inside the
view change.
"""

import dataclasses

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.errors import ConsensusError
from repro.common.types import FaultModel
from repro.consensus.base import ConsensusEngine, Host
from repro.obs import TraceSpec, straggler_summary
from repro.txn.workload import WorkloadConfig

from helpers import BagHost, FakeHost, crash_cluster, report_fingerprint, trace_fingerprint

CRASH, BYZANTINE = FaultModel.CRASH, FaultModel.BYZANTINE
SPANS_ONLY = TraceSpec(gauge_interval=0)


def baseline_run(system, fault_model, f=1, trace=None):
    """``test_baselines``' scenario: 12 clients, 30% cross-shard, 0.15 s, seed 5."""
    return Scenario(
        deployment=DeploymentSpec(system=system, fault_model=fault_model, f=f, trace=trace),
        workload=WorkloadConfig(
            cross_shard_fraction=0.3, accounts_per_shard=64, num_clients=16
        ),
        clients=12,
        duration=0.15,
        warmup=0.02,
        seed=5,
    ).run()


#: traced baseline runs at commit f2e9f8b: (system, fault model) ->
#: (phase events, ``trace_fingerprint``, ``report_fingerprint``).  The
#: ``fast`` reports are not pinned: they gained the deciding-vote rows
#: their engines did not record then.
TRACED_BASELINES_PINNED = {
    ("apr", CRASH): (4248, "862bd5026fa74ae0", "7b6ce07f068f2690"),
    ("apr", BYZANTINE): (3190, "29b02a69edd424cd", "9b3f3870436f14da"),
    ("ahl", CRASH): (4474, "7a280e36a466a575", "8e81e1046b0e6596"),
    ("ahl", BYZANTINE): (4888, "b1db9d6eb021bbe7", "98429c4645cdcad7"),
    ("fast", CRASH): (5704, "22cf077812eaa445", None),
    ("fast", BYZANTINE): (3159, "498ec5abc3b5e189", None),
}


@pytest.mark.parametrize("system,fault_model", sorted(TRACED_BASELINES_PINNED, key=repr))
def test_traced_baselines_reproduce_the_parent_commit(system, fault_model):
    events, trace_pin, report_pin = TRACED_BASELINES_PINNED[(system, fault_model)]
    report = baseline_run(system, fault_model, trace=SPANS_ONLY).trace
    assert (len(report.events), trace_fingerprint(report)) == (events, trace_pin)
    if report_pin is not None:
        assert report_fingerprint(report) == report_pin


def byzantine_failover(duration=1.3, seed=5, recover_at=1.0008) -> Scenario:
    """Cluster 0's primary crashes at 0.1 s; the view change installs view 1
    at ~0.90 s, and the old primary recovers at 1.0008 s — just before two
    view-1 pre-prepares reach it and before its state transfer attests
    view 1, so it parks both and replays them when it installs the view."""
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=BYZANTINE, num_clusters=3, checkpoint_interval=16
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=64),
        clients=24,
        duration=duration,
        seed=seed,
        retry_timeout=0.1,
        faults=FaultSchedule()
        .crash_primary(at=0.1, cluster=0)
        .recover_node(at=recover_at, node_id=0),
    )


#: ``byzantine_failover`` at commit f2e9f8b: simulator events, messages
#: sent, and per cluster (representative chain height, head hash prefix).
FAILOVER_PINNED = (
    151842,
    75504,
    {0: (737, "3823f91e4684f8f3"), 1: (660, "8f02becdeea2fc77"), 2: (709, "e46c855c7cf39d9d")},
)


def test_byzantine_failover_reproduces_the_parent_commit(monkeypatch):
    parked, replayed = [], []
    park, install = ConsensusEngine._park, ConsensusEngine.on_view_installed

    def spy_park(engine, message, src):
        parked.append(message)
        park(engine, message, src)

    def spy_install(engine, view):
        replayed.extend(engine._parked.get(view, ()))
        install(engine, view)

    monkeypatch.setattr(ConsensusEngine, "_park", spy_park)
    monkeypatch.setattr(ConsensusEngine, "on_view_installed", spy_install)
    result = byzantine_failover().run()
    result.raise_if_failed()
    assert len(parked) == len(replayed) == 2
    system = result.system
    heads = {
        int(cluster): (view.height, view.head_hash[:16])
        for cluster, view in sorted(system.views().items())
    }
    observed = (system.sim.processed_events, system.network.messages_sent, heads)
    assert observed == FAILOVER_PINNED


@pytest.mark.xfail(
    strict=True,
    raises=ConsensusError,
    reason="a recovery inside the view change forks Byzantine SharPer (ROADMAP 2(f))",
)
@pytest.mark.parametrize("seed", [2, 5])
def test_a_recovery_inside_the_view_change_does_not_fork(seed):
    """``byzantine_failover`` with the old primary back at 0.9 s, ~0.5 ms after
    view 1 installs: seeds 2 and 5 decide slot 168 / 184 twice (no fix yet)."""
    byzantine_failover(duration=1.2, seed=seed, recover_at=0.9).run()


def test_the_journal_shows_the_recovery_inside_the_view_change():
    """ROADMAP 2(f) from an untraced run: at seed 5 node 0 comes back in view 0
    after two of its peers opened the view change to view 1 and before any
    installs it.  The run forks at slot 184 soon after, so it stops at 0.901 s."""
    scenario = byzantine_failover(duration=0.901, seed=5, recover_at=0.9)
    anomalies = dataclasses.replace(scenario, verify=False).run().anomalies
    (recovered,) = anomalies.of("recovered")
    assert (recovered.pid, recovered.time) == (0, 0.9)
    assert recovered.detail.startswith("view 0,")
    started = anomalies.of("view_change_started")
    installed = anomalies.of("view_installed")
    assert {row.pid for row in started + installed} <= {1, 2, 3}  # cluster 0's peers
    assert len([row for row in started if row.time < recovered.time]) == 2
    assert recovered.time < min(row.time for row in installed)


@pytest.mark.parametrize("system", ["sharper", "apr", "fast", "ahl"])
def test_every_host_is_a_consensus_host(system):
    """One host surface: each replica kind (and the unit tests' stubs) has all
    of it, the cross-shard part included, so nothing is probed by name; and
    every engine, manager and batcher a replica runs sees its replica as it."""
    built = Scenario(deployment=DeploymentSpec(system=system)).build_system()
    hosts = list(built.replicas.values()) + list(getattr(built, "committee_replicas", {}).values())
    assert hosts and all(isinstance(host, Host) for host in hosts)
    parts = ("intra", "cross", "terminator", "batcher")
    engines = [getattr(host, part, None) for host in hosts for part in parts]
    assert all(isinstance(engine.host, Host) for engine in engines if engine is not None)
    if system in ("sharper", "ahl"):  # the cross-shard engine's host is among them
        assert all(replica.cross is not None for replica in built.replicas.values())
    assert isinstance(FakeHost(0, crash_cluster()), Host)
    assert isinstance(BagHost(0, crash_cluster()), Host)


@pytest.mark.parametrize("fault_model", [CRASH, BYZANTINE])
@pytest.mark.parametrize("system", ["sharper", "apr", "fast", "ahl"])
def test_single_node_clusters_commit(system, fault_model):
    """At ``f = 0`` a crash cluster is one node: its own vote is the quorum."""
    result = baseline_run(system, fault_model, f=0)
    assert result.stats.committed > 0
    assert result.ok


@pytest.mark.parametrize("fault_model", [CRASH, BYZANTINE])
def test_traced_fast_runs_record_their_deciding_votes(fault_model):
    report = baseline_run("fast", fault_model, trace=SPANS_ONLY).trace
    assert report.deciding
    assert straggler_summary(report.deciding)


@pytest.mark.xfail(
    strict=True,
    reason="AHL's committee sends 2PC requests to each shard's view-0 primary: "
    "a commit already voted never reaches a shard whose primary crashed",
)
@pytest.mark.parametrize("fault_model", [CRASH, BYZANTINE])
def test_ahl_keeps_cross_shard_atomicity_when_a_shard_primary_crashes(fault_model):
    result = Scenario(
        deployment=DeploymentSpec(system="ahl", fault_model=fault_model),
        workload=WorkloadConfig(cross_shard_fraction=0.3),
        seed=3,
        faults=FaultSchedule().crash_primary(at=0.1, cluster=1),
    ).run()
    # The ledger audit cannot see it: each AHL commit block carries one
    # cluster's position only.
    assert result.audit.ok
    assert result.ok
