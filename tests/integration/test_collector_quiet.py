"""The run phase is collector-quiet: no cyclic garbage, memory freed at prune time.

``Simulator.run`` suspends CPython's cyclic collector for the duration
of its event loop (docs/architecture.md, "The memory model of a run").
That is only safe while nothing a run releases is part of a reference
cycle, so the contract is enforced here: every scenario shape the
benchmark measures, plus the adversary and churn suites, must leave
zero objects that only a cyclic collection could free.
"""

import gc
import weakref

import pytest

from helpers import assert_run_leaves_no_garbage
from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.bench.experiments import COALITION_ATTACK, attack_point, churn_scenario
from repro.common.metrics import MetricsCollector
from repro.consensus.messages import ClientRequest
from repro.core.replica import _shared_block
from repro.ledger.block import Block

WARMUP = 0.03


def _scenario(name, fault_model=FaultModel.CRASH, cross=0.0, clients=24, duration=0.15,
              accounts=128, faults=None, **deployment):
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=fault_model, num_clusters=4, f=1, **deployment
        ),
        workload=WorkloadConfig(cross_shard_fraction=cross, accounts_per_shard=accounts),
        name=name,
        clients=clients,
        duration=duration,
        warmup=WARMUP,
        seed=1,
        faults=faults or FaultSchedule(),
    )


def failover_ckpt(**overrides):
    """Scaled-down ``failover_ckpt``: checkpoints, archive, primary crash/recover."""
    return _scenario(
        "failover_ckpt", cross=0.1, clients=16, duration=0.9, accounts=1024,
        checkpoint_interval=16, archive=":memory:",
        faults=FaultSchedule().crash_primary(at=0.1, cluster=0).recover_node(at=0.65, node_id=0),
        **overrides,
    )


#: scaled-down versions of the five shapes in perf/workloads.py, then
#: the adversary and recovery suites' stock scenarios.
SCENARIOS = [
    _scenario("intra_paxos"),
    _scenario("cross_pbft", FaultModel.BYZANTINE, cross=0.8, duration=0.2),
    _scenario("batched_mixed", cross=0.1, clients=96, batch_size=16, pipeline_depth=4),
    failover_ckpt(),
    _scenario("traced_intra", trace=True),
    attack_point("silent-primary", 0.0),
    attack_point("equivocating-primary", 0.0),
    attack_point(COALITION_ATTACK, 0.2),
    churn_scenario(),
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.label)
def test_run_leaves_nothing_for_the_cyclic_collector(scenario):
    result = assert_run_leaves_no_garbage(scenario)
    assert result.ok, result.summary()
    assert sum(result.chain_heights.values()) > 0
    if scenario.deployment.checkpoint_interval:
        # The shapes that used to depend on the collector really prune
        # history and state-transfer a recovering replica.
        assert result.recovery.blocks_pruned > 0
        assert result.recovery.state_transfers_completed > 0
    if result.system.archive is not None:
        assert result.storage.archive_blocks > 0
        result.system.archive.close()


@pytest.fixture
def collector_off():
    """No cyclic collection at all: whatever dies in the test died by refcount."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _running_system(checkpoint_interval):
    scenario = Scenario(
        deployment=DeploymentSpec(
            system="sharper", num_clusters=2, checkpoint_interval=checkpoint_interval
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.0, accounts_per_shard=64),
        clients=8,
        duration=1.0,
    )
    system = scenario.build_system()
    metrics = MetricsCollector(warmup=0.0, measure_until=scenario.duration)
    system.start_clients(system.spawn_clients(scenario.clients, metrics))
    return system


def test_prune_frees_the_block_by_refcount(collector_off):
    interval = 8
    system = _running_system(interval)
    cluster = list(system.replicas_of(0))
    sim = system.sim
    while min(replica.chain.height for replica in cluster) < 3:
        sim.run(max_events=50)
    assert all(replica.chain.pruned_height == 0 for replica in cluster)
    blocks = [replica.chain.block_at(3) for replica in cluster]
    assert all(block is blocks[0] for block in blocks)  # one shared object per cluster
    block = weakref.ref(blocks[0])
    transaction = weakref.ref(blocks[0].transaction)
    del blocks
    pruned = [False] * len(cluster)
    while not all(pruned):
        # Alive exactly until the *last* replica of the cluster prunes it.
        assert block() is not None
        sim.run(max_events=1)
        pruned = [replica.chain.pruned_height >= 3 for replica in cluster]
    assert block() is None
    assert transaction() is None  # ... and takes its transaction along


def test_block_memo_is_an_optimisation_not_a_source_of_truth(collector_off):
    system = _running_system(0)
    cluster = system.replicas_of(0)[0].cluster_id
    transaction = system.clients[0].workload.next_intra_shard(shard=0)
    item = ClientRequest(transaction=transaction, client=transaction.client, timestamp=0.0)
    # What every replica of the cluster passes for one decided slot.
    args = (item, (transaction,), {cluster: 1}, cluster, {cluster: "parent"})
    shared = _shared_block(*args)
    assert _shared_block(*args) is shared  # alive: the peer reuses the object
    block_hash = shared.block_hash
    expected = Block.create(transaction, {cluster: 1}, proposer=cluster, parents={cluster: "parent"})
    del shared  # every holder released it (what prune does): the memo is dead
    rebuilt = _shared_block(*args)
    assert rebuilt == expected and rebuilt.block_hash == block_hash
    assert _shared_block(*args) is rebuilt  # and the rebuilt block is shared again
