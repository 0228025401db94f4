"""Differential tests for the tally-based cross-shard engines.

Both engines answer "does every involved cluster have its quorum?" from
per-instance tallies instead of re-scanning the clusters on every vote.
These tests drive scripted instances through a real
:class:`~repro.core.system.SharPerSystem` — clean runs plus the inputs a
tally is most likely to get wrong: duplicate votes from one voter, votes
for two different slots of one cluster (an equivocating primary), votes
that arrive before the propose, and an instance wedged until it aborts —
and compare decided positions, engine counters and per-replica state
digests with the values the dict-of-dict engines of the parent commit
produced for the same script (``PINNED``, recorded by running
:func:`fingerprint` on that commit).  Two whole runs are pinned the same
way: the crash failover race (``RACE_PINNED``) and a batched Byzantine
run (``BATCHED_BYZANTINE_PINNED``).
"""

import dataclasses
import hashlib

import pytest

from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.config import ProtocolTuning
from repro.common.errors import ConsensusError
from repro.common.types import ClusterId, FaultModel
from repro.consensus.log import Noop, item_digest
from repro.consensus.messages import (
    ClientRequest,
    CrossAccept,
    CrossAcceptB,
    CrossCommit,
    CrossCommitB,
    CrossProposeB,
)
from repro.core.system import SharPerSystem
from repro.txn.transaction import Transaction, Transfer
from repro.txn.workload import WorkloadConfig

ACCOUNTS = 64
BYZANTINE = FaultModel.BYZANTINE


def build(fault_model, clusters):
    tuning = ProtocolTuning(conflict_retry_delay=20e-3, max_conflict_retries=3)
    config = DeploymentSpec(
        system="sharper", fault_model=fault_model, num_clusters=clusters, tuning=tuning
    ).resolve(seed=11)
    workload = WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=ACCOUNTS)
    return SharPerSystem(config, workload, seed=11)


def request(system, index, shards):
    """Request ``index``: one transfer from the first shard to each other shard."""
    source = shards[0] * ACCOUNTS + index
    transaction = Transaction.multi_transfer(
        client=system.owner_of(source),
        transfers=[
            Transfer(source=source, destination=shard * ACCOUNTS + index, amount=1 + index)
            for shard in shards[1:]
        ],
        tx_id=f"tally-{index}",
    )
    return ClientRequest(transaction=transaction, client=transaction.client, timestamp=0.0)


def run_script(fault_model, clusters):
    """Four instances 2 ms apart and a fifth at 30 ms; injected messages ride the real network."""
    system = build(fault_model, clusters)
    sim, network = system.sim, system.network
    byzantine = fault_model is BYZANTINE
    accept = CrossAcceptB if byzantine else CrossAccept
    everyone = tuple(range(clusters))
    shard_sets = [everyone, (0, 1), (1, clusters - 1) if clusters > 2 else (0, 1), everyone, (0, 1)]
    requests = [request(system, index, shards) for index, shards in enumerate(shard_sets)]
    digests = [item_digest(r) for r in requests]

    def primary(cluster):
        return int(system.config.cluster(ClusterId(cluster)).primary)

    def nodes(cluster):
        return [int(n) for n in system.config.cluster(ClusterId(cluster)).node_ids]

    def start(index):
        initiator = min(shard_sets[index])
        at = 0.030 if index == 4 else 0.002 * (index + 1)
        sim.schedule(at, system.replicas[primary(initiator)].cross.start, requests[index])

    def inject(at, src, dst, message):
        sim.schedule(at, network.send, src, dst, message)

    for index in range(5):
        start(index)
    faulty = nodes(1)[1]  # the one misbehaving backup (f = 1)
    # 1: duplicate votes — the backup repeats its accept to every
    # involved node, twice, while the instance is in flight.
    for repeat in (0.0045, 0.0046):
        for dst in nodes(0) + nodes(1):
            inject(repeat, faulty, dst, accept(digests[1], ClusterId(1), faulty, 2))
    # 2: two slots for one cluster.  Byzantine: the remote primary
    # equivocates towards one of its backups and the initiator before its
    # real accept is out.  Crash (nobody lies): a stale second position
    # reaches the initiator late and must lose to the first.
    remote = shard_sets[2][1]
    forged = accept(digests[2], ClusterId(remote), primary(remote), 40)
    if byzantine:
        for dst in (nodes(remote)[2], primary(shard_sets[2][0])):
            inject(0.0061, primary(remote), dst, forged)
    else:
        inject(0.0085, primary(remote), primary(shard_sets[2][0]), forged)
    # 3: votes before the propose — an accept and (Byzantine) a commit
    # from the faulty backup reach every node before instance 3 starts.
    for dst in range(len(system.replicas)):
        inject(0.0005, faulty, dst, accept(digests[3], ClusterId(1), faulty, 7))
        if byzantine:
            inject(0.0006, faulty, dst, CrossCommitB(digests[3], ClusterId(1), faulty, ()))
    # 4: wedged — cluster 1 is cut off before instance 4 starts, so the
    # instance never gathers a quorum and aborts after its retries.
    others = [pid for pid in system.replicas if pid not in nodes(1)]
    sim.schedule(0.0295, network.partition, [nodes(1), others])
    sim.run(until=0.5)
    network.heal()
    sim.run(until=0.6)
    return system, digests


def fingerprint(fault_model, clusters):
    """(readable counters, sha256 over positions / digests / event counts)."""
    system, digests = run_script(fault_model, clusters)
    replicas = [system.replicas[pid] for pid in sorted(system.replicas)]
    counters = tuple(
        sum(getattr(replica.cross, name) for replica in replicas)
        for name in ("initiated", "committed", "retries", "aborted", "late_commits")
    )
    decided = [
        (replica.pid, digest, replica.log.decided_slot_of(digest))
        for replica in replicas
        for digest in digests
    ]
    positions = [
        (replica.pid, entry.slot, entry.digest, tuple(sorted((entry.positions or {}).items())))
        for replica in replicas
        for entry in replica.log.entries()
    ]
    state = [(replica.pid, replica.store.state_digest(), replica.chain.head_hash) for replica in replicas]
    wire = (system.sim.processed_events, system.network.messages_sent, system.network.messages_dropped)
    blob = repr((counters, decided, positions, state, wire)).encode()
    return counters, hashlib.sha256(blob).hexdigest()[:16], system


#: recorded at the parent commit (8c48ca9) with the dict-of-dict engines.
PINNED = {
    (FaultModel.CRASH, 2): ((5, 4, 3, 1, 0), "875b54c33ae5d072"),
    (FaultModel.CRASH, 3): ((5, 4, 3, 1, 0), "f7b6003cb902fc0f"),
    (FaultModel.BYZANTINE, 2): ((5, 32, 3, 1, 0), "d52112ea034930a4"),
    (FaultModel.BYZANTINE, 3): ((5, 40, 3, 1, 0), "94b994c7bda82745"),
}


@pytest.mark.parametrize("fault_model,clusters", sorted(PINNED, key=repr))
def test_tally_engines_reproduce_the_parent_commit(fault_model, clusters):
    counters, digest, system = fingerprint(fault_model, clusters)
    assert (counters, digest) == PINNED[(fault_model, clusters)]
    report = system.safety_audit()
    assert report.ok, report.problems


# ----------------------------------------------------------------------
# the shared skeleton (reserve → decide → report), same cases per model
# ----------------------------------------------------------------------
MODELS = [FaultModel.CRASH, BYZANTINE]


def commit_at(system, replica, req, positions):
    """Hand ``replica`` everything its model needs to decide ``req`` at ``positions``."""
    digest = item_digest(req)
    involved = tuple(cluster for cluster, _ in positions)
    initiator = int(system.config.cluster(involved[0]).primary)
    if replica.cluster.fault_model is not BYZANTINE:
        replica.cross.handle(CrossCommit(digest, req, positions, involved[0]), src=initiator)
        return
    slot = dict(positions)[involved[0]]
    replica.cross.handle(CrossProposeB(digest, req, involved, involved[0], slot), src=initiator)
    for cluster in involved:
        for node in system.config.cluster(cluster).node_ids:
            replica.cross.handle(CrossCommitB(digest, cluster, node, positions), src=int(node))


@pytest.mark.parametrize("fault_model", MODELS)
class TestSharedSkeleton:
    def test_late_commit_onto_a_noop_filled_slot_is_counted_not_raised(self, fault_model):
        system = build(fault_model, 2)
        replica = system.replicas[1]  # a backup of cluster 0
        noop = Noop(reason="view-change fill")
        replica.log.decide(1, item_digest(noop), noop)
        req = request(system, 0, (0, 1))
        commit_at(system, replica, req, ((ClusterId(0), 1), (ClusterId(1), 1)))
        assert replica.cross.late_commits == 1
        assert replica.log.entry(1).is_noop
        assert replica.log.decided_slot_of(item_digest(req)) is None

    def test_conflicting_real_decision_still_raises(self, fault_model):
        system = build(fault_model, 2)
        replica = system.replicas[1]
        first, second = request(system, 0, (0, 1)), request(system, 1, (0, 1))
        positions = ((ClusterId(0), 1), (ClusterId(1), 1))
        commit_at(system, replica, first, positions)
        assert replica.log.decided_slot_of(item_digest(first)) == 1
        with pytest.raises(ConsensusError, match="fork"):
            commit_at(system, replica, second, positions)
        assert replica.cross.late_commits == 0

    def test_wedged_instance_aborts_after_max_conflict_retries(self, fault_model):
        system = build(fault_model, 2)
        primaries = [int(system.config.cluster(ClusterId(c)).primary) for c in (0, 1)]
        cluster1 = [int(n) for n in system.config.cluster(ClusterId(1)).node_ids]
        system.network.partition([cluster1, [p for p in system.replicas if p not in cluster1]])
        engine = system.replicas[primaries[0]].cross
        req = request(system, 0, (0, 1))
        engine.start(req)
        system.sim.run(until=1.0)
        assert (engine.initiated, engine.retries, engine.aborted) == (1, 3, 1)
        assert (engine.committed, engine.late_commits) == (0, 0)
        assert system.replicas[primaries[0]].log.decided_slot_of(item_digest(req)) is None


# ----------------------------------------------------------------------
# whole runs: a failover race (crash) and batched instances (Byzantine)
# ----------------------------------------------------------------------
def run_fingerprint(system):
    """(engine counters, events, messages, sha256 over heights / head hashes / state digests)."""
    replicas = [system.replicas[pid] for pid in sorted(system.replicas)]
    counters = tuple(
        sum(getattr(replica.cross, name) for replica in replicas)
        for name in ("initiated", "committed", "retries", "aborted", "late_commits")
    )
    state = [
        (replica.pid, replica.chain.height, replica.chain.head_hash, replica.store.state_digest())
        for replica in replicas
    ]
    digest = hashlib.sha256(repr(state).encode()).hexdigest()[:16]
    return counters, system.sim.processed_events, system.network.messages_sent, digest


def race_scenario(seed, checkpoint_interval=None):
    """perf/README.md's recorded finding: a primary crash under aggressive timers, 10% cross."""
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper",
            num_clusters=4,
            checkpoint_interval=checkpoint_interval,
            tuning=ProtocolTuning(view_change_timeout=0.05),
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.1, accounts_per_shard=256),
        clients=64,
        duration=0.6,
        retry_timeout=0.1,
        seed=seed,
        audit_safety=True,
        faults=FaultSchedule().crash_primary(at=0.2, cluster=0),
    )


#: recorded at ab177d2, before the two cross-shard engines were merged.
#: The trajectory is known to be wrong (ROADMAP item 2(a)): a client
#: retry reaches the new primary while a crash cross-shard instance is in
#: flight, half-commits it and drifts the total balance.  Item 2's crash
#: PR fixes that and re-records this pin; until then any move means the
#: engine's retry or position rule changed.
RACE_PINNED = ((396, 391, 0, 0, 0), 81675, 39930, "d4806404fcfb49f2")


def test_crash_failover_race_keeps_its_recorded_wrong_trajectory():
    """The pinned trajectory is known to be wrong (ROADMAP item 2(a)).

    It ends in balance drift and 7 audit problems.  Item 2's crash PR
    fixes the race and re-records this pin and the fork below.
    """
    result = race_scenario(1).run()
    assert run_fingerprint(result.system) == RACE_PINNED
    assert not result.balance_conserved
    assert len(result.audit.problems) == 7


#: audit problems of ``race_scenario(1, checkpoint_interval=16)``: the
#: race's half-commits land in history that checkpoint GC prunes, and
#: every one is a pruned cross-shard transaction missing from an involved
#: cluster.  ROADMAP item 2's crash fix re-records this count with
#: ``RACE_PINNED``.
RACE_PRUNED_PROBLEMS = 19


def test_checkpoint_gc_does_not_hide_the_race_from_the_audit():
    result = race_scenario(1, checkpoint_interval=16).run()
    problems = result.audit.problems
    assert len(problems) == RACE_PRUNED_PROBLEMS
    assert all("pruned by cluster" in problem and "missing" in problem for problem in problems)


def test_crash_failover_race_keeps_its_recorded_fork():
    # Same schedule, seed 5: known wrong too (ROADMAP item 2(a)).
    with pytest.raises(ConsensusError, match="slot 1126 decided twice"):
        race_scenario(5).run()


def test_the_journal_shows_the_retry_the_new_primary_already_logged():
    """ROADMAP 2(a) from an untraced run: at seed 5 a client retry reaches
    cluster 0's new primary (view 1) while its log holds the digest at the
    slot its own termination round is resolving.  The run forks by 0.35 s,
    so it stops at 0.3 s; the retry is still submitted as before."""
    result = dataclasses.replace(race_scenario(5), duration=0.3, verify=False).run()
    (retry,) = result.anomalies.of("cross_retry_in_log")
    new_primary = int(result.system.config.cluster(ClusterId(0)).primary_for_view(1))
    assert (retry.pid, retry.detail) == (new_primary, "view 1")
    (opened,) = [row for row in result.anomalies.of("termination_started") if row.pid == new_primary]
    assert (opened.slot, opened.digest) == (retry.slot, retry.digest)
    assert opened.time < retry.time


#: Byzantine, batch 8 / depth 4: ``RequestBatch`` items through Algorithm 2.
#: Recorded at ab177d2, before the two cross-shard engines were merged.
BATCHED_BYZANTINE_PINNED = ((339, 2712, 0, 0, 0), 129440, 64660, "3d8d0117d2b9f262")


def test_byzantine_batched_run_reproduces_the_parent_commit():
    result = Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=BYZANTINE, num_clusters=3, batch_size=8, pipeline_depth=4
        ),
        workload=WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=ACCOUNTS),
        clients=48,
        duration=0.3,
        seed=5,
    ).run()
    assert run_fingerprint(result.system) == BATCHED_BYZANTINE_PINNED
    assert result.ok and result.stats.committed_cross == 623
