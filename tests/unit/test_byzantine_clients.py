"""Byzantine clients vs. the replica-side request guard.

The replica request path was built assuming correct clients; these
tests exercise it against forged, duplicated, replayed, and
ownership-violating traffic — the request guard must screen all of it
while honest traffic flows untouched, and the cross-replica safety
audit (no fork, balance conservation, at-most-once) must keep passing.
"""

import dataclasses

import pytest

from repro import FaultModel, WorkloadConfig
from repro.adversary import available_behaviors, get_behavior, make_behavior
from repro.api import DeploymentSpec, FaultSchedule, MakeClientByzantine, Scenario
from repro.common.crypto import KeyPair, Signature
from repro.common.types import AccountId, ClientId
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.core.guard import ADMIT, DROP, REFUSE, InertGuard, RequestGuard
from repro.txn.transaction import Transaction


class FakeChain:
    def __init__(self):
        self.committed = set()

    def contains_tx(self, tx_id):
        return tx_id in self.committed


def request(tx_id="tx-1", client=1, timestamp=1.0, reply_to=1_000_000, source=1, keypair=None):
    transaction = Transaction.transfer(
        client=ClientId(client),
        source=AccountId(source),
        destination=AccountId(source + 1),
        amount=5,
        timestamp=timestamp,
        tx_id=tx_id,
        keypair=keypair,
    )
    return ClientRequest(
        transaction=transaction,
        client=transaction.client,
        timestamp=timestamp,
        reply_to=reply_to,
    )


class TestRequestGuardUnit:
    def test_admits_and_registers_honest_requests(self):
        guard = RequestGuard(FakeChain())
        assert guard.screen(request()) == ADMIT
        assert (
            guard.rejected_forged + guard.rejected_ownership
            + guard.rejected_replays + guard.rejected_duplicates
        ) == 0

    def test_valid_signature_is_accepted(self):
        guard = RequestGuard(FakeChain())
        signed = request(keypair=KeyPair(owner=1))
        assert guard.screen(signed) == ADMIT

    def test_forged_signature_is_dropped(self):
        guard = RequestGuard(FakeChain())
        honest = request()
        forged_tx = Transaction(
            tx_id="tx-f",
            client=honest.transaction.client,
            transfers=honest.transaction.transfers,
            timestamp=honest.transaction.timestamp,
            signature=Signature(signer=1, payload_digest="bogus", forged=True),
        )
        forged = ClientRequest(
            transaction=forged_tx, client=forged_tx.client, timestamp=1.0, reply_to=1_000_000
        )
        assert guard.screen(forged) == DROP
        assert guard.rejected_forged == 1

    def test_ownership_violation_is_refused(self):
        guard = RequestGuard(FakeChain(), owner_of=lambda account: ClientId(int(account) % 2))
        # account 1 is owned by client 1 under the modulo map: admitted.
        assert guard.screen(request(client=1, source=1)) == ADMIT
        # account 2 is owned by client 0: refused (with a failure reply).
        assert guard.screen(request(tx_id="tx-2", client=1, source=2)) == REFUSE
        assert guard.rejected_ownership == 1

    def test_replay_below_the_committed_window_is_dropped(self):
        guard = RequestGuard(FakeChain())
        old = request(tx_id="tx-old", timestamp=1.0)
        assert guard.screen(old) == ADMIT
        guard.committed(old)
        newer = request(tx_id="tx-new", timestamp=2.0)
        assert guard.screen(newer) == ADMIT
        guard.committed(newer)
        replay = request(tx_id="tx-replayed", timestamp=1.5)
        assert guard.screen(replay) == DROP
        assert guard.rejected_replays == 1

    def test_retry_of_committed_request_passes_the_window(self):
        chain = FakeChain()
        guard = RequestGuard(chain)
        first = request(tx_id="tx-1", timestamp=1.0)
        assert guard.screen(first) == ADMIT
        chain.committed.add("tx-1")
        guard.committed(first)
        # A late retry carries the original (now lowest) timestamp but is
        # answered through the chain's duplicate index, not dropped.
        assert guard.screen(request(tx_id="tx-1", timestamp=1.0)) == ADMIT

    def test_mutated_timestamp_duplicate_is_dropped(self):
        guard = RequestGuard(FakeChain())
        original = request(tx_id="tx-1", timestamp=1.0)
        duplicate = request(tx_id="tx-1", timestamp=1.0000001)
        assert guard.screen(original) == ADMIT
        assert guard.screen(duplicate) == DROP
        assert guard.rejected_duplicates == 1
        # Identical retries of the in-flight original stay admitted.
        assert guard.screen(request(tx_id="tx-1", timestamp=1.0)) == ADMIT

    def test_apply_backstop_catches_committed_duplicates(self):
        chain = FakeChain()
        guard = RequestGuard(chain)
        chain.committed.add("tx-1")
        assert guard.is_duplicate_apply("tx-1")
        assert not guard.is_duplicate_apply("tx-2")
        assert guard.deduped_applies == 1

    def test_a_batch_with_one_refused_member_is_refused(self):
        guard = RequestGuard(FakeChain(), owner_of=lambda account: ClientId(1))
        honest, stolen = request(tx_id="tx-1"), request(tx_id="tx-2", client=2)
        assert guard.screen_item(RequestBatch(requests=(honest,))) == ADMIT
        assert guard.screen_item(RequestBatch(requests=(honest, stolen))) == REFUSE


class TestInertGuard:
    """The guard a replica holds until an adversary enters the run."""

    def test_admits_everything_and_keeps_no_books(self):
        guard = InertGuard(FakeChain())
        forged = request(keypair=KeyPair(owner=2))
        assert RequestGuard(FakeChain()).screen(forged) == DROP
        assert guard.screen(forged) == ADMIT
        assert guard.screen_item(RequestBatch(requests=(forged,))) == ADMIT
        assert guard.committed(forged) is None and guard.abandoned("tx-1") is None

    def test_apply_backstop_is_the_chains_duplicate_index(self):
        chain = FakeChain()
        guard = InertGuard(chain)
        chain.committed.add("tx-1")
        assert guard.is_duplicate_apply("tx-1")
        assert not guard.is_duplicate_apply("tx-2")


def client_attack(behavior, seed=1, duration=0.6, cross=0.2, **overrides):
    return Scenario(
        deployment=DeploymentSpec(
            system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
        ),
        workload=WorkloadConfig(cross_shard_fraction=cross, accounts_per_shard=64),
        clients=8,
        duration=duration,
        warmup=0.06,
        seed=seed,
        faults=FaultSchedule().make_client_byzantine(at=0.05, client=0, behavior=behavior),
        **overrides,
    )


def guard_totals(system):
    guards = [
        process.request_guard
        for process in system.processes()
        if isinstance(getattr(process, "request_guard", None), RequestGuard)
    ]
    assert guards, "adversary events must arm the request guards"
    return {
        "forged": sum(guard.rejected_forged for guard in guards),
        "ownership": sum(guard.rejected_ownership for guard in guards),
        "replays": sum(guard.rejected_replays for guard in guards),
        "duplicates": sum(guard.rejected_duplicates for guard in guards),
    }


class TestClientBehaviorsAreSafe:
    @pytest.mark.parametrize("behavior", sorted(available_behaviors("client")))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_client_attack_passes_the_safety_audit(self, behavior, seed):
        result = client_attack(behavior, seed=seed).run()
        assert result.safety is not None, "client adversaries must arm the audit"
        problems = (result.audit.problems if result.audit else []) + result.safety.problems
        assert result.ok, problems
        # The system keeps committing for the honest clients.
        assert result.stats.committed > 0
        assert all(height > 0 for height in result.chain_heights.values())

    def test_duplicating_client_is_deduped(self):
        result = client_attack("duplicating-client").run()
        assert result.ok
        totals = guard_totals(result.system)
        assert totals["duplicates"] > 0
        behavior = result.system.clients[0].interceptor
        assert behavior.duplicates_sent > 0

    def test_forged_signatures_are_rejected_at_the_door(self):
        result = client_attack("forged-signature-client").run()
        assert result.ok
        totals = guard_totals(result.system)
        assert totals["forged"] > 0
        # The impersonated transactions never reach any chain.
        for cluster_id, view in result.system.views().items():
            assert not any(
                tx.tx_id.endswith("-forged1")
                for block in view.blocks()
                for tx in block.transactions
            )

    def test_ownership_violations_are_refused_everywhere(self):
        result = client_attack("ownership-violator-client").run()
        assert result.ok
        totals = guard_totals(result.system)
        assert totals["ownership"] > 0
        # Balance conservation is part of result.ok; make it explicit.
        assert result.total_balance == result.expected_balance

    def test_honest_runs_never_arm_the_guard(self):
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper", fault_model=FaultModel.BYZANTINE, num_clusters=2
            ),
            workload=WorkloadConfig(accounts_per_shard=64),
            clients=8,
            duration=0.2,
        )
        result = scenario.run()
        assert result.ok
        assert not any(
            isinstance(getattr(process, "request_guard", None), RequestGuard)
            for process in result.system.processes()
        )


class TestSchedulingSurface:
    def test_make_client_byzantine_event_is_adversarial(self):
        schedule = FaultSchedule().make_client_byzantine(
            at=0.1, client=2, behavior="duplicating-client"
        )
        (event,) = schedule.events
        assert isinstance(event, MakeClientByzantine)
        assert event.adversarial
        assert "client 2" in event.describe()

    def test_restore_detaches_a_byzantine_client(self):
        faults = (
            FaultSchedule()
            .make_client_byzantine(at=0.05, client=0, behavior="duplicating-client")
            .restore(at=0.2, node=1_000_000)
        )
        result = dataclasses.replace(client_attack("duplicating-client"), faults=faults).run()
        client = result.system.clients[0]
        assert client.interceptor is None
        assert not any(client.byzantine for client in result.system.clients)
        assert result.ok

    def test_client_behaviors_have_client_target(self):
        for name in ("duplicating-client", "forged-signature-client", "ownership-violator-client"):
            assert get_behavior(name).target == "client"
        assert name not in available_behaviors()  # replica listing excludes them

    def test_behavior_instances_survive_the_jobs_pool(self):
        from repro.api import run_scenarios

        base = client_attack("duplicating-client", duration=0.3)
        scenarios = [dataclasses.replace(base, seed=seed) for seed in (1, 2)]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        for s, p in zip(serial, pooled):
            assert p.system is None
            assert s.stats.committed == p.stats.committed
            assert s.chain_heights == p.chain_heights
