"""A request no shard can classify is refused at intake, not raised through the run.

One client's request is rewritten on the wire (the interceptor hook the
adversary library uses) so that a transfer names an account outside the
keyspace, and travels straight to the replica the client routed it to.
At the parent of this test that raised ``UnknownAccountError`` out of
``_on_client_request``, through the event loop, and aborted the whole
run; now the replica answers with a failure reply, counts the request,
orders nothing — and every other client keeps committing.
"""

from dataclasses import dataclass, replace

import pytest

from repro.adversary.interceptor import MessageInterceptor, Outbound
from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.api.faults import FaultEvent
from repro.common.types import FaultModel
from repro.consensus.messages import ClientRequest
from repro.txn.transaction import Transaction
from repro.txn.workload import WorkloadConfig

OUTSIDE_THE_KEYSPACE = 10**9


class _Garbler(MessageInterceptor):
    """Rewrites one request of its client to name an account no shard owns.

    The transaction id is kept, so the failure reply completes the
    request the client believes it sent; retries of it are garbled too.
    """

    def __init__(self, cross_shard: bool) -> None:
        super().__init__()
        self.cross_shard = cross_shard
        self.tx_id: str | None = None

    def outbound(self, dst, message):
        if not isinstance(message, ClientRequest):
            return None
        transaction = message.transaction
        cross = len(transaction.involved_shards(self.process.workload.mapper)) > 1
        if self.tx_id is None and cross == self.cross_shard:
            self.tx_id = transaction.tx_id
        if transaction.tx_id != self.tx_id:
            return None
        malformed = Transaction.transfer(
            client=transaction.client,
            source=transaction.transfers[0].source,
            destination=OUTSIDE_THE_KEYSPACE,
            amount=1,
            timestamp=transaction.timestamp,
            tx_id=transaction.tx_id,
        )
        return self.emit(Outbound(dst, replace(message, transaction=malformed)))


@dataclass(frozen=True)
class _GarbleOneRequest(FaultEvent):
    """Attach a :class:`_Garbler` to client 0 (optionally with the guards armed)."""

    cross_shard: bool = False
    guarded: bool = False

    def bind(self, system):
        def garble() -> None:
            if self.guarded:
                system.arm_request_guards()
            garbler = _Garbler(self.cross_shard)
            system.clients[0].set_interceptor(garbler)
            system.garbler = garbler

        return garble


def run_with_one_malformed_request(system, fault_model=FaultModel.CRASH, **event):
    return Scenario(
        deployment=DeploymentSpec(system=system, fault_model=fault_model, num_clusters=3),
        workload=WorkloadConfig(cross_shard_fraction=0.3, accounts_per_shard=64),
        clients=6,
        duration=0.3,
        warmup=0.01,
        retry_timeout=0.05,
        seed=3,
        faults=FaultSchedule().add(_GarbleOneRequest(time=0.0, **event)),
    ).run()


def assert_refused_and_counted(result):
    system = result.system
    culprit, honest = system.clients[0], system.clients[1:]
    assert system.garbler.tx_id is not None, "the scenario never sent the malformed request"
    # the run reached its end, the submitter saw exactly one failed completion ...
    assert culprit.failed == 1 and culprit.outstanding == 0
    assert culprit.completed > 1, "the culprit's later, well-formed requests still commit"
    # ... nothing malformed was ordered, and everyone else kept committing
    assert result.audit.ok, result.audit.problems
    assert result.balance_conserved
    assert all(client.failed == 0 and client.completed > 5 for client in honest)
    for view in system.views().values():
        assert not view.contains_tx(system.garbler.tx_id)
    rejected = sum(process.rejected_requests for process in system.processes()
                   if hasattr(process, "rejected_requests"))
    assert rejected >= system.required_replies
    return rejected


class TestSharPer:
    @pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guards-armed"])
    def test_crash_model_refuses_and_keeps_serving(self, guarded):
        result = run_with_one_malformed_request("sharper", guarded=guarded)
        assert assert_refused_and_counted(result) == 1
        if guarded:
            # the door's pending registration did not outlive the refusal
            for replica in result.system.replicas.values():
                assert result.system.garbler.tx_id not in replica.request_guard._pending_tx

    def test_byzantine_model_collects_f_plus_one_refusals(self):
        """One refusal is not a completion there: the client's retries walk
        the cluster's nodes until ``f + 1`` distinct replicas have refused."""
        result = run_with_one_malformed_request("sharper", FaultModel.BYZANTINE)
        assert assert_refused_and_counted(result) >= 2
        assert result.system.clients[0].resubmissions >= 1


class TestBaselines:
    """The same intake hole, closed the same way."""

    def test_ahl_shard_replica(self):
        assert_refused_and_counted(run_with_one_malformed_request("ahl"))

    def test_ahl_reference_committee(self):
        """A cross-shard request is routed to the committee, which classifies it."""
        result = run_with_one_malformed_request("ahl", cross_shard=True)
        assert_refused_and_counted(result)
        committee = result.system.committee_replicas.values()
        assert sum(member.rejected_requests for member in committee) == 1

    @pytest.mark.parametrize("system", ["apr", "fast"])
    def test_single_group(self, system):
        """No sharding, so no classification — execution met the account first."""
        assert_refused_and_counted(run_with_one_malformed_request(system))
