"""Unit tests for the client's rolling retry timer.

One simulator timer per client tracks every outstanding request's resend
deadline.  The regression pinned here: a deadline firing while the
client is crashed is skipped by the crash guard, and the timer must
still count as expired so that recovery re-arms it — otherwise the
client never resends anything again.
"""

from __future__ import annotations

from repro.common.config import PerformanceModel
from repro.common.metrics import MetricsCollector
from repro.common.types import ClusterId, NodeId
from repro.consensus.messages import ClientReply, ClientRequest
from repro.core.client import CLIENT_PID_BASE, ClosedLoopClient
from repro.sim.costs import CostModel
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.txn.workload import WorkloadConfig, WorkloadGenerator


class BlackHoleReplica(Process):
    """Swallows every request without ever replying."""

    def __init__(self, sim, network, cost_model):
        super().__init__(0, sim, network, cost_model)
        self.requests = 0
        self.register_handler(ClientRequest, self._on_request)

    def _on_request(self, message, src):
        self.requests += 1


def reply(sender, client, tx_id):
    """``sender`` sends ``client`` a successful reply for ``tx_id``."""
    sender.send(client.pid, ClientReply(tx_id, NodeId(sender.pid), ClusterId(0), 0, True))


def build_client(retry_timeout=0.5, replicas=frozenset({0})):
    sim = Simulator(seed=3)
    network = Network(sim, PerformanceModel(client_latency=1e-3, latency_jitter=0.0), {})
    cost = CostModel(PerformanceModel(message_cpu=0.0, latency_jitter=0.0))
    replica = BlackHoleReplica(sim, network, cost)
    workload = WorkloadGenerator(WorkloadConfig(accounts_per_shard=16), num_shards=1, seed=5)
    client = ClosedLoopClient(
        pid=CLIENT_PID_BASE,
        sim=sim,
        network=network,
        cost_model=cost,
        workload=workload,
        router=lambda transaction: 0,
        metrics=MetricsCollector(),
        replicas=replicas,
        retry_timeout=retry_timeout,
    )
    return sim, replica, client


class TestRollingRetryTimer:
    def test_unanswered_request_is_resent_on_every_deadline(self):
        sim, replica, client = build_client(retry_timeout=0.5)
        client.start()
        sim.run(until=1.8)
        assert client.outstanding == 1
        # submitted at ~0, resent at ~0.5, ~1.0, ~1.5
        assert client.resubmissions == 3
        assert replica.requests == 4

    def test_resends_do_not_duplicate_the_rolling_timer(self):
        """Each resend re-arms inside the fire loop; the arm helper must
        cancel the previous handle so exactly one timer stays live —
        orphaned duplicates would each re-arm themselves forever and blow
        the event count up by an order of magnitude."""
        sim, replica, client = build_client(retry_timeout=0.5)
        client.start()
        sim.run(until=3.2)
        assert client.resubmissions == 6  # deadlines at 0.5s, 1.0s, ... 3.0s
        # ~2 events per message plus one timer fire per deadline.
        assert sim.processed_events < 40

    def test_deadline_fired_during_crash_does_not_wedge_the_timer(self):
        sim, replica, client = build_client(retry_timeout=0.5)
        client.start()
        sim.run(until=0.2)
        client.crash()
        sim.run(until=1.0)  # the 0.5s deadline fires while crashed: skipped
        assert client.resubmissions == 0
        client.recover()
        client._issue_next()  # next submission must re-arm the rolling timer
        assert client._retry_timer is not None and client._retry_timer.active
        sim.run(until=3.0)
        # Both the stalled request and the new one are being resent again.
        assert client.resubmissions > 0


class TestReplies:
    def test_replies_from_pids_outside_the_deployment_do_not_complete(self):
        # Byzantine f = 1: two replies complete a transaction, but only
        # from replicas of the deployment (here pids 0 and 1).
        sim, replica, client = build_client(replicas=frozenset({0, 1}))
        client.required_replies = 2
        client.start()
        sim.run(until=0.1)
        (tx_id,) = client._outstanding
        network, cost = client.network, client.cost_model
        for pid in (900, 901):
            reply(Process(pid, sim, network, cost), client, tx_id)
        sim.run(until=0.2)
        assert client.outstanding == 1 and client.completed == 0
        reply(Process(1, sim, network, cost), client, tx_id)
        sim.run(until=0.3)
        assert client.outstanding == 1  # one replica's reply is not two
        reply(replica, client, tx_id)
        sim.run(until=0.4)
        assert client.completed == 1 and tx_id not in client._outstanding
