"""Unit tests for the simulated network (latency, FIFO, partitions)."""

import pytest

from repro.common.config import PerformanceModel
from repro.common.errors import NetworkError
from repro.sim.costs import CostModel
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Recorder(Process):
    """Process that records every delivered message with its arrival time."""

    def __init__(self, pid, sim, network):
        super().__init__(pid, sim, network, CostModel(PerformanceModel(message_cpu=0.0)))
        self.received = []
        self.register_handlers({kind: self._note for kind in (str, int, tuple)})

    def _note(self, message, src):
        self.received.append((self.sim.now, src, message))


def one_cluster(latency=1e-3, jitter=0.0, seed=3, size=3):
    """A simulator and a network whose ``size`` pids share one cluster."""
    sim = Simulator(seed=seed)
    performance = PerformanceModel(intra_cluster_latency=latency, latency_jitter=jitter)
    return sim, Network(sim, performance, {pid: 0 for pid in range(size)})


def make_net(latency=1e-3, jitter=0.0):
    sim, network = one_cluster(latency, jitter)
    nodes = [Recorder(pid, sim, network) for pid in range(3)]
    return sim, network, nodes


class TestDelivery:
    def test_point_to_point_delivery(self):
        sim, network, nodes = make_net()
        network.send(0, 1, "hello")
        sim.run()
        assert [(src, msg) for _, src, msg in nodes[1].received] == [(0, "hello")]

    def test_latency_applied(self):
        sim, network, nodes = make_net(latency=5e-3)
        network.send(0, 1, "x")
        sim.run()
        assert nodes[1].received[0][0] == 5e-3  # no jitter: exactly the base

    def test_unknown_destination_raises(self):
        sim, network, _ = make_net()
        with pytest.raises(NetworkError):
            network.send(0, 99, "x")

    def test_multicast_excludes_self_by_default(self):
        sim, network, nodes = make_net()
        sent = network.multicast(0, [0, 1, 2], "m")
        sim.run()
        assert sent == 2
        assert not nodes[0].received
        assert nodes[1].received and nodes[2].received

    def test_fifo_preserves_per_link_order_despite_jitter(self):
        sim, network, nodes = make_net(latency=1e-3, jitter=2.0)
        for index in range(20):
            network.send(0, 1, index)
        sim.run()
        payloads = [msg for _, _, msg in nodes[1].received]
        assert payloads == list(range(20))


class TestMulticast:
    """The shared-payload multicast primitive and its fault-path interaction."""

    def test_fast_path_matches_per_send_latency_and_payload(self):
        sim, network, nodes = make_net(latency=2e-3)
        payload = ("shared", "payload")
        sent = network.multicast(0, [1, 2], payload)
        sim.run()
        assert sent == 2
        for node in nodes[1:]:
            arrival, src, message = node.received[0]
            assert arrival == pytest.approx(2e-3)
            assert src == 0
            assert message is payload  # one immutable object, not a copy

    def test_multicast_consumes_rng_like_sequential_sends(self):
        """Jitter draws happen per destination in destination order.

        Three rounds: the first resolves the route, the later ones walk
        the memoised rows (with the FIFO clamp live) — every arrival and
        the RNG state afterwards must match a loop of ``send`` calls.
        """

        def arrivals(use_multicast):
            sim, network = one_cluster(jitter=1.0, seed=9, size=4)
            nodes = [Recorder(pid, sim, network) for pid in range(4)]
            for round_ in range(3):
                if use_multicast:
                    assert network.multicast(0, (0, 1, 2, 3), round_, depart_time=round_ * 1e-4) == 3
                else:
                    for dst in (1, 2, 3):
                        network.send(0, dst, round_, depart_time=round_ * 1e-4)
            assert ((0, (0, 1, 2, 3)) in network._routes) is use_multicast
            sim.run()
            return [node.received for node in nodes[1:]], sim.rng.getstate()

        assert arrivals(True) == arrivals(False)

    def test_partition_drops_cross_group_multicast_only(self):
        sim, network, nodes = make_net()
        network.partition([[0, 1], [2]])
        sent = network.multicast(0, [1, 2], "m")
        sim.run()
        assert sent == 1
        assert [m for _, _, m in nodes[1].received] == ["m"]  # intra-partition
        assert nodes[2].received == []  # across the partition
        assert network.messages_dropped == 1

    def test_heal_restores_multicast_fast_path(self):
        sim, network, nodes = make_net()
        network.partition([[0], [1, 2]])
        assert network.multicast(0, [1, 2], "blocked") == 0
        network.heal()
        assert network.multicast(0, [1, 2], "after-heal") == 2
        sim.run()
        assert [m for _, _, m in nodes[1].received] == ["after-heal"]
        assert [m for _, _, m in nodes[2].received] == ["after-heal"]

    def test_multicast_unknown_destination_raises(self):
        sim, network, _ = make_net()
        with pytest.raises(NetworkError):
            network.multicast(0, [1, 99], "m")

    def test_multicast_preserves_fifo_per_link(self):
        sim, network, nodes = make_net(latency=1e-3, jitter=3.0)
        for index in range(20):
            network.multicast(0, [1, 2], index)
        sim.run()
        assert [m for _, _, m in nodes[1].received] == list(range(20))
        assert [m for _, _, m in nodes[2].received] == list(range(20))


class TestRoutes:
    """Memoised routes: faults are honoured on the next send, counters stay exact."""

    def test_partition_armed_after_memoisation_is_honoured_and_heal_restores(self):
        sim, network, nodes = make_net()
        assert network.multicast(0, (1, 2), "warm") == 2  # route memoised
        network.partition([[0, 1], [2]])
        assert network.multicast(0, (1, 2), "split") == 1
        assert network.send(0, 2, "split") is False
        network.heal()
        assert network.multicast(0, (1, 2), "healed") == 2
        sim.run()
        assert [m for _, _, m in nodes[1].received] == ["warm", "split", "healed"]
        assert [m for _, _, m in nodes[2].received] == ["warm", "healed"]
        assert network.messages_dropped == 2

    def test_partition_armed_after_a_memoised_send_is_honoured(self):
        sim, network, nodes = make_net()
        network.multicast(0, (1, 2), "warm")
        network.send(0, 2, "warm")
        network.partition([[0, 1], [2]])
        assert network.multicast(0, (1, 2), "cut") == 1
        assert network.send(0, 2, "cut") is False
        network.heal()
        assert network.multicast(0, (1, 2), "back") == 2
        sim.run()
        assert [m for _, _, m in nodes[2].received] == ["warm", "warm", "back"]

    def test_counters_stay_exact_across_a_partition(self):
        sim, network, nodes = make_net()
        network.multicast(0, (1, 2), "warm")
        network.partition([[0, 1], [2]])
        for _ in range(50):
            network.multicast(0, (1, 2), "split")
        assert network.messages_dropped == 50
        network.heal()
        assert network.multicast(0, (1, 2), "clean") == 2
        sim.run()
        assert network.messages_dropped == 50
        assert network.messages_sent == 104
        assert network.messages_sent == network.messages_dropped + network.messages_delivered

    def test_general_path_draws_like_sequential_sends(self):
        """While partitioned, jitter is drawn per reached destination in
        destination order, as in a send loop; a dropped copy draws nothing."""

        def arrivals(use_multicast):
            sim, network = one_cluster(jitter=1.0, seed=4, size=4)
            nodes = [Recorder(pid, sim, network) for pid in range(4)]
            network.partition([[0, 1, 3], [2]])
            for round_ in range(10):
                if use_multicast:
                    assert network.multicast(0, (1, 2, 3), round_) == 2
                else:
                    for dst in (1, 2, 3):
                        network.send(0, dst, round_)
            sim.run()
            received = [node.received for node in nodes[1:]]
            return received, network.messages_dropped, sim.rng.getstate()

        assert arrivals(True) == arrivals(False)

    def test_crash_between_send_and_arrival_drops_at_deliver(self):
        sim, network, nodes = make_net()
        network.multicast(0, (1, 2), "m")
        network.send(0, 1, "s")
        nodes[1].crash()
        sim.run()
        assert nodes[1].received == [] and nodes[1].messages_missed == 2
        assert [m for _, _, m in nodes[2].received] == ["m"]
        # the wire did its job: all three arrived, two at a dead NIC
        assert network.messages_sent == network.messages_delivered == 3
        nodes[1].recover()
        network.send(0, 1, "after")
        sim.run()
        assert [m for _, _, m in nodes[1].received] == ["after"]

    def test_routes_are_built_lazily_per_destination_tuple(self):
        sim, network, nodes = make_net()
        assert not network._routes and not network._links
        network.multicast(0, [0, 1, 2], "m")  # lists are accepted, keyed as tuples
        network.multicast(0, (0, 1, 2), "m")
        assert list(network._routes) == [(0, (0, 1, 2))]
        assert len(network._links) == 2  # self excluded


class TestFaults:
    def test_partition_blocks_cross_group_traffic(self):
        sim, network, nodes = make_net()
        network.partition([[0], [1, 2]])
        network.send(0, 1, "blocked")
        network.send(1, 2, "ok")
        sim.run()
        assert not nodes[1].received
        assert nodes[2].received
        network.heal()
        network.send(0, 1, "after-heal")
        sim.run()
        assert [msg for _, _, msg in nodes[1].received] == ["after-heal"]

    def test_unlisted_processes_reach_every_group(self):
        sim, network = one_cluster()
        nodes = [Recorder(pid, sim, network) for pid in range(3)]
        outsider = Recorder(1_000_000, sim, network)
        network.partition([[0], [1, 2]])
        assert network.send(outsider.pid, 0, "in") and network.send(2, outsider.pid, "out")
        sim.run()
        assert [m for _, _, m in nodes[0].received] == ["in"]
        assert [m for _, _, m in outsider.received] == ["out"]
        assert network.messages_dropped == 0


def _delays(network, sim, src, dst, receiver, count):
    """One-way delays of ``count`` sends, each after the previous arrived
    (so the FIFO clamp never binds)."""
    delays = []
    for _ in range(count):
        start = sim.now
        network.send(src, dst, "x")
        sim.run()
        delays.append(receiver.received[-1][0] - start)
    return delays


class TestLinkDelays:
    """A link's base comes from the topology; jitter is a multiplicative
    fraction of it: base * (1 + U[0, jitter])."""

    def _topology(self, jitter):
        sim = Simulator(seed=5)
        performance = PerformanceModel(
            intra_cluster_latency=1e-3,
            cross_cluster_latency=10e-3,
            client_latency=3e-3,
            latency_jitter=jitter,
        )
        network = Network(sim, performance, {0: 0, 1: 0, 2: 1})
        nodes = {pid: Recorder(pid, sim, network) for pid in (0, 1, 2, 999)}
        return sim, network, nodes

    def test_intra_vs_cross_vs_client(self):
        sim, network, nodes = self._topology(jitter=0.0)
        for dst, base in ((1, 1e-3), (2, 10e-3), (999, 3e-3)):
            assert _delays(network, sim, 0, dst, nodes[dst], 1) == [pytest.approx(base)]
        assert _delays(network, sim, 999, 2, nodes[2], 1) == [pytest.approx(3e-3)]

    def test_jitter_is_multiplicative_and_bounded(self):
        sim, network, nodes = self._topology(jitter=0.25)
        for dst, base in ((1, 1e-3), (2, 10e-3), (999, 3e-3)):
            delays = _delays(network, sim, 0, dst, nodes[dst], 100)
            assert all(base <= delay <= base * 1.25 * (1 + 1e-12) for delay in delays)
            assert len(set(delays)) > 1

    def test_cluster_of_is_read_when_a_link_is_first_used(self):
        sim, network, nodes = self._topology(jitter=0.0)
        network.cluster_of[999] = 0  # a late member joins cluster 0
        assert _delays(network, sim, 0, 999, nodes[999], 1) == [pytest.approx(1e-3)]
