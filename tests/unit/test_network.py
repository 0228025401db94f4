"""Unit tests for the simulated network (latency, FIFO, faults)."""

import pytest

from repro.common.config import PerformanceModel
from repro.common.errors import NetworkError
from repro.sim.costs import CostModel
from repro.sim.network import ClusteredLatencyModel, Network, UniformLatencyModel
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Recorder(Process):
    """Process that records every delivered message with its arrival time."""

    def __init__(self, pid, sim, network):
        super().__init__(pid, sim, network, CostModel(PerformanceModel(message_cpu=0.0)))
        self.received = []

    def on_message(self, message, src):
        self.received.append((self.sim.now, src, message))


def make_net(latency=1e-3, jitter=0.0, drop_rate=0.0, fifo=True):
    sim = Simulator(seed=3)
    network = Network(sim, UniformLatencyModel(latency, jitter, rng=sim.rng), drop_rate, fifo=fifo)
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
        assert nodes[1].received[0][0] == pytest.approx(5e-3)

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

    def test_non_fifo_network_may_reorder(self):
        sim, network, nodes = make_net(latency=1e-3, jitter=5.0, fifo=False)
        for index in range(30):
            network.send(0, 1, index)
        sim.run()
        payloads = [msg for _, _, msg in nodes[1].received]
        assert sorted(payloads) == list(range(30))


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
            sim = Simulator(seed=9)
            network = Network(sim, UniformLatencyModel(1e-3, jitter=1.0, rng=sim.rng))
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

    def test_severed_link_breaks_fast_path_per_destination(self):
        sim, network, nodes = make_net()
        network.disconnect(0, 2)
        sent = network.multicast(0, [1, 2], "m")
        sim.run()
        assert sent == 1
        assert nodes[1].received and not nodes[2].received

    def test_multicast_drop_rate_applies_per_destination(self):
        sim, network, nodes = make_net(drop_rate=0.5)
        for _ in range(100):
            network.multicast(0, [1, 2], "m")
        sim.run()
        delivered = len(nodes[1].received) + len(nodes[2].received)
        assert 0 < delivered < 200
        assert network.messages_dropped + network.messages_delivered == 200

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

    def test_severed_link_armed_after_memoisation_is_honoured(self):
        sim, network, nodes = make_net()
        network.multicast(0, (1, 2), "warm")
        network.send(0, 2, "warm")
        network.disconnect(0, 2)
        assert network.multicast(0, (1, 2), "cut") == 1
        assert network.send(0, 2, "cut") is False
        network.reconnect(0, 2)
        assert network.multicast(0, (1, 2), "back") == 2
        sim.run()
        assert [m for _, _, m in nodes[2].received] == ["warm", "warm", "back"]

    def test_drop_rate_armed_after_memoisation_is_honoured(self):
        sim, network, nodes = make_net()
        network.multicast(0, (1, 2), "warm")
        network.drop_rate = 0.5
        for _ in range(50):
            network.multicast(0, (1, 2), "lossy")
        dropped = network.messages_dropped
        assert 0 < dropped < 100
        network.drop_rate = 0.0
        assert network.multicast(0, (1, 2), "clean") == 2
        sim.run()
        assert network.messages_dropped == dropped
        assert network.messages_sent == 104
        assert network.messages_sent == network.messages_dropped + network.messages_delivered

    def test_general_path_draws_like_sequential_sends(self):
        """Drop and jitter draws interleave per destination, as in a send loop."""

        def arrivals(use_multicast):
            sim = Simulator(seed=4)
            network = Network(sim, UniformLatencyModel(1e-3, jitter=1.0, rng=sim.rng), 0.3)
            nodes = [Recorder(pid, sim, network) for pid in range(4)]
            for round_ in range(10):
                if use_multicast:
                    network.multicast(0, (1, 2, 3), round_)
                else:
                    for dst in (1, 2, 3):
                        network.send(0, dst, round_)
            sim.run()
            return [node.received for node in nodes[1:]], network.messages_dropped

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
    def test_drop_rate_loses_messages(self):
        sim, network, nodes = make_net(drop_rate=0.5)
        for _ in range(200):
            network.send(0, 1, "x")
        sim.run()
        assert 0 < len(nodes[1].received) < 200
        assert network.messages_dropped > 0

    def test_disconnect_and_reconnect(self):
        sim, network, nodes = make_net()
        network.disconnect(0, 1)
        network.send(0, 1, "lost")
        network.reconnect(0, 1)
        network.send(0, 1, "delivered")
        sim.run()
        assert [msg for _, _, msg in nodes[1].received] == ["delivered"]

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

    def test_invalid_drop_rate(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            Network(sim, UniformLatencyModel(1e-3), drop_rate=1.5)


class TestJitterSemantics:
    """Jitter is a multiplicative fraction: base * (1 + U[0, jitter])."""

    def test_uniform_jitter_is_multiplicative_and_bounded(self):
        model = UniformLatencyModel(2e-3, jitter=0.5)
        for _ in range(200):
            delay = model.delay(0, 1)
            assert 2e-3 <= delay <= 3e-3  # base * [1, 1.5]

    def test_uniform_zero_jitter_is_exact(self):
        model = UniformLatencyModel(2e-3)
        assert model.delay(0, 1) == pytest.approx(2e-3)

    def test_uniform_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(1e-3, jitter=-0.1)

    def test_clustered_model_uses_same_convention(self):
        perf = PerformanceModel(
            intra_cluster_latency=1e-3,
            cross_cluster_latency=4e-3,
            latency_jitter=0.25,
        )
        model = ClusteredLatencyModel(perf, {0: 0, 1: 0, 2: 1})
        for _ in range(200):
            assert 1e-3 <= model.delay(0, 1) <= 1.25e-3
            assert 4e-3 <= model.delay(0, 2) <= 5e-3


class TestClusteredLatencyModel:
    def test_intra_vs_cross_vs_client(self):
        perf = PerformanceModel(
            intra_cluster_latency=1e-3,
            cross_cluster_latency=10e-3,
            client_latency=3e-3,
            latency_jitter=0.0,
        )
        model = ClusteredLatencyModel(perf, {0: 0, 1: 0, 2: 1})
        assert model.delay(0, 1) == pytest.approx(1e-3)
        assert model.delay(0, 2) == pytest.approx(10e-3)
        assert model.delay(0, 999) == pytest.approx(3e-3)

    def test_jitter_bounded(self):
        perf = PerformanceModel(intra_cluster_latency=1e-3, latency_jitter=0.5)
        model = ClusteredLatencyModel(perf, {0: 0, 1: 0})
        for _ in range(100):
            assert 1e-3 <= model.delay(0, 1) <= 1.5e-3
