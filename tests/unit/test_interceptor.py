"""Unit tests for the outbound message-interception hook."""

import pytest

from repro.adversary import MessageInterceptor, Outbound
from repro.common.config import PerformanceModel
from repro.sim.costs import CostModel
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Echo(Process):
    def __init__(self, pid, sim, network, cost_model):
        super().__init__(pid, sim, network, cost_model)
        self.handled = []
        self.register_handler(str, self._on_text)

    def _on_text(self, message, src):
        self.handled.append((self.sim.now, message, src))


ONE_CLUSTER = {0: 0, 1: 0, 2: 0}


def build(latency=1e-3):
    sim = Simulator()
    performance = PerformanceModel(intra_cluster_latency=latency, latency_jitter=0.0)
    network = Network(sim, performance, ONE_CLUSTER)
    cost = CostModel(PerformanceModel(message_cpu=0.0, latency_jitter=0.0))
    a = Echo(0, sim, network, cost)
    b = Echo(1, sim, network, cost)
    c = Echo(2, sim, network, cost)
    return sim, network, a, b, c


class Dropper(MessageInterceptor):
    def outbound(self, dst, message):
        return self.drop()


class Delayer(MessageInterceptor):
    def __init__(self, extra):
        super().__init__()
        self.extra = extra

    def outbound(self, dst, message):
        return self.emit(Outbound(dst=dst, message=message, extra_delay=self.extra))


class Duplicator(MessageInterceptor):
    def outbound(self, dst, message):
        return self.emit(
            Outbound(dst=dst, message=message),
            Outbound(dst=dst, message=message),
        )


class Rewriter(MessageInterceptor):
    def outbound(self, dst, message):
        return self.emit(Outbound(dst=dst, message=f"forged-{message}"))


class Redirector(MessageInterceptor):
    """Send the payload somewhere else entirely."""

    def __init__(self, to):
        super().__init__()
        self.to = to

    def outbound(self, dst, message):
        return self.emit(Outbound(dst=self.to, message=message))


class TestHookMechanics:
    def test_no_interceptor_is_the_default(self):
        sim, network, a, b, c = build()
        assert a.interceptor is None
        a.send(1, "plain")
        sim.run()
        assert [m for _, m, _ in b.handled] == ["plain"]

    def test_pass_through_interceptor_delivers_unchanged(self):
        sim, network, a, b, c = build()
        a.set_interceptor(MessageInterceptor())
        a.send(1, "hello")
        a.multicast([1, 2], "world")
        sim.run()
        assert [m for _, m, _ in b.handled] == ["hello", "world"]
        assert [m for _, m, _ in c.handled] == ["world"]
        assert a.interceptor.seen == 3

    def test_drop_suppresses_delivery(self):
        sim, network, a, b, c = build()
        a.set_interceptor(Dropper())
        a.send(1, "lost")
        a.multicast([1, 2], "lost-too")
        sim.run()
        assert b.handled == []
        assert c.handled == []
        assert a.interceptor.dropped == 3

    def test_delay_shifts_arrival(self):
        sim, network, a, b, c = build(latency=1e-3)
        a.send(1, "fast")
        sim.run()
        baseline = b.handled[0][0]
        sim2, network2, a2, b2, c2 = build(latency=1e-3)
        a2.set_interceptor(Delayer(0.25))
        a2.send(1, "slow")
        sim2.run()
        assert b2.handled[0][0] == pytest.approx(baseline + 0.25)

    def test_duplicate_delivers_twice(self):
        sim, network, a, b, c = build()
        a.set_interceptor(Duplicator())
        a.send(1, "echo")
        sim.run()
        assert [m for _, m, _ in b.handled] == ["echo", "echo"]

    def test_rewrite_replaces_payload_but_not_sender(self):
        sim, network, a, b, c = build()
        a.set_interceptor(Rewriter())
        a.send(1, "original")
        sim.run()
        assert [(m, src) for _, m, src in b.handled] == [("forged-original", 0)]

    def test_redirect_changes_destination(self):
        sim, network, a, b, c = build()
        a.set_interceptor(Redirector(to=2))
        a.send(1, "detoured")
        sim.run()
        assert b.handled == []
        assert [m for _, m, _ in c.handled] == ["detoured"]

    def test_multicast_consults_interceptor_per_destination(self):
        sim, network, a, b, c = build()

        class MuteOne(MessageInterceptor):
            def outbound(self, dst, message):
                if dst == 1:
                    return self.drop()
                return self.pass_through()

        a.set_interceptor(MuteOne())
        a.multicast([1, 2], "selective")
        sim.run()
        assert b.handled == []
        assert [m for _, m, _ in c.handled] == ["selective"]

    def test_detach_restores_normal_delivery(self):
        sim, network, a, b, c = build()
        dropper = Dropper()
        a.set_interceptor(dropper)
        a.send(1, "lost")
        a.set_interceptor(None)
        assert dropper.process is None
        a.send(1, "found")
        sim.run()
        assert [m for _, m, _ in b.handled] == ["found"]

    def test_attach_detaches_previous_interceptor(self):
        sim, network, a, b, c = build()
        first, second = Dropper(), Rewriter()
        a.set_interceptor(first)
        a.set_interceptor(second)
        assert first.process is None
        assert second.process is a

    def test_interceptor_charges_send_cpu(self):
        sim = Simulator()
        performance = PerformanceModel(intra_cluster_latency=0.0, latency_jitter=0.0)
        network = Network(sim, performance, ONE_CLUSTER)
        cost = CostModel(PerformanceModel(message_cpu=1e-3, latency_jitter=0.0))
        a = Echo(0, sim, network, cost)
        Echo(1, sim, network, cost)
        Echo(2, sim, network, cost)
        a.set_interceptor(Dropper())
        a.multicast([1, 2], "work")
        # The adversary still pays the CPU for the sends it pretends to do.
        assert a.cpu_busy_time == pytest.approx(cost.send_cost("work", destinations=2))
