"""Unit tests for the simulated process CPU model and fault injection."""

import sys

import pytest

from repro.common.config import PerformanceModel
from repro.obs import InertRecorder
from repro.sim.costs import CostModel
from repro.sim.network import Network, UniformLatencyModel
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Echo(Process):
    def __init__(self, pid, sim, network, cost_model):
        super().__init__(pid, sim, network, cost_model)
        self.handled = []

    def on_message(self, message, src):
        self.handled.append((self.sim.now, message))


class Table(Process):
    """Table-driven twin of :class:`Echo`; also notes which frame called the handler."""

    def __init__(self, pid, sim, network, cost_model):
        super().__init__(pid, sim, network, cost_model)
        self.handled = []
        self.callers = []
        self.register_handler(str, self._on_text)

    def _on_text(self, message, src):
        self.callers.append(sys._getframe(1).f_code.co_name)
        if message == "boom":
            raise RuntimeError("handler failed")
        self.handled.append((self.sim.now, message))


class Override(Table):
    """Overrides ``on_message`` *and* fills the table: the override must win."""

    def on_message(self, message, src):
        self._on_text(message.upper() if message != "boom" else message, src)


def build(message_cpu=1e-3, kind=Echo):
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.0), fifo=True)
    cost = CostModel(PerformanceModel(message_cpu=message_cpu, latency_jitter=0.0))
    a = kind(0, sim, network, cost)
    b = kind(1, sim, network, cost)
    return sim, network, a, b


class TestCpuModel:
    def test_messages_are_serialised_on_one_cpu(self):
        sim, network, a, b = build(message_cpu=1e-3)
        network.send(0, 1, "m1")
        network.send(0, 1, "m2")
        network.send(0, 1, "m3")
        sim.run()
        times = [t for t, _ in b.handled]
        # Each message occupies the CPU for 1 ms; handlers run back to back.
        assert times == pytest.approx([1e-3, 2e-3, 3e-3])
        assert b.cpu_busy_time == pytest.approx(3e-3)

    def test_charge_accumulates_busy_time(self):
        sim, network, a, b = build()
        a.charge(2e-3)
        a.charge(1e-3)
        assert a.cpu_free_at == pytest.approx(3e-3)
        assert a.utilization(10e-3) == pytest.approx(0.3)

    def test_send_costs_cpu(self):
        sim, network, a, b = build(message_cpu=1e-3)
        a.send(1, "x")
        assert a.cpu_free_at > 0
        assert a.messages_sent == 1

    def test_signature_costs_are_charged(self):
        class Signed:
            verify_signatures = 2
            sign_signatures = 1

        perf = PerformanceModel(
            message_cpu=1e-3, signature_verify_cpu=5e-3, signature_sign_cpu=7e-3
        )
        cost = CostModel(perf)
        assert cost.receive_cost(Signed()) == pytest.approx(1e-3 + 2 * 5e-3)
        assert cost.send_cost(Signed(), destinations=3) == pytest.approx(7e-3 + 3 * 0.5e-3)


class TestFaultInjection:
    def test_crashed_process_ignores_messages(self):
        sim, network, a, b = build()
        b.crash()
        network.send(0, 1, "lost")
        sim.run()
        assert b.handled == []

    def test_recovered_process_resumes(self):
        sim, network, a, b = build()
        b.crash()
        network.send(0, 1, "lost")
        sim.run()
        b.recover()
        network.send(0, 1, "ok")
        sim.run()
        assert [m for _, m in b.handled] == ["ok"]

    def test_crashed_process_timers_do_not_fire(self):
        sim, network, a, b = build()
        fired = []
        b.set_timer(1.0, fired.append, "x")
        b.crash()
        sim.run()
        assert fired == []

    def test_on_message_must_be_overridden(self):
        sim = Simulator()
        network = Network(sim, UniformLatencyModel(0.0))
        proc = Process(9, sim, network, CostModel(PerformanceModel()))
        with pytest.raises(NotImplementedError):
            proc.on_message("x", 0)


class CausalStub(InertRecorder):
    """A recorder noting the two hooks ``Process`` calls around a handler;
    every other hook stays inert.  Swapping it in arms the process."""

    def __init__(self, process):
        self.calls = []
        original = process._on_text

        def noting(message, src):
            self.calls.append(("handle", message))
            original(message, src)

        process._on_text = noting  # Override calls it by name
        process.register_handler(str, noting)  # Table calls it through the table

    def begin_dispatch(self, time, message, src, pid):
        self.calls.append(("begin", time, message, src, pid))

    def clear_context(self):
        self.calls.append(("clear",))


@pytest.mark.parametrize("kind", [Table, Override], ids=["table-driven", "overrides-on_message"])
class TestCompletionLanes:
    """A message is two events — NIC arrival, CPU completion — and a crash,
    a recovery or a recorder between the two decides what the second does."""

    def _seen(self, kind, *messages):
        return [m.upper() if kind is Override else m for m in messages]

    def test_the_lane_is_chosen_from_what_the_process_is(self, kind):
        sim, network, a, b = build(kind=kind)
        network.send(0, 1, "m")
        sim.run()
        assert [m for _, m in b.handled] == self._seen(kind, "m")
        # No Process frame between the run loop and a table-driven handler.
        assert b.callers == (["run"] if kind is Table else ["on_message"])

    def test_crash_before_completion_drops_the_message_but_fires_the_event(self, kind):
        sim, network, a, b = build(kind=kind)
        network.send(0, 1, "m")  # arrives at 0, completes at 1 ms
        sim.schedule(0.5e-3, b.crash)
        sim.run()
        assert b.handled == [] and b.callers == []
        assert (b.messages_received, b.messages_missed) == (1, 0)
        assert sim.processed_events == 3  # arrival, crash, completion
        assert sim.now == pytest.approx(1e-3)

    def test_crash_and_recovery_before_completion_still_handles_it(self, kind):
        sim, network, a, b = build(kind=kind)
        network.send(0, 1, "m1")
        network.send(0, 1, "m2")
        sim.schedule(0.2e-3, b.crash)
        sim.schedule(0.6e-3, b.recover)
        sim.run()
        assert [m for _, m in b.handled] == self._seen(kind, "m1", "m2")
        assert [t for t, _ in b.handled] == pytest.approx([1e-3, 2e-3])  # original times
        assert (b.messages_received, b.messages_missed) == (2, 0)
        assert sim.processed_events == 6

    def test_arrival_while_crashed_is_missed_and_queues_nothing(self, kind):
        sim, network, a, b = build(kind=kind)
        b.crash()
        network.send(0, 1, "lost")
        sim.run()
        assert b.handled == []
        assert (b.messages_received, b.messages_missed) == (0, 1)
        assert sim.processed_events == 1 and sim.pending_events == 0
        assert b.cpu_busy_time == 0.0

    def test_causal_recorder_brackets_each_handler_once(self, kind):
        sim, network, a, b = build(kind=kind)
        b.recorder = stub = CausalStub(b)
        network.send(0, 1, "m1")
        network.send(0, 1, "m2")
        sim.run()
        m1, m2 = self._seen(kind, "m1", "m2")
        assert stub.calls == [
            ("begin", pytest.approx(1e-3), "m1", 0, 1), ("handle", m1), ("clear",),
            ("begin", pytest.approx(2e-3), "m2", 0, 1), ("handle", m2), ("clear",),
        ]  # fmt: skip

    def test_causal_recorder_context_is_cleared_when_the_handler_raises(self, kind):
        sim, network, a, b = build(kind=kind)
        b.recorder = stub = CausalStub(b)
        network.send(0, 1, "boom")
        with pytest.raises(RuntimeError):
            sim.run()
        assert [call[0] for call in stub.calls] == ["begin", "handle", "clear"]

    def test_crashing_one_process_leaves_the_others_messages_alone(self, kind):
        sim, network, a, b = build(kind=kind)
        network.send(0, 1, "to-b")
        network.send(1, 0, "to-a")
        sim.schedule(0.5e-3, a.crash)
        sim.run()
        assert a.handled == []
        assert [m for _, m in b.handled] == self._seen(kind, "to-b")
        assert b.callers == (["run"] if kind is Table else ["on_message"])
        assert sim.processed_events == 5

    def test_a_recovered_process_returns_to_its_lane(self, kind):
        sim, network, a, b = build(kind=kind)
        network.send(0, 1, "pending")
        sim.schedule(0.2e-3, b.crash)
        sim.schedule(0.6e-3, b.recover)
        sim.run()
        network.send(0, 1, "fresh")
        sim.run()
        assert [m for _, m in b.handled] == self._seen(kind, "pending", "fresh")
        if kind is Table:  # diverted while it was pending; direct again afterwards
            assert b.callers == ["_dispatch_message", "run"]
