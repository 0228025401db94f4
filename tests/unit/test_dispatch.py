"""Unit tests for table-driven message dispatch (engines and processes)."""

import pytest

from helpers import FakeHost, byzantine_cluster, crash_cluster, simple_transfer

from repro.baselines.single_group import FAB, FAST_PAXOS
from repro.common.config import PerformanceModel
from repro.consensus.base import ConsensusEngine
from repro.consensus.log import item_digest
from repro.consensus.messages import (
    NewView,
    PaxosAccept,
    PaxosCommit,
    PBFTCommit,
    Prepare,
    PrePrepare,
    ViewChange,
)
from repro.consensus.paxos import PaxosEngine
from repro.consensus.pbft import PBFTEngine
from repro.sim.costs import CostModel
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class TestEngineHandlerTables:
    def test_paxos_table_covers_its_message_types(self):
        engine = PaxosEngine(FakeHost(0, crash_cluster()))
        assert set(engine.handlers()) == set(PaxosEngine.HANDLERS)
        assert PaxosAccept in engine.handlers()

    def test_pbft_table_covers_its_message_types(self):
        engine = PBFTEngine(FakeHost(0, byzantine_cluster()))
        assert set(engine.handlers()) == {
            PrePrepare,
            Prepare,
            PBFTCommit,
            ViewChange,
            NewView,
        }

    def test_unknown_message_is_not_consumed(self):
        engine = PaxosEngine(FakeHost(0, crash_cluster()))
        assert engine.handle("not a protocol message", src=1) is False
        assert engine.handle(object(), src=1) is False

    def test_known_message_is_consumed(self):
        engine = PaxosEngine(FakeHost(1, crash_cluster()))
        tx = simple_transfer()
        accept = PaxosAccept(view=0, slot=1, digest=item_digest(tx), item=tx)
        assert engine.handle(accept, src=0) is True
        assert engine.host.log.entry(1) is not None

    def test_baseline_rows_bind_the_shared_handlers(self):
        """A fast row overrides nothing: the shared handlers, its quorum from
        construction, and no commit round in its table."""
        fast = PaxosEngine(FakeHost(0, crash_cluster(size=4)), FAST_PAXOS)
        assert fast.handlers()[PaxosAccept].__func__ is ConsensusEngine._on_propose
        assert PaxosCommit not in fast.handlers()
        assert fast._votes.threshold == 3  # 2f + 1 of 3f + 1
        fab = PBFTEngine(FakeHost(0, byzantine_cluster(size=6)), FAB)
        assert fab.handlers()[PrePrepare].__func__ is ConsensusEngine._on_propose
        assert PBFTCommit not in fab.handlers() and fab._commits is None
        assert fab._votes.threshold == 5  # ⌈(n + 3f + 1) / 2⌉ at n = 6
        # The named engines keep their own rows' tables.
        paxos = PaxosEngine(FakeHost(0, crash_cluster()))
        assert set(paxos.handlers()) == set(PaxosEngine.HANDLERS)


class _TableProcess(Process):
    def __init__(self, pid, sim, network, cost_model):
        super().__init__(pid, sim, network, cost_model)
        self.seen = []
        self.register_handler(str, self._on_text)

    def _on_text(self, message, src):
        self.seen.append((message, src))


class TestProcessDispatch:
    def _build(self):
        sim = Simulator()
        performance = PerformanceModel(intra_cluster_latency=0.0, latency_jitter=0.0)
        network = Network(sim, performance, {0: 0, 1: 0})
        cost = CostModel(PerformanceModel(message_cpu=0.0, latency_jitter=0.0))
        return sim, network, _TableProcess(0, sim, network, cost), _TableProcess(1, sim, network, cost)

    def test_registered_type_is_dispatched(self):
        sim, network, a, b = self._build()
        network.send(0, 1, "hello")
        sim.run()
        assert b.seen == [("hello", 0)]

    def test_unregistered_type_is_dropped_silently(self):
        sim, network, a, b = self._build()
        network.send(0, 1, 12345)  # int: no handler registered
        sim.run()
        assert b.seen == []
        assert b.messages_received == 1

    def test_register_handler_replaces_previous_handler(self):
        sim, network, a, b = self._build()
        replacement = []
        b.register_handler(str, lambda message, src: replacement.append(message))
        network.send(0, 1, "x")
        sim.run()
        assert b.seen == []
        assert replacement == ["x"]

    def test_dispatch_is_by_exact_type_not_isinstance(self):
        class FancyStr(str):
            pass

        sim, network, a, b = self._build()
        network.send(0, 1, FancyStr("sub"))
        sim.run()
        assert b.seen == []  # subclasses do not match the base entry
