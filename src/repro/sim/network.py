"""Point-to-point message transport between simulated processes.

Section 2.1 of the paper assumes an asynchronous network of pairwise
authenticated, bi-directional channels that may drop, delay, duplicate,
or reorder messages.  This module models exactly that:

* every link has a latency drawn from a :class:`LatencyModel` (intra-cluster
  links are faster than cross-cluster links, clients sit at a configurable
  distance);
* messages can be dropped randomly (``drop_rate``), per link
  (:meth:`Network.disconnect`), or via network partitions
  (:meth:`Network.partition`);
* pairwise authentication is modelled by handing the receiver the true
  sender id — a Byzantine process cannot claim another node's identity at
  the transport layer, matching the paper's assumption;
* Byzantine *content* manipulation happens one layer up: a process with a
  :class:`~repro.adversary.MessageInterceptor` attached filters its own
  outbound traffic (drop/delay/duplicate/rewrite per destination, see
  :meth:`repro.sim.process.Process.set_interceptor`) before it reaches
  :meth:`Network.send` — the transport itself stays honest, so the
  faultless fast path below is untouched by the adversary subsystem.

Performance model & parallel execution
--------------------------------------
Consensus traffic is one-to-many and the same few destination sets recur
for the whole run, so the transport memoises *routes*, lazily.  A link
resolves once into a row ``(destination.deliver, base_delay, link_key)``
and a ``(src, destination-tuple)`` pair into the tuple of its links' rows
(self excluded).  :meth:`Network.send` and :meth:`Network.multicast` walk
rows: draw the jitter, apply the FIFO clamp, push a heap entry whose
callback is the destination's ``deliver`` itself — one payload and one
``(message, src)`` tuple per multicast.  Jitter is drawn per destination
in destination order, exactly as a loop of ``send`` calls would, so runs
are bit-identical however traffic is grouped.  Faults never invalidate a
route: while a partition, severed link or ``drop_rate`` is active every
message is checked on its own (the general path) along the same rows.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol

from ..common.config import PerformanceModel
from ..common.errors import NetworkError
from ..obs.recorder import INERT_RECORDER
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .process import Process

__all__ = ["LatencyModel", "UniformLatencyModel", "ClusteredLatencyModel", "Network"]

#: link keys are ``src << 21 | dst`` (process ids fit in 21 bits: replicas
#: are small ints, clients start at 1e6); the mask recovers ``dst``.
_PID_BITS = 21
_PID_MASK = (1 << _PID_BITS) - 1


class LatencyModel(Protocol):
    """Strategy object producing one-way link delays in seconds.

    Every delay is ``link_base(src, dst) * (1 + U[0, jitter])`` with the
    uniform draw taken from ``rng``.  :class:`Network` memoises
    ``link_base`` per link and draws the jitter itself, so a model's
    topology and ``jitter`` must not change once traffic flows.
    """

    #: multiplicative jitter fraction (0 = deterministic delays).
    jitter: float
    #: generator the jitter is drawn from.
    rng: random.Random

    def link_base(self, src: int, dst: int) -> float:
        """Jitter-free one-way delay of the ``src`` → ``dst`` link."""
        ...


class UniformLatencyModel:
    """Every link has the same base delay plus uniform multiplicative jitter.

    ``jitter`` is a *multiplicative fraction*: each delay is drawn as
    ``base_delay * (1 + U[0, jitter])``, so ``jitter=0.5`` means links are
    up to 50% slower than the base delay, never faster.
    :class:`ClusteredLatencyModel` uses the same convention for its
    ``latency_jitter`` knob, so swapping models never reinterprets the
    jitter figure.
    """

    def __init__(self, base_delay: float, jitter: float = 0.0, rng: random.Random | None = None):
        if base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.base_delay = base_delay
        self.jitter = jitter
        self.rng = rng or random.Random(0)

    def link_base(self, src: int, dst: int) -> float:
        return self.base_delay

    def delay(self, src: int, dst: int) -> float:
        # rng.random() * jitter == rng.uniform(0, jitter), one draw either
        # way, so the seeded stream is unchanged by the inlining.
        jitter = self.rng.random() * self.jitter if self.jitter else 0.0
        return self.base_delay * (1.0 + jitter)


class ClusteredLatencyModel:
    """Latency model aware of the cluster topology.

    Nodes inside the same cluster are geographically close (Section 2.2:
    nodes are assigned to clusters by geographical distance), so
    intra-cluster links are fast; links between clusters use the slower
    cross-cluster delay; any endpoint not in the topology map (clients)
    uses the client delay.  System builders finish updating
    ``cluster_of`` before the first message.
    """

    def __init__(
        self,
        performance: PerformanceModel,
        cluster_of: Mapping[int, int],
        rng: random.Random | None = None,
    ) -> None:
        self.performance = performance
        self.cluster_of = dict(cluster_of)
        self.jitter = performance.latency_jitter
        self.rng = rng or random.Random(0)

    def link_base(self, src: int, dst: int) -> float:
        perf = self.performance
        src_cluster = self.cluster_of.get(src)
        dst_cluster = self.cluster_of.get(dst)
        if src_cluster is None or dst_cluster is None:
            return perf.client_latency
        if src_cluster == dst_cluster:
            return perf.intra_cluster_latency
        return perf.cross_cluster_latency

    def delay(self, src: int, dst: int) -> float:
        # Same multiplicative-fraction jitter convention as
        # UniformLatencyModel: base * (1 + U[0, jitter]).
        base = self.link_base(src, dst)
        if self.jitter:
            # Same single rng draw as rng.uniform(0, jitter).
            base *= 1.0 + self.rng.random() * self.jitter
        return base


class Network:
    """Routes messages between registered processes with simulated delays."""

    def __init__(
        self,
        sim: Simulator,
        latency_model: LatencyModel,
        drop_rate: float = 0.0,
        fifo: bool = True,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise NetworkError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.sim = sim
        self.latency_model = latency_model
        self.drop_rate = drop_rate
        #: deliver messages of one (src, dst) link in send order, as TCP
        #: point-to-point channels would.  Jitter still varies the delay,
        #: but never reorders a link.
        self.fifo = fifo
        self._processes: dict[int, "Process"] = {}
        self._severed_links: set[frozenset[int]] = set()
        self._partition_of: dict[int, int] | None = None
        #: memoised route rows by link key, and routes by ``(src, destinations)``.
        self._links: dict[int, tuple] = {}
        self._routes: dict[tuple[int, tuple[int, ...]], tuple[tuple, ...]] = {}
        #: per-link FIFO watermark, by link key.
        self._last_arrival: dict[int, float] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        #: flight recorder (repro.obs); the inert one until armed.
        #: send/multicast report every message to it unconditionally —
        #: no RNG draws, so traced runs stay bit-identical on the wire.
        self.recorder = INERT_RECORDER

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, process: "Process") -> None:
        """Attach a process to the network under its ``pid``."""
        if process.pid in self._processes:
            raise NetworkError(f"process {process.pid} is already registered")
        self._processes[process.pid] = process

    def process(self, pid: int) -> "Process":
        """Look up a registered process."""
        try:
            return self._processes[pid]
        except KeyError:
            raise NetworkError(f"unknown process {pid}") from None

    @property
    def pids(self) -> tuple[int, ...]:
        """All registered process ids."""
        return tuple(self._processes)

    @property
    def messages_delivered(self) -> int:
        """Arrivals at a destination NIC: received, or missed by a crashed process."""
        return sum(p.messages_received + p.messages_missed for p in self._processes.values())

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def disconnect(self, a: int, b: int) -> None:
        """Sever the bidirectional link between ``a`` and ``b``."""
        self._severed_links.add(frozenset((a, b)))

    def reconnect(self, a: int, b: int) -> None:
        """Restore a previously severed link."""
        self._severed_links.discard(frozenset((a, b)))

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the network: messages only flow within a group."""
        partition_of: dict[int, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                partition_of[pid] = index
        self._partition_of = partition_of

    def heal(self) -> None:
        """Remove any partition and severed links."""
        self._partition_of = None
        self._severed_links.clear()

    def _lost(self, src: int, dst: int) -> bool:
        """General path: is this one message cut off or randomly dropped?"""
        lost = frozenset((src, dst)) in self._severed_links
        if not lost and self._partition_of is not None:
            # Unlisted processes are reachable from everyone (e.g. clients).
            src_group = self._partition_of.get(src)
            dst_group = self._partition_of.get(dst)
            lost = src_group is not None and dst_group is not None and src_group != dst_group
        if lost or (self.drop_rate and self.sim.rng.random() < self.drop_rate):
            self.messages_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _link(self, src: int, dst: int) -> tuple:
        """Resolve (and memoise) the route row of one directed link."""
        destination = self._processes.get(dst)
        if destination is None:
            raise NetworkError(f"cannot send to unknown process {dst}")
        link = (src << _PID_BITS) | dst
        row = (destination.deliver, self.latency_model.link_base(src, dst), link)
        self._links[link] = row
        return row

    def _route(self, src: int, destinations: tuple[int, ...]) -> tuple[tuple, ...]:
        """Resolve (and memoise) a multicast route: one row per destination but ``src``."""
        links = self._links
        route = tuple(
            links.get((src << _PID_BITS) | dst) or self._link(src, dst)
            for dst in destinations
            if dst != src
        )
        self._routes[(src, destinations)] = route
        return route

    def _surviving(self, src: int, route: tuple, reached: list) -> Iterator[tuple]:
        """General path: the rows of ``route`` whose message is not lost.

        Lazy on purpose: each drop decision is drawn when the send loop
        asks for the next row, i.e. after the previous destination's
        jitter draw — the order a loop of :meth:`send` calls draws in.
        """
        for row in route:
            if not self._lost(src, row[2] & _PID_MASK):
                reached.append(row)
                yield row

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: object, depart_time: float | None = None) -> bool:
        """Send ``message`` from ``src`` to ``dst``.

        Returns ``True`` if the message was put on the wire (it may still
        be lost), ``False`` if it was dropped immediately.  ``depart_time``
        lets the sending process account for CPU time spent serialising
        the message before it leaves the NIC.
        """
        self.messages_sent += 1
        recorder = self.recorder
        recorder.count_send(message.__class__.__name__, 1)
        link = (src << _PID_BITS) | dst
        row = self._links.get(link) or self._link(src, dst)
        if (
            self.drop_rate or self._partition_of is not None or self._severed_links
        ) and self._lost(src, dst):
            return False
        sim = self.sim
        now = sim._now
        departure = now if depart_time is None or depart_time < now else depart_time
        arrival = row[1]
        model = self.latency_model
        if model.jitter:
            arrival *= 1.0 + model.rng.random() * model.jitter
        arrival += departure
        if self.fifo:
            previous = self._last_arrival.get(link, 0.0)
            if arrival < previous:
                arrival = previous
            self._last_arrival[link] = arrival
        # arrival >= departure >= now, so push without the in-the-past check.
        queue = sim._queue
        heappush(queue._heap, [arrival, next(queue._counter), row[0], (message, src)])
        recorder.wire_send(departure, src, dst, message)
        return True

    def multicast(
        self,
        src: int,
        destinations: Iterable[int],
        message: object,
        depart_time: float | None = None,
    ) -> int:
        """Send one immutable ``message`` to every destination except ``src``.

        Semantically identical to calling :meth:`send` per destination
        (same per-destination latency draws, drop decisions, and FIFO
        ordering — the RNG is consumed in the same order, so runs are
        bit-identical), but the shared work is done once: the route is
        memoised per ``(src, destinations)``, and one payload object and
        one argument tuple go on the wire.  Returns the count put on the
        wire.
        """
        if destinations.__class__ is not tuple:
            destinations = tuple(destinations)
        route = self._routes.get((src, destinations))
        if route is None:
            route = self._route(src, destinations)
        sim = self.sim
        now = sim._now
        departure = now if depart_time is None or depart_time < now else depart_time
        attempted = len(route)
        reached = route
        if self.drop_rate or self._partition_of is not None or self._severed_links:
            reached = []
            route = self._surviving(src, route, reached)
        args = (message, src)
        model = self.latency_model
        jitter = model.jitter
        draw = model.rng.random
        fifo = self.fifo
        last_arrival = self._last_arrival
        queue = sim._queue
        heap = queue._heap
        counter = queue._counter
        for deliver, arrival, link in route:
            if jitter:
                arrival *= 1.0 + draw() * jitter
            arrival += departure
            if fifo:
                previous = last_arrival.get(link, 0.0)
                if arrival < previous:
                    arrival = previous
                last_arrival[link] = arrival
            heappush(heap, [arrival, next(counter), deliver, args])
        self.messages_sent += attempted
        self.recorder.wire_multicast(departure, src, reached, message, attempted)
        return len(reached)
