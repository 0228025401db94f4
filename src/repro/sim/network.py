"""Point-to-point message transport between simulated processes.

Section 2.1 of the paper assumes an asynchronous network of pairwise
authenticated, bi-directional channels.  This module models them as
every run uses them:

* every link has a base delay from the cluster topology plus jitter
  (:class:`Network`), and delivers in send order (FIFO);
* network partitions (:meth:`Network.partition`) are the one way the
  transport loses a message; a crashed process misses what reaches it;
* pairwise authentication is modelled by handing the receiver the true
  sender id — a Byzantine process cannot claim another node's identity at
  the transport layer, matching the paper's assumption;
* Byzantine *content* manipulation happens one layer up: a process with a
  :class:`~repro.adversary.MessageInterceptor` attached filters its own
  outbound traffic (drop/delay/duplicate/rewrite per destination, see
  :meth:`repro.sim.process.Process.set_interceptor`) before it reaches
  :meth:`Network.send` — the transport itself stays honest.

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
are bit-identical however traffic is grouped.  A partition never
invalidates a route: while one is active each message is checked on its
own along the same rows (a check draws nothing from the RNG).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Iterable, Mapping

from ..common.config import PerformanceModel
from ..common.errors import NetworkError
from ..obs.recorder import INERT_RECORDER
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .process import Process

__all__ = ["Network"]

#: link keys are ``src << 21 | dst`` (process ids fit in 21 bits: replicas
#: are small ints, clients start at 1e6); the mask recovers ``dst``.
_PID_BITS = 21
_PID_MASK = (1 << _PID_BITS) - 1


class Network:
    """Routes messages between registered processes with simulated delays.

    A link's delay is its base delay times ``1 + U[0, latency_jitter]``,
    the draw taken from ``sim.rng``.  The base is the cluster topology's
    (Section 2.2: nodes are assigned to clusters by geographical distance):
    ``intra_cluster_latency`` inside one cluster, ``cross_cluster_latency``
    between clusters, and ``client_latency`` when an endpoint is not in
    ``cluster_of`` (clients).  Bases are memoised per link, so system
    builders finish updating ``cluster_of`` before the first message.
    Every link is FIFO, as TCP point-to-point channels are: jitter varies
    the delay but never reorders a link.
    """

    def __init__(
        self,
        sim: Simulator,
        performance: PerformanceModel,
        cluster_of: Mapping[int, int],
    ) -> None:
        self.sim = sim
        self.performance = performance
        self.cluster_of = dict(cluster_of)
        self._processes: dict[int, "Process"] = {}
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

    @property
    def messages_delivered(self) -> int:
        """Arrivals at a destination NIC: received, or missed by a crashed process."""
        return sum(p.messages_received + p.messages_missed for p in self._processes.values())

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the network: messages only flow within a group."""
        partition_of: dict[int, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                partition_of[pid] = index
        self._partition_of = partition_of

    def heal(self) -> None:
        """Remove any partition."""
        self._partition_of = None

    def _lost(self, src: int, dst: int) -> bool:
        """While partitioned: is this message cut off?  Counts it if so."""
        # Unlisted processes are reachable from everyone (e.g. clients).
        src_group = self._partition_of.get(src)
        dst_group = self._partition_of.get(dst)
        if src_group is not None and dst_group is not None and src_group != dst_group:
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
        perf = self.performance
        src_cluster = self.cluster_of.get(src)
        dst_cluster = self.cluster_of.get(dst)
        if src_cluster is None or dst_cluster is None:
            base = perf.client_latency
        elif src_cluster == dst_cluster:
            base = perf.intra_cluster_latency
        else:
            base = perf.cross_cluster_latency
        link = (src << _PID_BITS) | dst
        row = (destination.deliver, base, link)
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

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: object, depart_time: float | None = None) -> bool:
        """Send ``message`` from ``src`` to ``dst``.

        Returns ``True`` if the message was put on the wire, ``False`` if a
        partition dropped it.  ``depart_time`` lets the sending process
        account for CPU time spent serialising the message before it
        leaves the NIC.
        """
        self.messages_sent += 1
        link = (src << _PID_BITS) | dst
        row = self._links.get(link) or self._link(src, dst)
        if self._partition_of is not None and self._lost(src, dst):
            self.recorder.count_send(message.__class__.__name__, 1)
            return False
        sim = self.sim
        now = sim._now
        departure = now if depart_time is None or depart_time < now else depart_time
        arrival = row[1]
        jitter = self.performance.latency_jitter
        if jitter:
            arrival *= 1.0 + sim.rng.random() * jitter
        arrival += departure
        previous = self._last_arrival.get(link, 0.0)
        if arrival < previous:
            arrival = previous
        self._last_arrival[link] = arrival
        # arrival >= departure >= now, so push without the in-the-past check.
        heappush(sim._heap, [arrival, next(sim._counter), row[0], (message, src)])
        self.recorder.wire_send(departure, src, dst, message)
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
        (same per-destination jitter draws, partition drops, and FIFO
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
        if self._partition_of is not None:
            route = [row for row in route if not self._lost(src, row[2] & _PID_MASK)]
        args = (message, src)
        jitter = self.performance.latency_jitter
        draw = sim.rng.random
        last_arrival = self._last_arrival
        heap = sim._heap
        counter = sim._counter
        for deliver, arrival, link in route:
            if jitter:
                arrival *= 1.0 + draw() * jitter
            arrival += departure
            previous = last_arrival.get(link, 0.0)
            if arrival < previous:
                arrival = previous
            last_arrival[link] = arrival
            heappush(heap, [arrival, next(counter), deliver, args])
        self.messages_sent += attempted
        self.recorder.wire_multicast(departure, src, route, message, attempted)
        return len(route)
