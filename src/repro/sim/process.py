"""Base class for simulated processes (replicas, clients, committees).

A :class:`Process` owns a single CPU.  Incoming messages are served in
arrival order; each message occupies the CPU for the time computed by the
:class:`~repro.sim.costs.CostModel`, and the handler registered for the
message's type runs when that service completes.  Outgoing
messages also charge the CPU and leave the node only once the CPU has
produced them, which is what makes a primary that multicasts to many
replicas an honest bottleneck — the effect behind every saturation knee
in the paper's figures.

Performance model & parallel execution
--------------------------------------
Message dispatch is table-driven: subclasses register one handler per
concrete message type (:meth:`Process.register_handler`) and the handler
is resolved with a single dict lookup on ``type(message)`` — no
``isinstance`` chains on the hot path.  Messages of unregistered types
are silently dropped, mirroring a real node discarding traffic it does
not understand.

A delivered message is two events, one frame each.  The arrival event is
:meth:`Process.deliver` (the transport pushed it as the callback):
crash-at-arrival, the CPU charge and the handler lookup happen there, and
it pushes ``[completion, seq, handler, (message, src)]`` straight onto the
heap, so the completion event is the protocol handler itself — no
``Process`` frame between the run loop and the engine.
:meth:`Process._dispatch_message` is the *checked lane*, taken only when
the process can see that it must be: a recorder is armed, the type has
no table entry, or the message was pending when the process crashed.  Why
the two events cannot be one is in docs/architecture.md, "The per-message
fast lane".  Multicasts go through
:meth:`Network.multicast`, which shares one immutable payload across all
destinations and memoises the route per destination tuple — callers on
the hot path pass the same precomputed tuple every time.

The arming seam
---------------
Instruments are armed by swapping values, not by a test at each call
site: a process starts with :data:`~repro.obs.INERT_RECORDER`, whose
hooks do nothing, so protocol code (and the checked lane's dispatch
context) calls ``recorder`` hooks unconditionally until
``BaseSystem.arm_recorder`` swaps a flight recorder in.  Only the
message path still branches: :meth:`deliver` picks the checked lane
when the recorder is not the inert one, and :meth:`send` /
:meth:`multicast` divert to :meth:`set_interceptor`'s
:class:`~repro.adversary.MessageInterceptor` when one is attached (it
filters every outbound message per destination: drop, delay,
duplicate, rewrite).  :attr:`byzantine` reads whether one is attached,
the only record of the node being adversarial (the fault events of
:mod:`repro.api.faults` attach and detach them).  With none attached,
``send``/``multicast`` take the fast path — one ``is None`` check, no
extra RNG draws — so faultless runs stay bit-identical.
:meth:`crash` / :meth:`recover` give crash-stop behaviour.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

from ..obs.recorder import INERT_RECORDER
from .costs import CostModel
from .network import Network
from .simulator import Simulator, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..adversary.interceptor import MessageInterceptor
    from ..obs.recorder import FlightRecorder, InertRecorder

__all__ = ["Process"]

#: Signature of a registered message handler.
MessageHandler = Callable[[Any, int], None]


class Process:
    """A single simulated machine with one CPU and a network endpoint."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        network: Network,
        cost_model: CostModel,
        name: str | None = None,
    ) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.cost_model = cost_model
        self.name = name or f"proc-{pid}"
        self.crashed = False
        #: outbound message filter; None on the (default) faultless path.
        self.interceptor: "MessageInterceptor | None" = None
        #: flight recorder (repro.obs); the inert one until armed.
        self.recorder: "FlightRecorder | InertRecorder" = INERT_RECORDER
        self._cpu_free_at = 0.0
        self.messages_received = 0
        #: arrivals dropped at the NIC because the process was crashed.
        self.messages_missed = 0
        self.messages_sent = 0
        self.cpu_busy_time = 0.0
        #: message-type → handler table; unregistered types are dropped.
        self._dispatch: dict[type, MessageHandler] = {}
        network.register(self)

    @property
    def byzantine(self) -> bool:
        """Whether an adversary interceptor is attached to this process."""
        return self.interceptor is not None

    @property
    def now(self) -> float:
        """Current simulated time (the engines' ``Host.now``)."""
        return self.sim.now

    # ------------------------------------------------------------------
    # CPU accounting
    # ------------------------------------------------------------------
    def charge(self, cpu_seconds: float) -> float:
        """Occupy the CPU for ``cpu_seconds``; returns the completion time."""
        start = self.sim.now
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        self._cpu_free_at = start + cpu_seconds
        self.cpu_busy_time += cpu_seconds
        return self._cpu_free_at

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` simulated seconds the CPU was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.cpu_busy_time / elapsed)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def deliver(self, message: Any, src: int) -> None:
        """Called by the network when a message arrives at the NIC.

        Delivery events invoke this method directly (it is the callback
        of the heap entry the transport pushed), so crash-at-arrival is
        decided here, when the message lands.  The CPU-completion event it
        pushes calls the handler resolved here, or the checked lane.
        """
        if self.crashed:
            self.messages_missed += 1
            return
        self.messages_received += 1
        # Inlined charge + handle-free scheduling: this runs once per
        # delivered message, making it the single hottest method in the
        # repo.  completion >= now always holds, so the scheduling-in-the-
        # past check is unnecessary.
        sim = self.sim
        start = sim._now
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        cost_model = self.cost_model
        kind = message.__class__
        cost = cost_model._receive_cost.get(kind)
        if cost is None:
            cost = cost_model.receive_cost(message)
        completion = start + cost
        self._cpu_free_at = completion
        self.cpu_busy_time += cost
        handler = self._dispatch.get(kind)
        if handler is None or self.recorder is not INERT_RECORDER:
            handler = self._dispatch_message
        heappush(sim._heap, [completion, next(sim._counter), handler, (message, src)])

    def _dispatch_message(self, message: Any, src: int) -> None:
        """The checked lane: completions that :meth:`deliver` or
        :meth:`crash` did not leave pointing at a handler.

        ``crashed`` is tested when the event fires; the recorder runs the
        handler in a recv context (the inert recorder just calls it), so
        every event it records (phases, sends, quorum votes) parents to
        this arrival.  A
        type without a table entry is dropped inside that context, so a
        traced run records its arrival all the same.
        """
        if self.crashed:
            return
        handler = self._dispatch.get(message.__class__)  # None: dropped in the recv context
        self.recorder.dispatch(self.sim._now, handler, message, src, self.pid)

    def register_handler(self, message_type: type, handler: MessageHandler) -> None:
        """Route messages of exactly ``message_type`` to ``handler``.

        Dispatch is by concrete type (``type(message)`` lookup), not by
        ``isinstance`` — register each concrete message class explicitly.
        Registering a type again replaces the previous handler, which is
        how subclasses (e.g. AHL's replicas) intercept message types their
        base class also handles.

        A handler object belongs to one process — :meth:`crash` finds its
        pending completions by callback identity, so one callable (a plain
        function, say) registered with two processes would let the crash
        of one divert the other's messages; bound methods and per-process
        closures satisfy this by construction.  Register before messages
        flow: a queued completion keeps the handler it was resolved to.
        """
        self._dispatch[message_type] = handler

    def register_handlers(self, handlers: dict[type, MessageHandler]) -> None:
        """Bulk variant of :meth:`register_handler`."""
        self._dispatch.update(handlers)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send(self, dst: int, message: Any) -> None:
        """Send one message, charging send-side CPU first."""
        if self.interceptor is not None:
            self._send_intercepted((dst,), message)
            return
        cost = self.cost_model.send_cost(message, destinations=1)
        start = self.sim._now  # inlined charge()
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        departure = start + cost
        self._cpu_free_at = departure
        self.cpu_busy_time += cost
        self.messages_sent += 1
        self.network.send(self.pid, dst, message, depart_time=departure)

    def multicast(self, destinations: list[int] | tuple[int, ...], message: Any) -> None:
        """Send ``message`` to every destination except this process.

        Signing cost is charged once; per-destination serialisation cost is
        charged for each copy, so wide multicasts genuinely cost more.  The
        transport shares one immutable payload object across destinations
        (:meth:`Network.multicast`).
        """
        pid = self.pid
        if self.interceptor is not None:
            self._send_intercepted([dst for dst in destinations if dst != pid], message)
            return
        count = len(destinations) - destinations.count(pid)
        cost = self.cost_model.send_cost(message, destinations=count)
        start = self.sim._now  # inlined charge()
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        departure = start + cost
        self._cpu_free_at = departure
        self.cpu_busy_time += cost
        self.messages_sent += count
        self.network.multicast(pid, destinations, message, depart_time=departure)

    def _send_intercepted(self, destinations: Any, message: Any) -> None:
        """Slow path taken only while an interceptor is attached.

        The interceptor is consulted once per destination; CPU is charged
        as if the node had served every *intended* destination (a faulty
        node does the protocol's work, it just lies on the wire), so the
        adversary gains no free CPU by dropping traffic.  Replacement
        copies depart at the same NIC time plus their ``extra_delay``.
        """
        interceptor = self.interceptor
        outbound: list[tuple[int, Any, float]] = []
        for dst in destinations:
            interceptor.seen += 1
            actions = interceptor.outbound(dst, message)
            if actions is None:
                outbound.append((dst, message, 0.0))
            else:
                outbound.extend(
                    (action.dst, action.message, action.extra_delay)
                    for action in actions
                )
        cost = self.cost_model.send_cost(message, destinations=len(destinations))
        departure = self.charge(cost)
        self.messages_sent += len(outbound)
        network = self.network
        pid = self.pid
        for dst, payload, extra in outbound:
            network.send(pid, dst, payload, depart_time=departure + extra)

    def set_interceptor(self, interceptor: "MessageInterceptor | None") -> None:
        """Attach (or, with ``None``, detach) the outbound message filter."""
        previous = self.interceptor
        if previous is not None and previous is not interceptor:
            previous.detach()
        self.interceptor = interceptor
        if interceptor is not None:
            interceptor.attach(self)

    # ------------------------------------------------------------------
    # timers and fault injection
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Arm a timer whose callback is skipped if the process has crashed."""

        def _guarded() -> None:
            if not self.crashed:
                callback(*args)

        return self.sim.schedule(delay, _guarded)

    def crash(self) -> None:
        """Crash-stop the process: it stops receiving and sending.

        Messages still waiting for the CPU must not be handled while the
        process is down, and must be if it recovers first.  Their
        completion events point straight at a handler, so re-point them
        (in place: they keep their heap position and still fire) at the
        checked lane, which tests ``crashed`` when the event fires — a
        crash pays for that test, not every message.
        """
        self.crashed = True
        own = {id(handler) for handler in self._dispatch.values()}
        checked = self._dispatch_message
        for entry in self.sim._heap:
            if id(entry[2]) in own:
                entry[2] = checked

    def recover(self) -> None:
        """Restart a crashed process (state retained, as in Section 2.1)."""
        self.crashed = False
        self._cpu_free_at = max(self._cpu_free_at, self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name} pid={self.pid}>"
