"""The discrete-event simulator driving every experiment in this repo.

The paper evaluates SharPer on an EC2 testbed; this reproduction replaces
the testbed with a deterministic simulator (see docs/architecture.md,
"Substitutions and interpretations").  The simulator provides:

* a virtual clock (:attr:`Simulator.now`, in seconds);
* event scheduling with cancellation (:meth:`Simulator.schedule` returns a
  :class:`Timer`; the protocols' view-change and conflict timers are these);
* a seeded random number generator shared by the network jitter draws and
  the workload generators, so that every run is reproducible.

Performance model & parallel execution
--------------------------------------
The simulator owns one min-heap of plain four-element lists ``[time,
sequence, callback, args]``.  Python compares lists element-wise in C and
``sequence`` (drawn from :attr:`Simulator._counter`) is unique, so order is
decided by the ``(time, sequence)`` prefix without user-level comparison
code, and events of one instant fire in scheduling order.  Cancelling clears
the callback slot in place (``entry[2] = None``); cancelled entries are
skipped when popped.  The message paths never cancel, so
``Network.send``/``multicast`` (arrival events) and ``Process.deliver``
(CPU-completion events) push their entries onto :attr:`Simulator._heap`
themselves, and ``Process.crash`` re-points callback slots in place: the
entry layout is a contract between the ``repro.sim`` modules.

:meth:`Simulator.run` is the single hottest loop of the repo and does one
heap operation per event: pop, skip if cancelled, fire.  Only the entry that
ends a run — the first one past ``until`` or over ``max_events`` — is pushed
back, as the same list, so a resumed run fires in the identical ``(time,
sequence)`` order.  The kernel also keeps an events/sec counter
(:attr:`Simulator.events_per_second`) measured over wall-clock time spent
inside ``run`` — the number ``perf/run.py`` reads as its host-drift probe
(``repro.bench.perfbench``).  Whole runs are deterministic for a seed, which is
what lets the bench harness farm scenario runs out to a
``multiprocessing`` pool (``--jobs``) with bit-identical per-seed results.
"""

from __future__ import annotations

import gc
import itertools
import random
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable

from ..common.errors import SimulationError

__all__ = ["Simulator", "Timer", "RecurringTimer"]


class Timer:
    """A cancellable handle to one scheduled callback: its heap entry."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def active(self) -> bool:
        """Whether the callback is still pending.

        A fired entry reports ``False`` too, so rolling-timer users re-arm
        once the deadline passed, even when the guarded callback body was
        skipped (e.g. the owning process was crashed at fire time).
        """
        return self._entry[2] is not None

    def cancel(self) -> None:
        """Cancel the timer; the callback will not run."""
        entry = self._entry
        entry[2] = None
        entry[3] = ()


class RecurringTimer:
    """A self-rescheduling timer handle returned by :meth:`Simulator.every`.

    Fires ``callback()`` every ``interval`` simulated seconds until
    cancelled.  Used by read-only periodic jobs (the flight recorder's
    gauge sampler); the callback must not assume the simulation ends
    while the timer is armed — ``run(until)`` simply leaves the next
    firing queued past the horizon.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_timer", "_cancelled")

    def __init__(self, sim: "Simulator", interval: float, callback: Callable[[], None]) -> None:
        if not interval > 0:
            raise SimulationError(f"recurring interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._cancelled = False
        self._timer = sim.schedule(interval, self._fire)

    def _fire(self) -> None:
        self._callback()
        if not self._cancelled:  # the callback may cancel its own timer
            self._timer = self._sim.schedule(self._interval, self._fire)

    def cancel(self) -> None:
        """Stop the timer; no further callbacks run."""
        self._cancelled = True
        self._timer.cancel()


class Simulator:
    """Deterministic discrete-event simulation kernel."""

    def __init__(self, seed: int = 0) -> None:
        #: the one event heap of ``[time, sequence, callback, args]`` entries.
        self._heap: list[list] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed_events = 0
        self._run_wall_time = 0.0
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (useful in tests and benchmarks)."""
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    @property
    def run_wall_time(self) -> float:
        """Wall-clock seconds spent inside :meth:`run` so far."""
        return self._run_wall_time

    @property
    def events_per_second(self) -> float:
        """Events fired per wall-clock second spent in :meth:`run`."""
        if self._run_wall_time <= 0.0:
            return 0.0
        return self._processed_events / self._run_wall_time

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"cannot schedule an event {delay}s from now")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, current time is {self._now:.6f}"
            )
        return self._push(time, callback, args)

    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> Timer:
        entry = [time, next(self._counter), callback, args]
        heappush(self._heap, entry)
        return Timer(entry)

    def every(self, interval: float, callback: Callable[[], None]) -> RecurringTimer:
        """Fire ``callback()`` every ``interval`` simulated seconds.

        First firing is at ``now + interval``; keeps firing until the
        returned handle is cancelled.  Meant for periodic *observers*
        (gauge sampling): each firing is an ordinary event, so a run
        with a recurring timer processes extra events but the callback
        must not perturb protocol state.
        """
        return RecurringTimer(self, interval, callback)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run the simulation.

        Stops when the event queue is empty, when the next event is past
        ``until``, or after ``max_events`` events — whichever comes first.
        Returns the simulated time at which the run stopped.

        Automatic cyclic garbage collection is suspended while the loop
        runs and the caller's setting is restored on the way out, also
        when a callback raises (docs/architecture.md, "The memory model
        of a run"): a run only grows the live set and its hot path
        creates no reference cycles, so every automatic collection would
        re-walk that set to reclaim nothing.
        """
        # Hot loop: no per-event allocations and one heap operation per
        # event: pop first, push back only the entry that ends the run.
        # "No horizon"/"no budget" are values of the compared type (inf;
        # -1, which ``fired`` never equals) so the loop tests neither
        # options nor an int against a float.
        heap = self._heap
        horizon = inf if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        fired = 0
        collecting = gc.isenabled()
        gc.disable()
        wall_start = perf_counter()
        try:
            while True:
                try:
                    entry = heappop(heap)
                except IndexError:  # drained
                    break
                callback = entry[2]
                if callback is None:  # cancelled: neither fires nor counts
                    continue
                next_time = entry[0]
                if next_time > horizon or fired == budget:
                    heappush(heap, entry)  # the same list: its place is unchanged
                    if next_time > horizon > self._now:  # never backwards
                        self._now = horizon
                    break
                self._now = next_time
                args = entry[3]
                # Consume the entry before invoking so a Timer handle sees
                # the event as no longer pending even if the callback body
                # is skipped (e.g. crash guards) or raises.
                entry[2] = None
                entry[3] = ()
                fired += 1
                callback(*args)
        finally:
            self._processed_events += fired
            self._run_wall_time += perf_counter() - wall_start
            if collecting:
                gc.enable()
        if until is not None:
            while heap and heap[0][2] is None:
                heappop(heap)
            if not heap:
                # The system went idle before the horizon; advance the clock
                # so throughput denominators stay meaningful.
                self._now = max(self._now, until)
        return self._now
