"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.common.errors import SimulationError
from repro.sim.simulator import Simulator


class TestEventOrder:
    def test_orders_by_time(self):
        sim, fired = Simulator(), []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_resolved_in_scheduling_order(self):
        sim, fired = Simulator(), []
        sim.schedule(1.0, fired.append, "first")
        sim.schedule_at(1.0, fired.append, "second")
        sim.schedule(1.0, fired.append, "third")
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_cancelled_events_are_skipped(self):
        sim, fired = Simulator(), []
        timer = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(2.0, fired.append, "kept")
        timer.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["kept"]
        assert sim.processed_events == 1 and sim.pending_events == 0

    def test_a_cancelled_event_is_not_the_next_event(self):
        """Only live events are weighed against the horizon: with the live
        one past it, the clock moves to the horizon and no further."""
        sim, fired = Simulator(), []
        sim.schedule(1.0, fired.append, "cancelled").cancel()
        sim.schedule(5.0, fired.append, "live")
        assert sim.run(until=3.0) == 3.0
        assert fired == [] and sim.pending_events == 1
        assert sim.run() == 5.0
        assert fired == ["live"]


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]
        assert sim.now == 1.5

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_idle_run_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_scheduling_in_the_past_is_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_a_nan_time_is_rejected(self):
        """NaN compares false both ways: accepted, it would fire between
        live events and set the clock to NaN mid-run."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 1
        assert sim.run() == 1.0

    def test_fired_timer_reports_inactive(self):
        """Rolling timers re-arm on ``not timer.active``; a deadline that
        already passed must not look pending — even when the callback
        body was skipped by a crash guard."""
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        assert timer.active
        sim.run()
        assert not timer.active

    def test_timers_can_be_cancelled(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        assert timer.active
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.active

    def test_max_events_limit(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.processed_events == 4
        assert sim.pending_events == 6

    def test_horizon_in_the_past_does_not_move_the_clock_backwards(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.run(until=2.0) == 2.0
        assert sim.run(until=0.5) == 2.0  # was 0.5: the clock ran backwards
        assert sim.pending_events == 1

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(0.1, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_recurring_timer_fires_every_interval_until_cancelled(self):
        sim, fired = Simulator(), []
        recurring = sim.every(0.25, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [0.25, 0.5, 0.75, 1.0]
        recurring.cancel()
        sim.run()
        assert fired == [0.25, 0.5, 0.75, 1.0] and sim.pending_events == 0
        with pytest.raises(SimulationError):
            sim.every(float("nan"), lambda: None)

    def test_a_recurring_callback_may_cancel_its_own_timer(self):
        sim, fired = Simulator(), []

        def once():
            fired.append(sim.now)
            recurring.cancel()

        recurring = sim.every(0.5, once)
        sim.run()
        assert fired == [0.5] and sim.pending_events == 0

    def test_rng_is_seeded(self):
        assert Simulator(seed=42).rng.random() == Simulator(seed=42).rng.random()
        assert Simulator(seed=1).rng.random() != Simulator(seed=2).rng.random()


def _arrange_ties(sim, fired):
    """Events sharing instants, one of which schedules more at its own instant."""

    def note(label):
        fired.append((sim.now, label))

    def spawn():
        note("spawn")
        sim.schedule(0.0, note, "child")  # same instant, highest sequence so far

    sim.schedule(1.0, note, "early")
    for label in ("a", "b"):
        sim.schedule(2.0, note, label)
    sim.schedule(2.0, spawn)
    sim.schedule(2.0, note, "c")
    sim.schedule(3.0, note, "late")
    return note


class TestInterruptedRuns:
    """``run`` pops before it looks; the entry that ends a run goes back unchanged."""

    def test_run_until_then_run_fires_in_the_order_of_one_run(self):
        whole, whole_fired = Simulator(), []
        note = _arrange_ties(whole, whole_fired)
        for label in ("d", "e"):
            whole.schedule_at(2.0, note, label)
        whole.run()

        split, split_fired = Simulator(), []
        note = _arrange_ties(split, split_fired)
        # Stops on "a" (t=2.0, the lowest sequence of its instant), which is
        # pushed back; "d" and "e" join the same instant after that.
        assert split.run(until=1.5) == 1.5
        assert split_fired == [(1.0, "early")]
        for label in ("d", "e"):
            split.schedule_at(2.0, note, label)
        split.run(until=2.0)  # a horizon equal to the instant fires all of it
        assert [label for _, label in split_fired[1:]] == ["a", "b", "spawn", "c", "d", "e", "child"]
        split.run()
        assert split_fired == whole_fired
        assert split.processed_events == whole.processed_events == 9

    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_repeated_max_events_runs_equal_one_run(self, budget):
        whole, whole_fired = Simulator(), []
        _arrange_ties(whole, whole_fired)
        whole.run()

        split, split_fired = Simulator(), []
        _arrange_ties(split, split_fired)
        counts = []
        while split.pending_events:
            before = split.processed_events
            split.run(max_events=budget)
            counts.append(split.processed_events - before)
        assert split_fired == whole_fired
        assert counts[:-1] == [budget] * (len(counts) - 1)
        assert sum(counts) == split.processed_events == whole.processed_events == 7
        assert split.now == whole.now == 3.0

    def test_max_events_zero_fires_nothing_and_keeps_the_queue(self):
        sim, fired = Simulator(), []
        _arrange_ties(sim, fired)
        assert sim.run(max_events=0) == 0.0
        assert fired == [] and sim.processed_events == 0 and sim.pending_events == 6

    def test_cancelled_head_entries_neither_fire_nor_count(self):
        sim, fired = Simulator(), []
        first = sim.schedule(1.0, fired.append, "cancelled-1")
        second = sim.schedule(1.0, fired.append, "cancelled-2")
        sim.schedule(2.0, fired.append, "kept")
        third = sim.schedule(4.0, fired.append, "cancelled-3")
        first.cancel()
        second.cancel()
        third.cancel()
        assert sim.run(until=3.0) == 3.0  # the cancelled tail is not "a later event"
        assert fired == ["kept"]
        assert sim.processed_events == 1
        assert sim.pending_events == 0


class TestEventsPerSecond:
    def test_counter_tracks_fired_events_and_wall_time(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(0.1, lambda: None)
        assert sim.events_per_second == 0.0
        sim.run()
        assert sim.processed_events == 100
        assert sim.run_wall_time > 0.0
        assert sim.events_per_second > 0.0


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector(request):
    """Enter the test with the collector in the given state; restore it afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _raises(sim):
    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(0.1, boom)
    return {}


class TestCollectorQuietRun:
    """``run`` suspends the cyclic collector for its loop and restores the caller's state."""

    @pytest.mark.parametrize(
        "arrange",
        [
            lambda sim: {},
            lambda sim: {"max_events": 1},
            lambda sim: {"until": 0.05},
            _raises,
        ],
        ids=["normal-return", "max-events", "until", "callback-raises"],
    )
    def test_run_leaves_the_collector_as_it_found_it(self, collector, arrange):
        sim = Simulator()
        inside = []
        sim.schedule(0.01, lambda: inside.append(gc.isenabled()))
        sim.schedule(0.3, lambda: None)
        kwargs = arrange(sim)
        if arrange is _raises:
            with pytest.raises(RuntimeError):
                sim.run(**kwargs)
        else:
            sim.run(**kwargs)
        assert inside == [False]  # off inside the loop, whatever the caller had
        assert gc.isenabled() is collector

    def test_no_automatic_collection_starts_inside_the_loop(self):
        sim = Simulator()
        kept = []
        starts = []

        def allocate(remaining):
            kept.extend([index] for index in range(1000))  # 1000 tracked lists, all live
            if remaining:
                sim.schedule(0.001, allocate, remaining - 1)

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        sim.schedule(0.0, allocate, 119)
        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(on_gc)
        try:
            sim.run()
        finally:
            gc.callbacks.remove(on_gc)
            if not was_enabled:
                gc.disable()
        assert len(kept) == 120_000
        assert starts == []

    def test_a_raising_callback_leaves_the_kernel_reusable(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "first")
        _raises(sim)  # also at t=0.1, scheduled second
        sim.schedule(0.2, fired.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        # The epilogue ran: both events at t=0.1 are counted (the raising
        # one fired too) and wall time is accounted.
        assert sim.processed_events == 2
        assert sim.run_wall_time > 0.0
        sim.schedule(0.0, fired.append, "again")
        assert sim.run(max_events=1) == pytest.approx(0.1)  # budgets work again
        assert fired == ["first", "again"]
        sim.run()
        assert fired == ["first", "again", "after"]
        assert sim.processed_events == 4
        assert sim.pending_events == 0
