"""The event-kernel microbenchmark ``perf/run.py`` reads as its host-drift probe.

:func:`kernel_benchmark` fires self-rescheduling callback chains (no protocol
logic); ``perf/`` reports the best of two runs as ``sim.kernel_ns_per_event``,
a reading of the host, not of a change, so nothing gates on it.
"""

from __future__ import annotations

from ..sim.simulator import Simulator

__all__ = ["kernel_benchmark"]


def kernel_benchmark(n_chains: int = 50, events: int = 200_000) -> dict:
    """Pure event-kernel throughput: self-rescheduling callback chains."""
    sim = Simulator(seed=0)
    per_chain = events // n_chains

    def chain(remaining: int) -> None:
        if remaining:
            sim.schedule(0.001, chain, remaining - 1)

    for index in range(n_chains):
        sim.schedule(index * 1e-5, chain, per_chain - 1)
    sim.run()
    return {
        "events": sim.processed_events,
        "wall_s": round(sim.run_wall_time, 4),
        "events_per_second": round(sim.events_per_second, 1),
    }
