"""Shared helpers for the benchmark suite.

Every benchmark regenerates one figure (or one ablation) of the paper's
evaluation.  The suite favours short simulated windows so the whole
directory runs in a few minutes; pass ``--benchmark-only`` to pytest to
run it, and use ``sharper-bench <figure> --full`` for fuller curves.
Every simulated number the suite measures is pinned exactly (figure
peaks below, ablation numbers in their modules), so the suite is also
the gate on simulated results.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import run_figure
from repro.bench.reporting import format_figure

#: client sweep and window used by the benchmark suite (kept small so the
#: full suite completes quickly; the CLI exposes fuller sweeps).
BENCH_CLIENTS = (12, 64)
BENCH_DURATION = 0.15
BENCH_WARMUP = 0.03

#: Peak simulated tps of every series of every figure under the settings
#: above, recorded at 18b17bf.  Simulated results are deterministic for a
#: seed, so these hold exactly: a change that moves one has changed the
#: protocol or the cost model, and re-records it in the same commit with
#: the cause in CHANGES.md.  This is the simulated-throughput gate.
FIGURE_PEAKS_PINNED = {
    "fig6a": {"SharPer": 26000.0, "AHL-C": 26000.0, "APR-C": 4591.666666666667, "FPaxos": 4600.0},
    "fig6b": {"SharPer": 17675.0, "AHL-C": 17841.666666666668, "APR-C": 4591.666666666667, "FPaxos": 4600.0},
    "fig6c": {"SharPer": 8575.0, "AHL-C": 4366.666666666667, "APR-C": 4591.666666666667, "FPaxos": 4600.0},
    "fig6d": {"SharPer": 7425.0, "AHL-C": 3341.666666666667, "APR-C": 4591.666666666667, "FPaxos": 4600.0},
    "fig7a": {"SharPer": 8475.0, "AHL-B": 8475.0, "APR-B": 1758.3333333333335, "FaB": 2191.666666666667},
    "fig7b": {"SharPer": 5125.0, "AHL-B": 5550.0, "APR-B": 1758.3333333333335, "FaB": 2191.666666666667},
    "fig7c": {"SharPer": 2233.3333333333335, "AHL-B": 1225.0, "APR-B": 1758.3333333333335, "FaB": 2191.666666666667},
    "fig7d": {"SharPer": 1741.6666666666667, "AHL-B": 1000.0, "APR-B": 1758.3333333333335, "FaB": 2191.666666666667},
    "fig8a": {
        "2 clusters": 11391.666666666668,
        "3 clusters": 16150.0,
        "4 clusters": 19566.666666666668,
        "5 clusters": 21158.333333333336,
    },
    "fig8b": {
        "2 clusters": 3233.3333333333335,
        "3 clusters": 4800.0,
        "4 clusters": 6333.333333333334,
        "5 clusters": 7675.0,
    },
}


def run_and_report(figure_id: str):
    """Run one figure with the benchmark-suite settings and print it."""
    result = run_figure(
        figure_id,
        client_counts=BENCH_CLIENTS,
        duration=BENCH_DURATION,
        warmup=BENCH_WARMUP,
    )
    print()
    print(format_figure(result))
    return result


def run_figure_benchmark(benchmark, figure_id: str):
    """Benchmark one figure via pytest-benchmark (single round); its peaks must equal the pins."""
    result = benchmark.pedantic(run_and_report, args=(figure_id,), rounds=1, iterations=1)
    assert result.peaks() == FIGURE_PEAKS_PINNED[figure_id]
    return result
