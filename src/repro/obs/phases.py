"""Phase taxonomy and per-phase latency attribution.

A traced request leaves a stream of ``(time, tx_id, phase, pid)``
events.  This module reduces that stream to a per-phase latency
breakdown: for every committed transaction the gap between consecutive
milestone events is labelled with the *next* milestone's phase, so the
per-phase gaps of one transaction sum exactly to its end-to-end latency
(first ``submit`` to first ``reply``) — attribution is complete by
construction, which is what lets ``ScenarioResult`` claim that >= 95%
of measured latency lands in named phases.

Milestones are taken as the *first* occurrence of each phase across all
replicas (the recorder appends in simulation-time order, so the first
occurrence is the earliest): ``prepared`` means "the first replica
reached its prepare quorum", ``applied`` means "the first replica
executed it", and so on.  Intra-shard and cross-shard transactions use
different canonical phase orders (the cross-shard lane has no intra
prepare round; the Byzantine cross protocol adds ``cross_prepared``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

__all__ = [
    "PHASES_INTRA", "PHASES_CROSS", "KNOWN_PHASES", "PhaseStats", "PhaseBreakdown",
    "attribute_phases", "render_phase_table", "phase_columns",
]

#: Canonical milestone order for intra-shard transactions.
PHASES_INTRA = ("submit", "enqueue", "seal", "propose", "prepared", "decided", "applied", "reply")

#: Canonical milestone order for cross-shard transactions.
PHASES_CROSS = (
    "submit", "enqueue", "seal", "cross_start", "cross_prepared", "decided", "applied", "reply",
)

#: Every phase name the recorder may emit (exporters and the trace
#: validator check emitted events against this set).
KNOWN_PHASES = frozenset(PHASES_INTRA) | frozenset(PHASES_CROSS)


@dataclass(frozen=True)
class PhaseStats:
    """Latency attributed to one phase across one transaction scope."""

    phase: str
    count: int
    total_ms: float
    avg_ms: float
    p50_ms: float
    p95_ms: float
    #: Fraction of the scope's summed end-to-end latency spent here.
    share: float


@dataclass(frozen=True)
class PhaseBreakdown:
    """The full per-phase attribution for one traced run."""

    intra: tuple[PhaseStats, ...]
    cross: tuple[PhaseStats, ...]
    #: Transactions with both a submit and a reply event.
    txs: int
    #: Attributed latency / summed end-to-end latency (1.0 by design).
    attributed_fraction: float


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _stats_for(
    gaps: Mapping[str, Sequence[float]], order: Sequence[str], scope_e2e: float
) -> tuple[PhaseStats, ...]:
    out = []
    for phase in order:
        values = gaps.get(phase)
        if not values:
            continue
        values = sorted(values)
        total = sum(values)
        out.append(
            PhaseStats(
                phase=phase,
                count=len(values),
                total_ms=total * 1e3,
                avg_ms=total / len(values) * 1e3,
                p50_ms=_percentile(values, 0.50) * 1e3,
                p95_ms=_percentile(values, 0.95) * 1e3,
                share=(total / scope_e2e) if scope_e2e > 0 else 0.0,
            )
        )
    return tuple(out)


def attribute_phases(
    events: Iterable[tuple[float, str, str, int]],
    cross_txs: frozenset[str] | set[str],
) -> PhaseBreakdown:
    """Reduce raw phase events to a :class:`PhaseBreakdown`.

    ``events`` are ``(time, tx_id, phase, pid)`` tuples in time order (the
    recorder's are; an event earlier than the one before it is refused);
    ``cross_txs`` is the set of tx ids the recorder saw submitted as
    cross-shard.  Transactions without both a ``submit`` and a ``reply``
    (aborted or still in flight at the horizon) are excluded.  It streams:
    a transaction's first times are reduced and released once time passes
    its first reply (events at that instant still count).
    """
    first_seen: dict[str, dict[str, float] | None] = {}  # None once reduced
    replied: list[str] = []  # txs whose first reply is at ``now``
    gaps: dict[bool, dict[str, array]] = {False: {}, True: {}}
    e2e = {False: 0.0, True: 0.0}
    attributed, txs, now = 0.0, 0, float("-inf")
    # A last instant after every event reduces the transactions still due.
    for time, tx, phase, _pid in chain(events, [(float("inf"), None, "", 0)]):
        if time != now:
            if time < now:
                raise ValueError(f"phase events out of time order: {time} after {now}")
            for done in replied:
                first, first_seen[done] = first_seen[done], None
                start, end = first.get("submit"), first["reply"]
                if start is None or end < start:
                    continue
                txs += 1
                is_cross = done in cross_txs
                e2e[is_cross] += end - start
                milestones = sorted(
                    (first[name], name)
                    for name in (PHASES_CROSS if is_cross else PHASES_INTRA)
                    if name in first and start <= first[name] <= end
                )
                previous = start
                for at, name in milestones:
                    if name != "submit":
                        gaps[is_cross].setdefault(name, array("d")).append(at - previous)
                        attributed += at - previous
                    previous = at
            replied.clear()
            now = time
        first = first_seen.get(tx)
        if first is None:
            if tx in first_seen:
                continue
            first = first_seen[tx] = {}
        if phase not in first:
            first[phase] = time
            if phase == "reply":
                replied.append(tx)

    total_e2e = e2e[False] + e2e[True]
    return PhaseBreakdown(
        intra=_stats_for(gaps[False], PHASES_INTRA, e2e[False]),
        cross=_stats_for(gaps[True], PHASES_CROSS, e2e[True]),
        txs=txs,
        attributed_fraction=(attributed / total_e2e) if total_e2e > 0 else 1.0,
    )


def render_phase_table(breakdown: PhaseBreakdown) -> str:
    """Render the breakdown as the aligned text table the report CLI prints."""
    header = f"{'scope':7s} {'phase':14s} {'count':>7s} {'avg ms':>9s} {'p50 ms':>9s} {'p95 ms':>9s} {'share':>7s}"
    lines = [header, "-" * len(header)]
    for scope, stats in (("intra", breakdown.intra), ("cross", breakdown.cross)):
        for entry in stats:
            lines.append(
                f"{scope:7s} {entry.phase:14s} {entry.count:>7d} "
                f"{entry.avg_ms:>9.3f} {entry.p50_ms:>9.3f} {entry.p95_ms:>9.3f} "
                f"{entry.share:>6.1%}"
            )
    lines.append(
        f"{breakdown.txs} transactions; "
        f"{breakdown.attributed_fraction:.1%} of end-to-end latency attributed"
    )
    return "\n".join(lines)


def phase_columns(breakdown: PhaseBreakdown) -> dict[str, float]:
    """Flatten the breakdown into additive CSV columns.

    Keys are ``phase_<scope>_<phase>_avg_ms``; used by the bench
    reporting layer, which appends them after the legacy columns so
    existing ``BENCH_*`` consumers keep their header prefix.
    """
    columns: dict[str, float] = {}
    for scope, stats in (("intra", breakdown.intra), ("cross", breakdown.cross)):
        for entry in stats:
            columns[f"phase_{scope}_{entry.phase}_avg_ms"] = round(entry.avg_ms, 4)
    return columns
