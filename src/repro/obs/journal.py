"""The anomaly journal: every replica's rare events as rows, traced or not.

A rare step leaves one :class:`Anomaly` row ``(time, pid, kind, slot,
digest, detail)`` in its replica's :class:`Journal` (``host.journal``): a
ring of the last :data:`ROWS` rows and a per-kind total that eviction
never lowers.  It schedules nothing and draws no randomness, so a run is
the same with it as without.  ``ScenarioResult.anomalies`` is every
journal merged (:class:`Anomalies`); docs/observability.md §7 lists the kinds.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = ["ROWS", "Anomaly", "Anomalies", "Journal"]

#: rows one replica keeps; older rows go, their kinds' totals stay.
ROWS = 256


class Anomaly(NamedTuple):
    """One rare event: when, at which node, what, at which slot and digest."""

    time: float
    pid: int
    kind: str
    slot: int | None
    digest: str | None
    detail: str

    def __str__(self) -> str:
        slot = "" if self.slot is None else f" slot {self.slot}"
        digest = "" if self.digest is None else f" {self.digest[:12]}"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.time * 1e3:9.3f} ms  p{self.pid:<3} {self.kind}{slot}{digest}{detail}"


class Journal:
    """One replica's ring of rare events and the total of every kind."""

    __slots__ = ("host", "rows", "totals")

    def __init__(self, host: Any) -> None:
        self.host = host  # the node whose ``now`` and ``pid`` a row carries
        self.rows: deque[Anomaly] = deque(maxlen=ROWS)
        self.totals: Counter[str] = Counter()

    def note(self, kind: str, slot: int | None = None, digest: str | None = None,
             detail: str = "") -> None:
        """Append one row and count its kind."""
        self.rows.append(Anomaly(self.host.now, self.host.pid, kind, slot, digest, detail))
        self.totals[kind] += 1


@dataclass(frozen=True)
class Anomalies:
    """Every replica's journal merged: rows in time order and the summed totals (picklable)."""

    rows: tuple[Anomaly, ...] = ()
    totals: dict[str, int] = field(default_factory=dict)

    @classmethod
    def merge(cls, journals: list[Journal]) -> "Anomalies":
        rows = sorted((row for j in journals for row in j.rows), key=lambda r: (r.time, r.pid))
        totals = sum((j.totals for j in journals), Counter())
        return cls(tuple(rows), dict(sorted(totals.items())))

    def of(self, kind: str) -> list[Anomaly]:
        """The kept rows of one kind."""
        return [row for row in self.rows if row.kind == kind]

    def summary(self) -> str:
        """Kind totals on one line (``none`` for a run without a rare event)."""
        return ", ".join(f"{kind} {count}" for kind, count in self.totals.items()) or "none"
