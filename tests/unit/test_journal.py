"""The anomaly journal: one bounded ring per replica, kind totals that outlive it.

A replica keeps its last :data:`~repro.obs.journal.ROWS` rare-event rows;
the total of every kind counts all of them, evicted or not, and is what
the old per-class counters read as (``cross.retries``,
``RecoveryStats.state_transfers_completed``, ...).  Merging the journals
of a run orders the rows by time (then pid) and sums the totals into a
picklable value.
"""

import pickle
from types import SimpleNamespace

from repro.obs.journal import ROWS, Anomalies, Anomaly, Journal


def test_kind_totals_survive_ring_eviction():
    node = SimpleNamespace(now=0.0, pid=3)
    journal = Journal(node)
    extra = 17
    for index in range(ROWS + extra):
        node.now = index * 1e-3
        journal.note("foreign_vote" if index % 2 == 0 else "cross_retry", slot=index)
    assert len(journal.rows) == ROWS
    assert journal.rows[0].slot == extra  # the oldest `extra` rows went
    assert journal.rows[-1] == Anomaly((ROWS + extra - 1) * 1e-3, 3, "foreign_vote",
                                       ROWS + extra - 1, None, "")
    assert journal.totals == {
        "foreign_vote": (ROWS + extra + 1) // 2,
        "cross_retry": (ROWS + extra) // 2,
    }
    assert sum(journal.totals.values()) == ROWS + extra


def test_a_merge_is_time_ordered_and_sums_the_totals():
    first, second = SimpleNamespace(now=0.0, pid=0), SimpleNamespace(now=0.0, pid=1)
    journals = [Journal(first), Journal(second)]
    second.now = 0.2
    journals[1].note("view_change_started", detail="view 1")
    first.now = 0.1
    journals[0].note("recovered", detail="view 0")
    journals[0].note("state_transfer_requested", 7)
    second.now = 0.1
    journals[1].note("view_installed", detail="view 1")
    merged = Anomalies.merge(journals)
    assert [(row.time, row.pid, row.kind) for row in merged.rows] == [
        (0.1, 0, "recovered"),
        (0.1, 0, "state_transfer_requested"),
        (0.1, 1, "view_installed"),
        (0.2, 1, "view_change_started"),
    ]
    assert merged.totals == {
        "recovered": 1, "state_transfer_requested": 1, "view_change_started": 1,
        "view_installed": 1,
    }
    assert merged.of("state_transfer_requested")[0].slot == 7
    assert merged.summary() == (
        "recovered 1, state_transfer_requested 1, view_change_started 1, view_installed 1"
    )
    assert pickle.loads(pickle.dumps(merged)) == merged


def test_a_run_without_rare_events_reads_none():
    assert Anomalies.merge([Journal(SimpleNamespace(now=0.0, pid=0))]) == Anomalies()
    assert Anomalies().summary() == "none"
    row = Anomaly(0.2992, 1, "cross_retry_in_log", 1113, "016be0b41a7c" + "0" * 52, "view 1")
    assert str(row) == "  299.200 ms  p1   cross_retry_in_log slot 1113 016be0b41a7c (view 1)"
