"""Property: the streamed phase attribution equals the brute-force one.

``repro.obs.phases.attribute_phases`` reduces each transaction once time
passes its first reply and then releases it.  The reference below is the
whole-trace algorithm it replaced: collect every transaction's first
time per phase, then reduce them all.  Times are multiples of 1/1024, so
every gap and sum is exact and the two must agree to the bit, whatever
order they add the transactions in.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.obs.phases import (
    PHASES_CROSS,
    PHASES_INTRA,
    PhaseBreakdown,
    _stats_for,
    attribute_phases,
)

PHASES = sorted(set(PHASES_INTRA) | set(PHASES_CROSS)) + ["custom"]


def reference(events, cross_txs):
    """Every transaction's first-seen times, reduced after the last event."""
    first_seen = {}
    for time, tx, phase, _pid in events:
        phases = first_seen.setdefault(tx, {})
        if phase not in phases or time < phases[phase]:
            phases[phase] = time
    gaps = {False: {}, True: {}}
    e2e = {False: 0.0, True: 0.0}
    attributed = 0.0
    txs = 0
    for tx, first in first_seen.items():
        if "submit" not in first or "reply" not in first:
            continue
        start, end = first["submit"], first["reply"]
        if end < start:
            continue
        txs += 1
        is_cross = tx in cross_txs
        e2e[is_cross] += end - start
        milestones = sorted(
            (first[phase], phase)
            for phase in (PHASES_CROSS if is_cross else PHASES_INTRA)
            if phase in first and start <= first[phase] <= end
        )
        previous = start
        for time, phase in milestones:
            if phase == "submit":
                continue
            gaps[is_cross].setdefault(phase, []).append(time - previous)
            attributed += time - previous
            previous = time
    total = e2e[False] + e2e[True]
    return PhaseBreakdown(
        intra=_stats_for(gaps[False], PHASES_INTRA, e2e[False]),
        cross=_stats_for(gaps[True], PHASES_CROSS, e2e[True]),
        txs=txs,
        attributed_fraction=(attributed / total) if total > 0 else 1.0,
    )


ticks = st.integers(min_value=0, max_value=48)


@st.composite
def transaction(draw, tx):
    """One transaction's events: a submit and replies that may be missing
    or repeated, milestones at several replicas (some at the reply
    instant, some after it), and stray events before the submit."""
    submit = draw(ticks)
    reply = submit + draw(st.integers(min_value=-2, max_value=16))
    events = []
    if draw(st.booleans()) or draw(st.booleans()):
        events.append((submit, "submit", 100))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if draw(st.booleans()) else 1):
        events.append((reply + draw(st.integers(min_value=0, max_value=2)), "reply", 100))
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        phase = draw(st.sampled_from(PHASES))
        at = draw(st.sampled_from([reply, reply + 1, submit - 1])) if draw(st.booleans()) else None
        events.append((at if at is not None else draw(ticks), phase, draw(st.integers(0, 3))))
    return [(max(at, 0) / 1024, tx, phase, pid) for at, phase, pid in events]


@st.composite
def traces(draw):
    names = [f"t{index}" for index in range(draw(st.integers(min_value=0, max_value=6)))]
    events = [event for tx in names for event in draw(transaction(tx))]
    cross = {tx for tx in names if draw(st.booleans())}
    return events, cross, draw(st.randoms(use_true_random=False))


@settings(max_examples=300, deadline=None)
@given(traces())
def test_streamed_attribution_matches_the_reference(trace):
    events, cross, rng = trace
    rng.shuffle(events)
    expected = reference(events, cross)
    # The recorder's rows come in time order; the offline report sorts a
    # file's rows by time (stably) before it attributes them.
    in_time_order = sorted(events, key=lambda event: event[0])
    assert attribute_phases(in_time_order, cross) == expected
    # Rows of one instant may come in any order.
    rng.shuffle(in_time_order)
    in_time_order.sort(key=lambda event: event[0])
    assert attribute_phases(iter(in_time_order), cross) == expected


def test_a_late_submit_after_the_reply_does_not_count_twice():
    events = [
        (0 / 1024, "t", "submit", 100), (2 / 1024, "t", "reply", 100),
        (3 / 1024, "t", "submit", 100), (4 / 1024, "t", "reply", 100),
    ]
    assert attribute_phases(events, set()) == reference(events, set())
    assert attribute_phases(events, set()).txs == 1


def test_milestones_at_the_reply_instant_recorded_after_it_count():
    events = [
        (0.0, "t", "submit", 100), (1 / 1024, "t", "reply", 100),
        (1 / 1024, "t", "applied", 2), (1 / 1024, "t", "seal", 0),
    ]
    expected = reference(events, set())
    assert {stats.phase for stats in expected.intra} == {"seal", "applied", "reply"}
    assert attribute_phases(events, set()) == expected
    random.Random(3).shuffle(events)
    assert attribute_phases(sorted(events, key=lambda event: event[0]), set()) == expected
