"""Property-based tests for quorum arithmetic, digests, and the simulator."""

from hypothesis import given, settings, strategies as st

from repro.common.crypto import digest
from repro.common.types import FaultModel
from repro.consensus.base import QuorumTracker
from repro.sim.simulator import Simulator


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=50))
def test_cluster_sizes_tolerate_f_failures(f):
    """Quorum intersection: two quorums always share a correct node."""
    for fault_model in FaultModel:
        n = fault_model.min_cluster_size(f)
        quorum = fault_model.quorum_size(f)
        # Two quorums intersect in at least one node...
        assert 2 * quorum - n >= (1 if f > 0 or fault_model is FaultModel.CRASH else 1) or f == 0
        if fault_model is FaultModel.BYZANTINE and f > 0:
            # ...and for Byzantine clusters, in at least f + 1 nodes,
            # guaranteeing one correct node in the intersection.
            assert 2 * quorum - n >= f + 1
        # A quorum survives f failures.
        assert n - f >= quorum


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=60),
)
def test_quorum_tracker_fires_exactly_once_per_key(threshold, votes):
    tracker = QuorumTracker(threshold, {pid: 1 << pid for pid in range(6)})
    fired = {}
    for key, voter in votes:
        if tracker.vote(key, voter):
            assert key not in fired, "a key fired twice"
            fired[key] = True
            assert tracker.count(key) >= threshold
    for key, _ in votes:
        if tracker.reached(key):
            assert len(tracker.voters(key)) >= threshold


@settings(max_examples=80, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=12),
            st.binary(max_size=12),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
        ),
        max_leaves=12,
    )
)
def test_digest_is_deterministic_and_64_hex_chars(value):
    first = digest(value)
    second = digest(value)
    assert first == second
    assert len(first) == 64
    assert set(first) <= set("0123456789abcdef")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=40))
def test_simulator_fires_events_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
