"""Unit tests for the primary-side batching pipeline.

Covers the pieces the integration differential cannot isolate: batch
digest memoisation, the singleton-unwrap rule, window accounting and
member release, retry dedup, and the view-change reset paths — all
against a minimal fake host, no simulator involved.
"""

import pytest

from repro.common.config import ProtocolTuning
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, ClientId, ClusterId
from repro.consensus.batching import BatchPipeline, member_requests
from repro.consensus.log import item_digest
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.obs import INERT_RECORDER
from repro.txn.transaction import Transaction, Transfer


def make_request(index: int) -> ClientRequest:
    transaction = Transaction(
        tx_id=f"tx-{index}",
        client=ClientId(1),
        transfers=(
            Transfer(
                source=AccountId(2 * index),
                destination=AccountId(2 * index + 1),
                amount=1,
            ),
        ),
    )
    return ClientRequest(
        transaction=transaction, client=ClientId(1), timestamp=float(index)
    )


class FakeIntra:
    def __init__(self, primary=True):
        self.is_primary = primary
        self.submitted = []

    def submit(self, item):
        self.submitted.append(item)


class FakeCross:
    def __init__(self):
        self.started = []

    def start(self, item):
        self.started.append(item)


class FakeHost:
    """The slice of the `Host` surface that BatchPipeline touches."""

    def __init__(self, batch_size=4, pipeline_depth=2, primary=True):
        self.tuning = ProtocolTuning(
            batch_size=batch_size, pipeline_depth=pipeline_depth
        )
        self.intra = FakeIntra(primary)
        self.cross = FakeCross()
        self.relayed = []
        #: flight recorder (Host interface); left inert here.
        self.recorder = INERT_RECORDER
        self.now = 0.0
        self.node_id = 0

    def relay_to_primary(self, request):
        self.relayed.append(request)


class TestRequestBatchDigest:
    def test_digest_is_memoised_on_the_instance(self):
        batch = RequestBatch(requests=(make_request(0), make_request(1)))
        first = batch.payload_digest()
        assert batch._item_digest is first  # the memo slot
        assert batch.payload_digest() is first

    def test_digest_depends_on_member_order(self):
        a, b = make_request(0), make_request(1)
        assert (
            RequestBatch(requests=(a, b)).payload_digest()
            != RequestBatch(requests=(b, a)).payload_digest()
        )

    def test_digest_differs_from_any_member(self):
        a, b = make_request(0), make_request(1)
        batch = RequestBatch(requests=(a, b))
        assert batch.payload_digest() not in (a.payload_digest(), b.payload_digest())

    def test_representative_transaction_is_first_member(self):
        a, b = make_request(0), make_request(1)
        assert RequestBatch(requests=(a, b)).transaction is a.transaction


class TestMemberRequests:
    def test_batch_yields_members(self):
        a, b = make_request(0), make_request(1)
        assert member_requests(RequestBatch(requests=(a, b))) == (a, b)

    def test_bare_request_yields_itself(self):
        request = make_request(0)
        assert member_requests(request) == (request,)

    def test_other_items_yield_nothing(self):
        assert member_requests(object()) == ()


class TestPipelineMechanics:
    def test_singleton_proposes_bare_request(self):
        """A queue of one must not wrap: digests match the legacy path."""
        host = FakeHost(batch_size=4)
        pipeline = BatchPipeline(host)
        request = make_request(0)
        pipeline.submit_intra(request)
        assert host.intra.submitted == [request]
        assert pipeline.singletons_proposed == 1
        assert pipeline.batches_proposed == 0

    def test_backlog_drains_in_batches_behind_the_window(self):
        host = FakeHost(batch_size=3, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(5)]
        for request in requests:
            pipeline.submit_intra(request)
        # Window of 1: the first request went out alone; the rest queue.
        assert host.intra.submitted == [requests[0]]
        pipeline.item_applied(item_digest(requests[0]))
        # Slot freed: the backlog drains as one batch of batch_size.
        assert len(host.intra.submitted) == 2
        batch = host.intra.submitted[1]
        assert isinstance(batch, RequestBatch)
        assert batch.requests == tuple(requests[1:4])
        pipeline.item_applied(item_digest(batch))
        # Remaining single request unwraps again.
        assert host.intra.submitted[2] is requests[4]
        assert pipeline.max_batch == 3
        assert pipeline.batched_requests == 3

    def test_window_release_frees_members(self):
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        a, b = make_request(0), make_request(1)
        pipeline.submit_intra(a)
        pipeline.submit_intra(a)  # in flight: the retried digest proposes nothing
        assert host.intra.submitted == [a]
        pipeline.item_applied(item_digest(a))
        # Released with its slot: the same digest is a new request again,
        # as is one the pipeline never saw.
        pipeline.submit_intra(a)
        assert host.intra.submitted == [a, a]
        pipeline.item_applied(item_digest(a))
        pipeline.submit_intra(b)
        assert host.intra.submitted == [a, a, b]

    def test_retry_of_queued_request_is_dropped(self):
        host = FakeHost(batch_size=4, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        request = make_request(0)
        pipeline.submit_intra(request)
        pipeline.submit_intra(request)  # client retry while in flight
        assert host.intra.submitted == [request]
        pipeline.item_applied(item_digest(request))
        assert host.intra.submitted == [request]  # nothing re-queued

    def test_cross_lanes_share_one_window(self):
        """Lanes keep batches homogeneous; the window is global.

        A freed slot must be offered to *every* lane — the applied
        item's own lane may be empty while another is backed up.
        """
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        near = (ClusterId(0), ClusterId(1))
        far = (ClusterId(0), ClusterId(2))
        a, b, c = make_request(0), make_request(1), make_request(2)
        pipeline.submit_cross(a, near)
        pipeline.submit_cross(b, near)  # queues: the shared window is full
        pipeline.submit_cross(c, far)  # different lane, same full window
        assert host.cross.started == [a]
        pipeline.item_applied(item_digest(a))
        assert host.cross.started == [a, b]
        pipeline.item_applied(item_digest(b))
        # b's own lane is drained; the slot still reaches the far lane.
        assert host.cross.started == [a, b, c]

    def test_non_primary_never_proposes(self):
        host = FakeHost(primary=False)
        pipeline = BatchPipeline(host)
        pipeline.submit_intra(make_request(0))
        assert host.intra.submitted == []

    @pytest.mark.parametrize("field", ["batch_size", "pipeline_depth"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_a_batch_size_or_depth_below_one_is_refused(self, field, value):
        """No silent floor: a pipeline is never built from a field below one."""
        with pytest.raises(ConfigurationError, match=field):
            BatchPipeline(FakeHost(**{field: value}))

    def test_the_window_binds_only_when_chunks_can_fill(self):
        # batch_size == 1: a chunk of one never fills, so nothing queues
        # behind a window — whatever pipeline_depth says.
        assert BatchPipeline(FakeHost(batch_size=1, pipeline_depth=1)).window == float("inf")
        assert BatchPipeline(FakeHost(batch_size=1, pipeline_depth=4)).window == float("inf")
        assert BatchPipeline(FakeHost(batch_size=2, pipeline_depth=1)).window == 1
        assert BatchPipeline(FakeHost(batch_size=2, pipeline_depth=4)).window == 4

    def test_batch_one_proposes_every_request_on_arrival(self):
        host = FakeHost(batch_size=1, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(5)]
        for request in requests[:3]:
            pipeline.submit_intra(request)
        for request in requests[3:]:
            pipeline.submit_cross(request, (ClusterId(0), ClusterId(1)))
        assert host.intra.submitted == requests[:3]
        assert host.cross.started == requests[3:]
        assert pipeline.in_flight == 5 and pipeline.queued == 0
        assert pipeline.peak_queue == 1
        assert pipeline.stats()["singletons_proposed"] == 5


class TestRetryAbsorption:
    """One rule for every batch size (see ``BatchPipeline._admit``)."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_retry_of_in_flight_cross_member_redrives_its_item(self, batch_size):
        host = FakeHost(batch_size=batch_size, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        lane = (ClusterId(0), ClusterId(1))
        first, a, b = make_request(0), make_request(1), make_request(2)
        pipeline.submit_cross(first, lane)
        pipeline.submit_cross(first, lane)  # client retry while in flight
        assert host.cross.started == [first, first]
        if batch_size == 1:
            return
        # Behind the window the next two seal into one batch; a retry of
        # either member re-drives the *batch* it rides, not the member.
        pipeline.submit_cross(a, lane)
        pipeline.submit_cross(b, lane)
        pipeline.item_applied(item_digest(first))
        batch = host.cross.started[-1]
        assert isinstance(batch, RequestBatch) and batch.requests == (a, b)
        pipeline.submit_cross(b, lane)
        assert host.cross.started == [first, first, batch, batch]
        assert host.cross.started[-1] is batch
        # Once the item applied, the member is unknown again: its retry
        # is a fresh request, proposed bare, not a re-drive of the batch.
        pipeline.item_applied(item_digest(batch))
        pipeline.submit_cross(b, lane)
        assert host.cross.started == [first, first, batch, batch, b]

    def test_retry_of_queued_or_intra_member_proposes_nothing(self):
        host = FakeHost(batch_size=4, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        lane = (ClusterId(0), ClusterId(1))
        intra, cross, queued_intra, queued_cross = (make_request(i) for i in range(4))
        pipeline.submit_intra(intra)
        pipeline.submit_cross(cross, lane)
        pipeline.submit_intra(queued_intra)  # both windows are full now
        pipeline.submit_cross(queued_cross, lane)
        proposed = (list(host.intra.submitted), list(host.cross.started))
        assert proposed == ([intra], [cross])
        pipeline.submit_intra(intra)  # rides an in-flight intra slot
        pipeline.submit_intra(queued_intra)
        pipeline.submit_cross(queued_cross, lane)
        assert (host.intra.submitted, host.cross.started) == proposed
        assert pipeline.queued == 2  # ... and nothing was queued twice


class TestViewChangeReset:
    def test_new_primary_repumps_its_queues(self):
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(3)]
        for request in requests:
            pipeline.submit_intra(request)
        assert host.intra.submitted == [requests[0]]
        # View change: in-flight slots are the protocol's problem now;
        # the window reopens and the queue drains into it.
        pipeline.on_view_installed()
        assert pipeline.view_resets == 1
        batch = host.intra.submitted[1]
        assert isinstance(batch, RequestBatch)
        assert batch.requests == tuple(requests[1:3])

    def test_demoted_replica_forwards_queued_requests(self):
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(3)]
        for request in requests:
            pipeline.submit_intra(request)
        host.intra.is_primary = False
        pipeline.on_view_installed()
        assert host.relayed == requests[1:3]
        # Forwarded members leave the dedup index: the new primary owns
        # them now, and a later retry through this replica must forward
        # again rather than vanish (absorbed as a retry it would not queue).
        assert pipeline.queued == 0
        pipeline.submit_intra(requests[1])
        assert pipeline.queued == 1

    def test_members_of_in_flight_items_are_released(self):
        """The view change owns in-flight slots now; no ``item_applied`` will
        ever match them here, so their members must leave the dedup index —
        a re-elected primary has to accept their retries again."""
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        lane = (ClusterId(0), ClusterId(1))
        intra, cross = make_request(0), make_request(1)
        pipeline.submit_intra(intra)
        pipeline.submit_cross(cross, lane)
        pipeline.on_view_installed()
        assert pipeline.in_flight == 0
        pipeline.submit_intra(intra)
        pipeline.submit_cross(cross, lane)
        assert host.intra.submitted == [intra, intra]
        assert host.cross.started == [cross, cross]
