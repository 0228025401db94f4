"""Payload identity: what a transaction, request, batch and block digest to.

The four payloads keep their memos (digests, the involved-cluster
tuple, the slot's shared block, the block hash) in slots that are not
dataclass fields.  Their identities are pinned to values recorded while
the memos still lived in a per-instance ``__dict__``, so moving a memo
can never move a digest; the rest checks that a memo stays invisible
to ``fields()``, equality, pickling and ``dataclasses.replace``.
"""

import dataclasses
import pickle
import weakref

import pytest

from repro.common.crypto import KeyPair, digest
from repro.common.types import AccountId, ClientId, ClusterId
from repro.consensus.log import item_digest
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.ledger.block import Block
from repro.txn.transaction import Transaction, Transfer


def _payloads():
    signed = Transaction.multi_transfer(
        ClientId(7),
        [Transfer(AccountId(1), AccountId(2), 5), Transfer(AccountId(3), AccountId(9), 2)],
        timestamp=0.25,
        keypair=KeyPair(7),
        tx_id="tx-pin-0",
    )
    bare = Transaction.transfer(
        ClientId(8), AccountId(4), AccountId(5), 3, timestamp=0.5, tx_id="tx-pin-1"
    )
    request = ClientRequest(transaction=signed, client=ClientId(7), timestamp=0.25, reply_to=11)
    other = ClientRequest(transaction=bare, client=ClientId(8), timestamp=0.5, reply_to=12)
    block = Block.create(
        (signed, bare), {ClusterId(1): 4, ClusterId(0): 9}, ClusterId(0), {ClusterId(0): "ab" * 32}
    )
    return {
        "transaction": signed,
        "request": request,
        "batch": RequestBatch(requests=(request, other)),
        "block": block,
    }


def _identity(payload):
    return payload.block_hash if isinstance(payload, Block) else payload.payload_digest()


#: (own identity, canonical digest, field names) of each payload.
PINNED = {
    "transaction": (
        "2be0e427d01578390edb0607cd37a19867456e58a5f41b0866405efc1b3a59ae",
        "a37d3048fa509f190a8a2346dc2142ba21dab3d722c5f1544397824c8ea843a4",
        ("tx_id", "client", "transfers", "timestamp", "signature"),
    ),
    "request": (
        "d3d95145a6efb1b687ec2d673ee4c495a3b3cfa2878a749e16a84b75d24443e7",
        "658916691b4d0f0bbbbee7eb1327763047a3128089503c8872c067f7bb60cc41",
        ("transaction", "client", "timestamp", "reply_to"),
    ),
    "batch": (
        "a2af486d460fab9e13dcf3aaef83bc051a7bdce32d303bab8492ae9ed3abff97",
        "1c6507b445b0bcf62384b0fba25f6cd5e527414d041a78af45382712308b9393",
        ("requests",),
    ),
    "block": (
        "8964c799d8d8a7967fd122145a4924082f7d54d604dbb4148d54fc2049842603",
        "b8862f5557ca4a30921c5167912b030c17d0e55a85c334264b56ed6278bca06b",
        ("transactions", "positions", "parents", "proposer", "is_genesis", "is_noop"),
    ),
}

NAMES = sorted(PINNED)


@pytest.mark.parametrize("name", NAMES)
def test_identity_digest_and_fields_are_pinned(name):
    payload = _payloads()[name]
    identity, canonical, field_names = PINNED[name]
    assert _identity(payload) == identity
    assert _identity(payload) is _identity(payload)  # memoised
    assert digest(payload) == canonical  # a set memo is not encoded
    assert tuple(f.name for f in dataclasses.fields(payload)) == field_names
    if name in ("request", "batch"):
        assert item_digest(payload) == identity


def _memos(payload):
    """The payload's memo slots (its base class's, less ``__weakref__``)."""
    return [slot for slot in type(payload).__mro__[1].__slots__ if slot != "__weakref__"]


@pytest.mark.parametrize("name", NAMES)
def test_memos_live_in_slots_outside_repr_eq_and_hash(name):
    payload, fresh = _payloads()[name], _payloads()[name]
    _identity(payload)
    assert not hasattr(payload, "__dict__")
    assert _memos(payload) and not any(memo in repr(payload) for memo in _memos(payload))
    assert payload == fresh and hash(payload) == hash(fresh)


@pytest.mark.parametrize("name", NAMES)
def test_a_pickled_copy_is_equal_and_starts_without_memos(name):
    payload = _payloads()[name]
    identity = _identity(payload)
    copy = pickle.loads(pickle.dumps(payload))
    assert copy == payload and hash(copy) == hash(payload)
    assert all(getattr(copy, memo, None) is None for memo in _memos(payload))
    assert _identity(copy) == identity


@pytest.mark.parametrize("name", NAMES)
def test_a_payload_can_be_weakly_referenced(name):
    payload = _payloads()[name]
    assert weakref.ref(payload)() is payload


@pytest.mark.parametrize("name", NAMES)
def test_replace_starts_with_an_empty_memo(name):
    payload = _payloads()[name]
    identity = _identity(payload)
    copy = dataclasses.replace(payload)
    assert all(getattr(copy, memo, None) is None for memo in _memos(payload))
    assert copy == payload and _identity(copy) == identity
