"""Unit tests for transactions: construction, classification, signing."""

import pytest

from repro.common.crypto import KeyPair, Signature
from repro.common.errors import ValidationError
from repro.txn.accounts import ShardMapper
from repro.txn.transaction import Transaction, Transfer


class TestTransfer:
    def test_valid_transfer(self):
        transfer = Transfer(source=1, destination=2, amount=5)
        assert (transfer.source, transfer.destination, transfer.amount) == (1, 2, 5)

    def test_zero_or_negative_amount_rejected(self):
        with pytest.raises(ValidationError):
            Transfer(source=1, destination=2, amount=0)
        with pytest.raises(ValidationError):
            Transfer(source=1, destination=2, amount=-3)

    def test_self_transfer_rejected(self):
        with pytest.raises(ValidationError):
            Transfer(source=1, destination=1, amount=5)


class TestTransaction:
    def test_requires_at_least_one_transfer(self):
        with pytest.raises(ValidationError):
            Transaction(tx_id="t", client=1, transfers=())

    def test_tx_ids_are_unique(self):
        a = Transaction.transfer(client=1, source=1, destination=2, amount=1)
        b = Transaction.transfer(client=1, source=1, destination=2, amount=1)
        assert a.tx_id != b.tx_id

    def test_payload_digest_stable_and_distinct(self):
        a = Transaction.transfer(client=1, source=1, destination=2, amount=1, tx_id="fixed")
        b = Transaction.transfer(client=1, source=1, destination=2, amount=1, tx_id="fixed")
        c = Transaction.transfer(client=1, source=1, destination=2, amount=2, tx_id="fixed")
        assert a.payload_digest() == b.payload_digest()
        assert a.payload_digest() != c.payload_digest()

    def test_intra_vs_cross_classification(self):
        mapper = ShardMapper(num_shards=4, accounts_per_shard=10)
        intra = Transaction.transfer(client=1, source=1, destination=2, amount=1)
        cross = Transaction.transfer(client=1, source=1, destination=15, amount=1)
        assert intra.involved_shards(mapper) == frozenset({0})
        assert cross.involved_shards(mapper) == frozenset({0, 1})

    def test_multi_shard_transaction(self):
        mapper = ShardMapper(num_shards=4, accounts_per_shard=10)
        tx = Transaction.multi_transfer(
            client=1, transfers=[Transfer(1, 15, 2), Transfer(1, 25, 2), Transfer(1, 35, 2)]
        )
        assert tx.involved_shards(mapper) == frozenset({0, 1, 2, 3})

    def test_signature_roundtrip(self):
        keypair = KeyPair(owner=5)
        tx = Transaction.transfer(client=5, source=1, destination=2, amount=1, keypair=keypair)
        assert tx.signature is not None
        assert tx.verify_signature()

    def test_signature_of_wrong_client_fails(self):
        keypair = KeyPair(owner=6)
        tx = Transaction.transfer(client=5, source=1, destination=2, amount=1, keypair=keypair)
        assert not tx.verify_signature()

    def test_unsigned_transaction_does_not_verify(self):
        tx = Transaction.transfer(client=5, source=1, destination=2, amount=1)
        assert not tx.verify_signature()

    def test_signed_digest_and_signature_values_are_pinned(self):
        # Recorded at the commit that still built every transaction twice.
        tx = Transaction.multi_transfer(
            3, [Transfer(1, 2, 5), Transfer(1, 300, 7)],
            timestamp=0.125, keypair=KeyPair(owner=3), tx_id="tx-pin",
        )
        assert tx.payload_digest() == (
            "94a10349729da6b3ab46677198f674ae5f7f88b73a2057e639c25b5ae944accc"
        )
        assert tx.signature == Signature(
            signer=3,
            payload_digest="3f85f70fb437bea2d5bfb9d17c9dbb91c485c8e958e6ded5e769d62c7423ae7a",
        )
        assert tx.verify_signature()


@pytest.fixture
def hashed(monkeypatch):
    """Every body ``repro.txn.transaction`` feeds to SHA-256, in order."""
    import hashlib

    from repro.txn import transaction as transaction_module

    bodies = []

    class CountingHashlib:
        @staticmethod
        def sha256(data):
            bodies.append(data)
            return hashlib.sha256(data)

    monkeypatch.setattr(transaction_module, "hashlib", CountingHashlib)
    return bodies


def test_signing_does_not_hash_the_body_twice(hashed):
    tx = Transaction.transfer(
        client=5, source=1, destination=2, amount=1, keypair=KeyPair(owner=5)
    )
    assert len(hashed) == 1  # hashed to sign ...
    tx.payload_digest()
    assert tx.verify_signature()
    assert len(hashed) == 1  # ... and the signed instance kept the digest


def test_a_transaction_body_is_hashed_once_from_generation_to_apply(hashed):
    """One SHA-256 per transaction body, however many replicas order and apply it."""
    from repro import WorkloadConfig
    from repro.api import DeploymentSpec, Scenario

    result = Scenario(
        deployment=DeploymentSpec(system="sharper", num_clusters=2),
        workload=WorkloadConfig(cross_shard_fraction=0.2, accounts_per_shard=64),
        clients=8,
        duration=0.1,
    ).run()
    assert result.ok
    generated = sum(client.workload.generated for client in result.system.clients)
    applied = sum(replica.committed_count for replica in result.system.processes())
    assert applied > 3 * generated > 0  # every transaction reached several replicas
    assert len(hashed) == len(set(hashed)) == generated
