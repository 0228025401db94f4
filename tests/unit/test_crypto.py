"""Unit tests for digests, signatures, and hash chaining."""

import pytest

from repro.common.crypto import (
    KeyPair,
    Signature,
    chain_hash,
    digest,
    sign,
    verify,
)


class TestDigest:
    def test_deterministic(self):
        payload = {"a": 1, "b": [1, 2, 3], "c": "text"}
        assert digest(payload) == digest(dict(payload))

    def test_distinguishes_types(self):
        assert digest(1) != digest("1")
        assert digest(True) != digest(1)
        assert digest(None) != digest(0)

    def test_dict_order_does_not_matter(self):
        assert digest({"x": 1, "y": 2}) == digest({"y": 2, "x": 1})

    def test_nested_structures(self):
        assert digest([(1, 2), {"k": (3, 4)}]) == digest([(1, 2), {"k": (3, 4)}])
        assert digest([(1, 2)]) != digest([(2, 1)])

    def test_dataclasses_are_hashable_content_wise(self):
        a = Signature(signer=1, payload_digest="abc")
        b = Signature(signer=1, payload_digest="abc")
        c = Signature(signer=2, payload_digest="abc")
        assert digest(a) == digest(b)
        assert digest(a) != digest(c)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            digest(object())

    def test_chain_hash_differs_from_plain_digest(self):
        assert chain_hash("a", "b") != chain_hash("b", "a")
        assert len(chain_hash("a")) == 64


class TestSignatures:
    def test_sign_and_verify_roundtrip(self):
        keypair = KeyPair(owner=7)
        signature = sign(keypair, {"amount": 10})
        assert verify(signature, {"amount": 10})
        assert verify(signature, {"amount": 10}, expected_signer=7)

    def test_wrong_payload_fails(self):
        signature = KeyPair(owner=7).sign("payload")
        assert not verify(signature, "other payload")

    def test_wrong_signer_fails(self):
        signature = KeyPair(owner=7).sign("payload")
        assert not verify(signature, "payload", expected_signer=8)

    def test_forged_signature_never_verifies(self):
        forged = Signature(signer=7, payload_digest=digest("payload"), forged=True)
        assert not verify(forged, "payload")

