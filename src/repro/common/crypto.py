"""Cryptographic primitives used by the reproduction.

The paper assumes collision-resistant hashes, public-key signatures and
message digests (Section 2.1).  Hash chaining is *functionally* relevant
(blocks reference the hash of their predecessors, and validation checks
those references), so digests are computed with real SHA-256 over a
canonical encoding.

Signatures, on the other hand, only matter for two things in a
logic-level reproduction:

* a Byzantine node must not be able to forge a message from a correct
  node — we model this by recording the claimed signer inside the
  :class:`Signature` object and verifying it against the sender identity
  supplied by the (pairwise-authenticated) network layer;
* signing/verification consumes CPU — the simulator's cost model charges
  a configurable number of microseconds per signature operation.

This keeps the protocol code identical in structure to a deployment that
uses ECDSA, without pulling in heavyweight crypto for a simulator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, is_dataclass, fields
from typing import Any

__all__ = [
    "digest",
    "chain_hash",
    "Signature",
    "KeyPair",
    "sign",
    "verify",
    "GENESIS_HASH",
    "memo_slots",
]


def _canonical(obj: Any) -> bytes:
    """Encode ``obj`` into a deterministic byte string for hashing.

    Supports the value types that appear in blocks and messages: scalars,
    strings, bytes, tuples/lists, dicts (sorted by key), dataclasses, and
    ``None``.  The encoding tags each type so that e.g. ``1`` and ``"1"``
    hash differently.
    """
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"B" + (b"1" if obj else b"0")
    if isinstance(obj, int):
        return b"I" + str(obj).encode()
    if isinstance(obj, float):
        return b"F" + repr(obj).encode()
    if isinstance(obj, str):
        data = obj.encode()
        return b"S" + str(len(data)).encode() + b":" + data
    if isinstance(obj, bytes):
        return b"Y" + str(len(obj)).encode() + b":" + obj
    if isinstance(obj, (list, tuple)):
        parts = b"".join(_canonical(item) for item in obj)
        return b"L" + str(len(obj)).encode() + b":" + parts
    if isinstance(obj, (set, frozenset)):
        parts = b"".join(sorted(_canonical(item) for item in obj))
        return b"E" + str(len(obj)).encode() + b":" + parts
    if isinstance(obj, dict):
        parts = b"".join(
            _canonical(key) + _canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return b"D" + str(len(obj)).encode() + b":" + parts
    if is_dataclass(obj) and not isinstance(obj, type):
        parts = b"".join(
            _canonical(f.name) + _canonical(getattr(obj, f.name)) for f in fields(obj)
        )
        return b"C" + obj.__class__.__name__.encode() + b":" + parts
    if hasattr(obj, "value") and isinstance(obj, object) and obj.__class__.__module__ != "builtins":
        # Enums and NewType-wrapped scalars.
        return b"V" + _canonical(getattr(obj, "value"))
    raise TypeError(f"cannot canonically encode {type(obj)!r}")


def digest(obj: Any) -> str:
    """Return the SHA-256 hex digest of the canonical encoding of ``obj``.

    This is the ``D(m)`` function of the paper.
    """
    return hashlib.sha256(_canonical(obj)).hexdigest()


def chain_hash(*parts: Any) -> str:
    """Hash several components together (used for block hashes)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(_canonical(part))
    return hasher.hexdigest()


def memo_slots(*names: str) -> type:
    """Slotted base of a frozen payload dataclass whose memos are ``names``.

    A memo slot is not a dataclass field, so :func:`digest`, ``repr``,
    ``==``, ``hash``, pickling and ``dataclasses.replace`` never see it:
    a copy starts with every memo unset, and readers use ``getattr(x,
    name, None)``.  ``__weakref__`` rides along because
    ``dataclass(weakref_slot=True)`` needs Python 3.11.
    """
    return type("PayloadMemos", (), {"__slots__": (*names, "__weakref__")})


#: Hash used as the parent reference of the genesis block ``λ``.
GENESIS_HASH = "0" * 64


@dataclass(frozen=True)
class Signature:
    """A (simulated) public-key signature.

    ``signer`` is the identity that produced the signature and
    ``payload_digest`` binds it to the signed content.  ``forged`` marks
    signatures fabricated by Byzantine nodes in fault-injection tests;
    :func:`verify` rejects them, mirroring the paper's assumption that the
    adversary cannot produce valid signatures of non-faulty nodes.
    """

    signer: int
    payload_digest: str
    forged: bool = False


@dataclass(frozen=True)
class KeyPair:
    """Key material of a node or client.

    Only the owner identity is stored; the simulation never needs actual
    key bytes, but keeping the object explicit keeps call sites identical
    to a real deployment (``sign(keypair, msg)`` / ``verify(sig, msg)``).
    """

    owner: int

    def sign(self, payload: Any) -> Signature:
        """Sign ``payload`` with this key pair."""
        return Signature(signer=self.owner, payload_digest=digest(payload))


def sign(keypair: KeyPair, payload: Any) -> Signature:
    """Module-level convenience wrapper around :meth:`KeyPair.sign`."""
    return keypair.sign(payload)


def verify(signature: Signature, payload: Any, expected_signer: int | None = None) -> bool:
    """Check that ``signature`` is a valid signature of ``payload``.

    If ``expected_signer`` is given the signature must also have been
    produced by that identity.  Forged signatures never verify.
    """
    if signature.forged:
        return False
    if expected_signer is not None and signature.signer != expected_signer:
        return False
    return signature.payload_digest == digest(payload)
