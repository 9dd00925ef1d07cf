"""Patch and checkpoint authenticity: per-author HMAC signatures.

Implements the authenticity layer described in ``DESIGN.md`` §"Adversarial
model & authenticity".  Every signature is an HMAC-SHA256 over the
*canonical bytes* of a payload tuple — the codec's canonical wire tree
(:func:`repro.net.codec.to_wire`) dumped as sorted, compact JSON.  Using
the wire tree makes the signature cover exactly what crosses the network;
dumping it with sorted keys (the codec's ``_dumps`` keeps insertion order)
makes the bytes independent of how a dictionary happened to be built, so
every peer computes the same signature for the same payload.

Keys are derived per author from a shared secret
(``LtrConfig.auth_secret``): ``author_key = HMAC(secret, "author:" + name)``.
This is a *symmetric* scheme — any holder of the secret can mint any
author's key — so it authenticates against outsiders, tampering replicas
and accidental corruption, not against colluding insiders (the threat
model table in ``DESIGN.md`` spells out what is masked vs detected).

What gets signed:

* **Commits** — ``("commit", document_key, ts, patch, author, base_ts,
  proposal)``, signed by the submitting user peer, verified by the Master
  before the timestamp check, then built into the entry as ``LogEntry.sig``
  so every replica carries the proof.  ``published_at`` is excluded (the
  Master stamps it after verification) and so is ``sig`` itself.  The
  proposal identity is inside, so nobody can make an author's entry pass
  for another of its proposals; a commit without one (``None``: entries
  signed before identities existed) signs the six-tuple it always did.
* **Checkpoints** — ``("checkpoint", document_key, ts, lines, author)``,
  signed by the Master that materializes the snapshot, which then builds the
  signed value whole (``replace(checkpoint, sig=...)``) as ``Checkpoint.sig``;
  verified by user peers before trusting a retrieved checkpoint for cold
  sync.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from typing import Any, Optional

from ..net.codec import to_wire

__all__ = [
    "canonical_bytes",
    "author_key",
    "sign_commit",
    "verify_commit",
    "verify_entry",
    "sign_checkpoint",
    "verify_checkpoint",
]


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic, wire-format-independent encoding of ``obj``.

    Any object the codec can put on the wire (registered domain types,
    tuples, containers, scalars) has exactly one canonical byte string,
    whatever the key order of the dictionaries it was built from.
    """
    tree = to_wire(obj)
    return json.dumps(
        tree, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def author_key(secret: str, author: str) -> bytes:
    """The per-author signing key derived from the shared secret."""
    return hmac.new(
        secret.encode("utf-8"),
        b"author:" + author.encode("utf-8"),
        hashlib.sha256,
    ).digest()


def _signature(key: bytes, payload: Any) -> str:
    return hmac.new(key, canonical_bytes(payload), hashlib.sha256).hexdigest()


def _commit_payload(
    document_key: str, ts: int, patch: Any, author: str, base_ts: Optional[int],
    proposal: Optional[int],
) -> tuple:
    payload = ("commit", document_key, int(ts), patch, author, base_ts)
    return payload if proposal is None else payload + (proposal,)


def sign_commit(
    key: bytes,
    document_key: str,
    ts: int,
    patch: Any,
    author: str,
    base_ts: Optional[int] = None,
    proposal: Optional[int] = None,
) -> str:
    """Sign one tentative commit with the author's derived ``key``."""
    return _signature(
        key, _commit_payload(document_key, ts, patch, author, base_ts, proposal)
    )


def verify_commit(
    secret: str,
    signature: Any,
    document_key: str,
    ts: int,
    patch: Any,
    author: str,
    base_ts: Optional[int] = None,
    proposal: Optional[int] = None,
) -> bool:
    """``True`` iff ``signature`` is ``author``'s valid HMAC for this commit."""
    if not isinstance(signature, str):
        return False
    expected = sign_commit(
        author_key(secret, author), document_key, ts, patch, author, base_ts,
        proposal,
    )
    return hmac.compare_digest(signature, expected)


def verify_entry(secret: str, entry: Any) -> bool:
    """``True`` iff a retrieved log entry carries its author's valid signature."""
    return verify_commit(
        secret,
        entry.sig,
        entry.document_key,
        entry.ts,
        entry.patch,
        entry.author,
        entry.base_ts,
        entry.proposal,
    )


def _checkpoint_payload(checkpoint: Any) -> tuple:
    return (
        "checkpoint",
        checkpoint.document_key,
        int(checkpoint.ts),
        tuple(checkpoint.lines),
        checkpoint.author,
    )


def sign_checkpoint(secret: str, checkpoint: Any) -> str:
    """Sign a checkpoint with its author's (the Master's) derived key."""
    return _signature(
        author_key(secret, checkpoint.author), _checkpoint_payload(checkpoint)
    )


def verify_checkpoint(secret: str, checkpoint: Any) -> bool:
    """``True`` iff a retrieved checkpoint carries its Master's valid signature."""
    signature = checkpoint.sig
    if not isinstance(signature, str):
        return False
    return hmac.compare_digest(signature, sign_checkpoint(secret, checkpoint))
