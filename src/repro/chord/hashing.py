"""Hashing utilities for the Chord identifier space.

Chord places both peers and keys on the same circular identifier space of
size ``2**m`` using a base hash function (SHA-1 in the original paper,
ref [9]/[11] of the P2P-LTR report).  P2P-LTR additionally needs two kinds
of *application-level* hash functions:

* ``ht`` — the *timestamp hash function* used to locate the Master-key peer
  responsible for a document key;
* ``Hr = {h1 .. hn}`` — a family of pairwise-independent *replication hash
  functions* used to place each timestamped patch at ``n`` distinct
  Log-Peers via ``put(hi(key + ts), patch)``.

Both are modelled here as :class:`SaltedHash` instances: SHA-1 over a salt
prefix plus the key text, truncated to the identifier space.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Default number of bits of the Chord identifier space (SHA-1 width).
DEFAULT_ID_BITS = 160


def hash_to_id(value: str, bits: int = DEFAULT_ID_BITS, salt: str = "") -> int:
    """Map ``value`` to an integer identifier in ``[0, 2**bits)``.

    The mapping is SHA-1 based and therefore stable across processes and
    Python versions; ``salt`` produces independent hash functions from the
    same underlying digest.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    digest = hashlib.sha1(f"{salt}|{value}".encode("utf-8")).digest()
    as_int = int.from_bytes(digest, "big")
    if bits >= 160:
        return as_int
    return as_int >> (160 - bits)


@dataclass(frozen=True)
class SaltedHash:
    """A single named hash function onto the identifier space."""

    name: str
    bits: int = DEFAULT_ID_BITS

    def __call__(self, value: str) -> int:
        return hash_to_id(value, bits=self.bits, salt=self.name)

    def placement_key(self, value: str) -> str:
        """A namespaced storage key for data placed through this function.

        The DHT stores values under string keys; routing uses the hash of
        that string.  Prefixing with the function name keeps placements of
        the same logical key through different hash functions distinct, as
        required for the replicated P2P-Log entries.
        """
        return f"{self.name}:{value}"


@dataclass(frozen=True)
class HashFunctionFamily:
    """A family of pairwise-independent hash functions ``{h1 .. hn}``.

    Used for the P2P-Log replication placement (``Hr`` in the paper).  The
    functions are derived from distinct salts, which for SHA-1 behaves as an
    independent family for all practical purposes.
    """

    functions: Sequence[SaltedHash]

    @classmethod
    @functools.lru_cache(maxsize=64)
    def create(cls, count: int, bits: int = DEFAULT_ID_BITS, prefix: str = "hr") -> "HashFunctionFamily":
        """Create a family of ``count`` functions named ``hr1 .. hrN``.

        A family is immutable, so equal arguments share one instance: every
        peer of a ring asks for the same patch and checkpoint families.
        """
        if count < 1:
            raise ValueError(f"a hash family needs at least one function, got {count}")
        return cls(tuple(SaltedHash(f"{prefix}{index}", bits) for index in range(1, count + 1)))

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, index: int) -> SaltedHash:
        return self.functions[index]

    def placements(self, value: str) -> list[tuple[SaltedHash, int]]:
        """All ``(function, identifier)`` placements of ``value``."""
        return [(function, function(value)) for function in self.functions]


def timestamp_hash(bits: int = DEFAULT_ID_BITS) -> SaltedHash:
    """The ``ht`` hash function locating Master-key peers."""
    return SaltedHash("ht", bits)


def key_distribution(keys: Iterable[str], node_ids: Sequence[int], bits: int = DEFAULT_ID_BITS,
                     salt: str = "ht") -> dict[int, int]:
    """Count how many ``keys`` each node is responsible for.

    ``node_ids`` must be the sorted identifiers of the ring members.  A key
    with identifier ``k`` belongs to the first node id ``>= k`` (wrapping
    around), i.e. its Chord successor.  Used by experiment E1 to show that
    timestamping responsibility is spread over the DHT.
    """
    ordered = sorted(node_ids)
    if not ordered:
        raise ValueError("node_ids must not be empty")
    counts = {node_id: 0 for node_id in ordered}
    for key in keys:
        identifier = hash_to_id(key, bits=bits, salt=salt)
        owner = _successor_of(identifier, ordered)
        counts[owner] += 1
    return counts


def _successor_of(identifier: int, ordered_ids: Sequence[int]) -> int:
    """First node identifier clockwise from ``identifier`` (inclusive)."""
    for node_id in ordered_ids:
        if node_id >= identifier:
            return node_id
    return ordered_ids[0]
