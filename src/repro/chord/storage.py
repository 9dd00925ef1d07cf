"""Per-node key/value storage with ownership tracking.

Every Chord node stores the data it is *responsible* for (keys hashing into
``(predecessor, self]``) plus replicas it holds on behalf of its
predecessors.  The store keeps both under the same namespace but tags each
entry (``is_replica``), because key transfer on join/leave only moves owned
entries while failure recovery promotes replicas to owned entries.

*When* an entry changes hands is not decided here: the node's one ownership
transition (:meth:`~repro.chord.node.ChordNode._take` and
:meth:`~repro.chord.node.ChordNode._release`) sets the flag and writes it
through :meth:`NodeStorage.write`.  This class builds records
(:meth:`~NodeStorage.put`, :meth:`~NodeStorage.absorb`) and scans them.

Values are opaque to this layer; P2P-LTR stores patch payloads and
timestamp counters in it through higher-level services.

Persistence is delegated to a :class:`~repro.storage.StorageBackend` (the
volatile in-memory dict by default, or SQLite/WAL for durable peers).  Every
write goes through to the backend, so a durable peer's on-disk state always
reflects its in-memory state and a crash-restart recovery (:meth:`reopen`)
reloads exactly what the protocol had persisted.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..storage import MemoryBackend, StorageBackend, StoredItem
from .hashing import hash_to_id

__all__ = ["NodeStorage", "StoredItem"]


class NodeStorage:
    """Key/value storage local to one Chord node."""

    def __init__(self, bits: int, backend: Optional[StorageBackend] = None) -> None:
        self.bits = bits
        self.backend = backend if backend is not None else MemoryBackend()

    @property
    def durable(self) -> bool:
        """Whether the underlying backend survives a crash-restart."""
        return self.backend.durable

    # -- basic operations -----------------------------------------------------

    def put(
        self,
        key: str,
        value: Any,
        *,
        is_replica: bool = False,
        now: float = 0.0,
        key_id: Optional[int] = None,
    ) -> StoredItem:
        """Insert or overwrite ``key``; returns the stored item."""
        identifier = key_id if key_id is not None else hash_to_id(key, self.bits)
        existing = self.backend.get(key)
        version = existing.version + 1 if existing is not None else 1
        item = StoredItem(
            key=key,
            value=value,
            key_id=identifier,
            is_replica=is_replica,
            version=version,
            stored_at=now,
        )
        self.backend.put(item)
        return item

    def get(self, key: str) -> Optional[StoredItem]:
        """The stored item for ``key``, or ``None``."""
        return self.backend.get(key)

    def value(self, key: str, default: Any = None) -> Any:
        """The stored value for ``key``, or ``default``."""
        item = self.backend.get(key)
        return default if item is None else item.value

    def remove(self, key: str) -> bool:
        """Delete ``key``; returns ``True`` if it existed."""
        return self.backend.delete(key)

    def update(self, key: str, updater: Callable[[Any], Any], default: Any = None,
               now: float = 0.0, *, key_id: Optional[int] = None) -> StoredItem:
        """Read-modify-write helper: ``value = updater(current or default)``.

        The stored item's placement identifier is preserved (or pinned to an
        explicit ``key_id``): entries placed under a salted-family
        identifier — KTS counters — must not be
        silently re-hashed to ``hash(key)`` by a read-modify-write, or they
        would fall out of their responsibility interval and stop moving
        with churn-driven key transfer.
        """
        item = self.backend.get(key)
        current = default if item is None else item.value
        is_replica = item.is_replica if item is not None else False
        if key_id is None and item is not None:
            key_id = item.key_id
        return self.put(key, updater(current), is_replica=is_replica, now=now,
                        key_id=key_id)

    def __contains__(self, key: str) -> bool:
        return key in self.backend

    def __len__(self) -> int:
        return len(self.backend)

    def __iter__(self) -> Iterator[StoredItem]:
        return self.backend.scan()

    def keys(self) -> list[str]:
        """All stored keys (owned and replicas)."""
        return self.backend.keys()

    # -- ownership ---------------------------------------------------------------

    def owned_items(self) -> list[StoredItem]:
        """Items this node is responsible for (not replicas)."""
        return [item for item in self.backend.scan() if not item.is_replica]

    def replica_items(self) -> list[StoredItem]:
        """Items held only as replicas for other nodes."""
        return [item for item in self.backend.scan() if item.is_replica]

    def write(self, item: StoredItem) -> None:
        """Write ``item`` back after its ownership flag changed.

        The version is kept: the record is the same data, owned or held as a
        copy.  A held key keeps its position in the insertion order; a record
        taken out of the store (:meth:`extract_interval`) goes to the back.
        """
        self.backend.put(item)

    def items_in_interval(self, start_exclusive: int, end_inclusive: int,
                          *, include_replicas: bool = False) -> list[StoredItem]:
        """Items whose key identifier falls in ``(start, end]`` on the ring."""
        return self.backend.scan_interval(
            start_exclusive, end_inclusive, include_replicas=include_replicas
        )

    def extract_interval(self, start_exclusive: int, end_inclusive: int) -> list[StoredItem]:
        """Remove and return owned items in ``(start, end]`` (key hand-off)."""
        moving = self.items_in_interval(start_exclusive, end_inclusive)
        for item in moving:
            self.backend.delete(item.key)
        return moving

    def absorb(self, items: list[StoredItem], *, as_replica: bool = False,
               now: float = 0.0) -> int:
        """Insert items received from another node; returns how many were newer.

        An incoming item only overwrites an existing entry if its version is
        strictly greater, so replaying a transfer is idempotent.  A newer
        item is stored owned or as a replica copy as ``as_replica`` says; an
        entry that is not older is left as it is, flag included — whether an
        owned transfer makes this node the owner of a copy it already held is
        the node's decision (:meth:`~repro.chord.node.ChordNode._take`).
        """
        absorbed = 0
        fresh: dict[str, StoredItem] = {}
        for incoming in items:
            existing = fresh.get(incoming.key)
            if existing is None:
                existing = self.backend.get(incoming.key)
            if existing is not None and existing.version >= incoming.version:
                continue
            fresh[incoming.key] = StoredItem(
                key=incoming.key,
                value=incoming.value,
                key_id=incoming.key_id,
                is_replica=as_replica,
                version=incoming.version,
                stored_at=now,
            )
            absorbed += 1
        if fresh:
            self.backend.put_many(fresh.values())
        return absorbed

    def snapshot(self) -> dict[str, Any]:
        """Plain mapping of key to value (for assertions and reports)."""
        return {item.key: item.value for item in self.backend.scan()}

    # -- lifecycle ---------------------------------------------------------------

    def reopen(self) -> None:
        """Crash-restart recovery: reload whatever the backend persisted.

        Durable backends come back with their contents intact (reloaded in
        insertion order); volatile backends come back empty — the honest
        outcome of restarting a peer whose state lived only in memory.
        """
        self.backend.reopen()

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self.backend.close()


# -- wire registration (see repro.net.codec) ---------------------------------
# StoredItem is defined by the storage layer, which sits below the network
# and cannot register it itself; chord is the layer that ships StoredItems
# over RPC (hand-off, replication), so the registration lives here.

from ..net.codec import register_wire_type  # noqa: E402

register_wire_type(
    StoredItem,
    "stored-item",
    pack=lambda obj, enc: [
        obj.key, enc(obj.value), enc(obj.key_id), obj.is_replica,
        obj.version, obj.stored_at,
    ],
    unpack=lambda body, dec: StoredItem(
        key=body[0], value=dec(body[1]), key_id=dec(body[2]),
        is_replica=body[3], version=body[4], stored_at=body[5],
    ),
    copy=lambda obj, copier: StoredItem(
        key=obj.key, value=copier(obj.value), key_id=obj.key_id,
        is_replica=obj.is_replica, version=obj.version, stored_at=obj.stored_at,
    ),
)
