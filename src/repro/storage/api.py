"""The storage-backend contract shared by every per-node store.

A :class:`StorageBackend` persists :class:`StoredItem` records for one peer:
the Chord key/value entries, the P2P-Log entry placements, the checkpoint
index and the KTS counters all live in the same per-node namespace (they are
distinguished by key prefixes at the layers above).  The contract is small
on purpose — get/put/delete, batch writes, ordered scans and ring-interval
scans — because :class:`~repro.chord.storage.NodeStorage` implements the
ownership semantics (versions, replica tagging, hand-off) *on top of* it and
must behave identically over every backend.

Two properties of the contract are load-bearing for determinism:

* **Iteration order is insertion order.**  The protocol stack iterates
  stored items (hand-off, replication refresh, invariant scans) and the
  order in which items are visited feeds message schedules.  Overwriting an
  existing key keeps its position; deleting and re-adding appends — exactly
  the semantics of a Python dict, which the SQLite backend reproduces with
  rowid ordering.
* **Items round-trip losslessly.**  ``key_id`` (the ring placement, which
  for salted-family entries is *not* ``hash(key)``), ``is_replica``,
  ``version`` and ``stored_at`` must all survive a close/reopen cycle, or a
  recovered peer would corrupt interval membership and ownership.

Backends returning ``durable=True`` additionally survive :meth:`reopen`
with their contents intact — that is what makes a crashed peer's
``recover`` restart meaningful.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from ..errors import ConfigurationError


@dataclass
class StoredItem:
    """A single stored entry and its bookkeeping metadata.

    ``key_id`` is the ring identifier the item is placed under — usually
    ``hash(key)`` but an explicit salted-family identifier for log-entry,
    checkpoint and KTS-counter placements.  ``is_replica`` distinguishes
    entries this node owns from backup copies held for a predecessor.
    """

    key: str
    value: Any
    key_id: int
    is_replica: bool = False
    version: int = 0
    stored_at: float = 0.0


def in_ring_interval(x: int, a: int, b: int) -> bool:
    """``x`` in the arc ``(a, b]`` of the circular identifier space.

    The same open-closed predicate as ``repro.chord.idspace`` (restated
    here because the storage layer sits *below* chord): when ``a == b`` the
    whole ring is covered, matching a single-node responsibility interval.
    """
    if a == b:
        return True
    if a < b:
        return a < x <= b
    return x > a or x <= b


class StorageBackend(abc.ABC):
    """Persistence contract for one node's stored items.

    Concrete backends implement the five core operations; the ordered and
    interval scans are derived.  ``durable`` advertises whether contents
    survive :meth:`reopen` (the crash-recovery contract).
    """

    #: Whether contents survive a close/reopen cycle.
    durable: bool = False

    # -- core operations ------------------------------------------------------

    @abc.abstractmethod
    def get(self, key: str) -> Optional[StoredItem]:
        """The stored item for ``key``, or ``None``."""

    @abc.abstractmethod
    def put(self, item: StoredItem) -> None:
        """Insert or overwrite ``item`` under ``item.key`` (verbatim)."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Delete ``key``; returns ``True`` if it existed."""

    @abc.abstractmethod
    def scan(self) -> Iterator[StoredItem]:
        """All items in insertion order (overwrites keep their position)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every item (amnesiac restart: the disk is gone too)."""

    # -- batch / lifecycle ----------------------------------------------------

    def put_many(self, items: Iterable[StoredItem]) -> None:
        """Write a batch of items; durable backends use one transaction."""
        for item in items:
            self.put(item)

    def flush(self) -> None:
        """Make every prior write durable (no-op for volatile backends)."""

    def close(self) -> None:
        """Release backend resources; further operations may fail."""

    def reopen(self) -> None:
        """Simulate a process restart: drop volatile state, reload what was
        persisted.  Volatile backends come back empty; durable backends
        reload their contents (in insertion order)."""

    # -- derived scans --------------------------------------------------------

    def keys(self) -> list[str]:
        """All stored keys, in insertion order."""
        return [item.key for item in self.scan()]

    def scan_interval(
        self,
        start_exclusive: int,
        end_inclusive: int,
        *,
        include_replicas: bool = False,
    ) -> list[StoredItem]:
        """Items whose ``key_id`` falls in ``(start, end]`` on the ring."""
        selected = []
        for item in self.scan():
            if not include_replicas and item.is_replica:
                continue
            if in_ring_interval(item.key_id, start_exclusive, end_inclusive):
                selected.append(item)
        return selected

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())


#: Backend names accepted by :func:`create_backend` (and the
#: ``LtrConfig.storage_backend`` knob).
BACKEND_NAMES = ("memory", "sqlite")


def create_backend(spec: str, *, path=None) -> StorageBackend:
    """Instantiate a backend by name.

    ``"memory"`` ignores ``path``; ``"sqlite"`` requires it (the per-node
    database file).
    """
    if spec == "memory":
        from .memory import MemoryBackend

        return MemoryBackend()
    if spec == "sqlite":
        if path is None:
            raise ConfigurationError("the sqlite backend requires a database path")
        from .sqlite import SqliteBackend

        return SqliteBackend(path)
    raise ConfigurationError(
        f"unknown storage backend {spec!r}; known: {BACKEND_NAMES}"
    )
