"""The server side of the Key-based Timestamp Service (KTS).

Every Chord node hosts a :class:`TimestampAuthority`.  The authority manages
the timestamp counters of exactly those document keys whose ``ht(key)``
identifier falls into the node's responsibility interval — that node is the
paper's *Master-key peer* for those documents.  Counters are persisted in the
node's DHT storage (under ``kts:<key>`` with placement identifier
``ht(key)``), which gives the two properties the demonstration scenarios
exercise:

* **Normal departure / new peer joining** — Chord's key hand-off moves the
  counter items to the new responsible node, so the next ``gen_ts`` simply
  continues the sequence (scenarios E3/E4).
* **Crash** — the counter replicas previously pushed to the successor are
  promoted when the failure is detected, so the *Master-key-Succ* takes over
  with the correct ``last-ts`` (scenario E3, failure case).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..chord import NodeService, SaltedHash, StoredItem, timestamp_hash

#: Storage-key prefix under which counters are persisted.
COUNTER_PREFIX = "kts:"


def counter_documents(items: Iterable[StoredItem]) -> list[str]:
    """The document keys whose timestamp counters are among ``items``."""
    return [item.key[len(COUNTER_PREFIX):] for item in items
            if item.key.startswith(COUNTER_PREFIX)]


class TimestampAuthority(NodeService):
    """Per-node service generating continuous, monotonic timestamps."""

    name = "kts"

    def __init__(self, ht: Optional[SaltedHash] = None) -> None:
        super().__init__()
        self._ht = ht
        #: Extra delay, in seconds, before an updated counter is pushed to
        #: the successor replicas.  0 (the default) replicates immediately;
        #: the fault-injection layer (:mod:`repro.faults`) raises it to model
        #: a Master whose *-Succ* backups lag behind the authoritative
        #: counter — the window in which a crash loses recent timestamps.
        self.replica_lag = 0.0
        self.generated = 0
        self.allocations = 0
        self.range_allocations = 0

    # -- NodeService -------------------------------------------------------

    def register_handlers(self, node) -> None:  # noqa: D401 - see base class
        if self._ht is None:
            self._ht = timestamp_hash(node.config.bits)
        node.rpc.expose("kts_gen_ts", self.gen_ts)
        node.rpc.expose("kts_next_timestamps", self.next_timestamps)
        node.rpc.expose("kts_last_ts", self.last_ts)
        node.rpc.expose("kts_advance_ts", self.advance_ts)
        node.rpc.expose("kts_managed_keys", self.managed_keys)

    # -- helpers ---------------------------------------------------------------

    @property
    def ht(self) -> SaltedHash:
        """The ``ht`` hash function locating Master-key peers."""
        if self._ht is None:
            raise RuntimeError("TimestampAuthority used before being attached to a node")
        return self._ht

    def storage_key(self, key: str) -> str:
        """Storage key under which the counter of ``key`` is persisted."""
        return f"{COUNTER_PREFIX}{key}"

    def placement_id(self, key: str) -> int:
        """Ring identifier of the counter (``ht(key)``)."""
        return self.ht(key)

    def _node(self):
        if self.node is None:
            raise RuntimeError("TimestampAuthority is not attached to a node")
        return self.node

    def _replicate_counter(self, item) -> None:
        """Push the updated counter to the successor replicas (maybe lagged)."""
        node = self._node()
        if self.replica_lag > 0.0:
            node.runtime.call_later(
                self.replica_lag, lambda _value: node._push_replicas([item])
            )
        else:
            node._push_replicas([item])

    # -- RPC handlers (the KTS operations of the paper) --------------------------

    def gen_ts(self, key: str) -> int:
        """Generate the next timestamp for ``key`` (monotonic and gap-free).

        The new value is exactly ``last_ts(key) + 1``; the updated counter is
        immediately replicated to the successor(s) so a crash of this node
        does not lose it (Master-key-Succ backup).
        """
        return self.next_timestamps(key, 1)

    def next_timestamps(self, key: str, count: int) -> int:
        """Allocate ``count`` consecutive timestamps for ``key`` in one advance.

        The range ``first .. first + count - 1`` is consumed by a single
        counter update and a single replication push to the successor(s), so
        a commit pays one KTS round-trip regardless of its chain length.
        Returns ``first`` (``last_ts + 1`` at the moment of the call); the
        range stays dense and gap-free because nothing else can advance the
        counter between the read and the write (the update is atomic within
        one simulation step).
        """
        if count < 1:
            raise ValueError(f"timestamp range size must be >= 1, got {count}")
        node = self._node()
        # Pin the placement identifier so churn-driven key transfer moves the
        # counter together with the responsibility for ht(key).
        item = node.storage.update(
            self.storage_key(key),
            lambda current: (current or 0) + count,
            default=0,
            now=node.runtime.now,
            key_id=self.placement_id(key),
        )
        self._replicate_counter(item)
        self.generated += count
        self.allocations += 1
        if count > 1:
            self.range_allocations += 1
        first = item.value - count + 1
        return first

    def last_ts(self, key: str) -> int:
        """Return the last timestamp generated for ``key`` (0 if none yet)."""
        node = self._node()
        return int(node.storage.value(self.storage_key(key), default=0))

    def owns_counter(self, key: str) -> Optional[bool]:
        """Whether this node holds the *authoritative* counter of ``key``.

        ``True`` for an owned counter item, ``False`` for a replica copy
        (e.g. the stale copy a departing Master keeps after handing the key
        to a joining peer), ``None`` when no counter has materialised here
        at all.  The Master uses this to detect a re-election
        that happened while a publish was in flight: advancing a replica
        copy would fork the timestamp sequence.
        """
        node = self._node()
        item = node.storage.get(self.storage_key(key))
        if item is None:
            return None
        return not item.is_replica

    def advance_ts(self, key: str, value: int) -> int:
        """Raise the counter to ``value`` if it is currently lower.

        Used when a Master-key peer recovers state from the P2P-Log or when
        an administrator needs to reconcile a counter; never lowers the
        counter, preserving monotonicity.
        """
        node = self._node()
        current = self.last_ts(key)
        if value <= current:
            return current
        item = node.storage.put(
            self.storage_key(key),
            value,
            now=node.runtime.now,
            key_id=self.placement_id(key),
        )
        self._replicate_counter(item)
        return value

    def managed_keys(self) -> dict[str, int]:
        """Mapping of document key to last timestamp for counters held here.

        Only counters this node *owns* (not replicas) are reported — these
        are the documents for which this node currently is the Master-key
        peer (used by experiment E1 and the churn scenarios).
        """
        node = self._node()
        result: dict[str, int] = {}
        for item in node.storage.owned_items():
            if item.key.startswith(COUNTER_PREFIX):
                result[item.key[len(COUNTER_PREFIX):]] = int(item.value)
        return result

    def statistics(self) -> dict[str, Any]:
        """Counters for experiment reports."""
        return {
            "generated": self.generated,
            "allocations": self.allocations,
            "range_allocations": self.range_allocations,
            "managed_keys": len(self.managed_keys()),
        }
