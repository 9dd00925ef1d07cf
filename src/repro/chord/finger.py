"""The Chord finger table.

Finger ``i`` of node ``n`` points at ``successor(n + 2**i)``; the table
provides the O(log N) routing shortcut used by ``closest_preceding_node``.
The table degrades gracefully: entries may be ``None`` (not yet fixed) or
stale (pointing at departed peers); the owning node repairs them with its
periodic ``fix_fingers`` task and skips entries that fail a liveness check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .idspace import finger_start
from .refs import NodeRef


class FingerTable:
    """Routing shortcuts of a single Chord node."""

    def __init__(self, node_id: int, bits: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        self.node_id = node_id
        self.bits = bits
        self._entries: list[Optional[NodeRef]] = [None] * bits

    def __len__(self) -> int:
        return self.bits

    def __iter__(self) -> Iterator[Optional[NodeRef]]:
        return iter(self._entries)

    def start(self, index: int) -> int:
        """The identifier this finger should track (``node_id + 2**index``)."""
        return finger_start(self.node_id, index, self.bits)

    def get(self, index: int) -> Optional[NodeRef]:
        """Current entry for finger ``index`` (may be ``None``)."""
        return self._entries[index]

    def update(self, index: int, node: Optional[NodeRef]) -> None:
        """Set finger ``index`` to ``node`` (or clear it with ``None``)."""
        if not 0 <= index < self.bits:
            raise ValueError(f"finger index {index} out of range")
        self._entries[index] = node

    def replace(self, entries: Iterable[Optional[NodeRef]]) -> None:
        """Set every finger at once: entry ``i`` becomes finger ``i``."""
        entries = list(entries)
        if len(entries) != self.bits:
            raise ValueError(f"expected {self.bits} finger entries, got {len(entries)}")
        self._entries = entries

    def remove_node(self, node: NodeRef) -> int:
        """Clear every entry pointing at ``node``; returns how many were cleared."""
        cleared = 0
        for index, entry in enumerate(self._entries):
            if entry == node:
                self._entries[index] = None
                cleared += 1
        return cleared

    def closest_preceding(self, target_id: int, exclude: Optional[set[NodeRef]] = None) -> Optional[NodeRef]:
        """Best known node strictly between this node and ``target_id``.

        Scans fingers from the farthest to the nearest, the core of Chord's
        logarithmic lookup.  ``exclude`` lets the caller skip refs it has
        already found unresponsive during the current lookup.
        """
        node_id = self.node_id
        # ``in_interval_open`` inlined: this scan runs for every routed
        # hop and the call overhead dominated it.  The wrapped comparison
        # subsumes the degenerate ``node_id == target_id`` case (it reduces
        # to ``entry_id != node_id``, exactly the whole-ring-except-self
        # convention).
        if node_id < target_id:
            for entry in reversed(self._entries):
                if entry is None or (exclude is not None and entry in exclude):
                    continue
                if node_id < entry.node_id < target_id:
                    return entry
        else:
            for entry in reversed(self._entries):
                if entry is None or (exclude is not None and entry in exclude):
                    continue
                entry_id = entry.node_id
                if entry_id > node_id or entry_id < target_id:
                    return entry
        return None

    def known_nodes(self) -> list[NodeRef]:
        """Distinct, non-empty finger entries (useful for diagnostics)."""
        seen: dict[NodeRef, None] = {}
        for entry in self._entries:
            if entry is not None:
                seen.setdefault(entry)
        return list(seen)

    def fill_with(self, node: NodeRef) -> None:
        """Point every finger at ``node`` (bootstrap state for a new ring)."""
        for index in range(self.bits):
            self._entries[index] = node
