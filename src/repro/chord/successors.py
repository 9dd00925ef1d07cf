"""Successor lists for Chord fault tolerance.

A single successor pointer is enough for correctness in a stable ring but
breaks as soon as the successor fails.  Like the original Chord paper (and
Open Chord, which the P2P-LTR prototype builds on), every node therefore
maintains a short list of the ``k`` nearest successors and falls back to the
next live entry when the head fails.  The paper's *Master-key-Succ* and
*Log-Peer-Succ* roles are precisely "the next entry of the successor list".
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .refs import NodeRef

#: Successors each node tracks.  The second entry plays the paper's
#: Master-key-Succ / Log-Peer-Succ backup role; the rest ride out failures.
SUCCESSOR_LIST_SIZE = 4


class SuccessorList:
    """Ordered list of a node's nearest known successors."""

    def __init__(self, owner_id: int, capacity: int = SUCCESSOR_LIST_SIZE) -> None:
        if capacity < 1:
            raise ValueError(f"successor list capacity must be >= 1, got {capacity}")
        self.owner_id = owner_id
        self.capacity = capacity
        self._entries: list[NodeRef] = []

    # -- queries ------------------------------------------------------------

    @property
    def head(self) -> Optional[NodeRef]:
        """The immediate successor, or ``None`` if the list is empty."""
        return self._entries[0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[NodeRef]:
        return iter(self._entries)

    def __contains__(self, node: NodeRef) -> bool:
        return node in self._entries

    def entries(self) -> list[NodeRef]:
        """A copy of the current entries, nearest successor first."""
        return list(self._entries)

    def second(self) -> Optional[NodeRef]:
        """The backup successor (the paper's *-Succ* role), if known."""
        return self._entries[1] if len(self._entries) > 1 else None

    # -- updates ------------------------------------------------------------

    def replace(self, entries: Iterable[NodeRef]) -> None:
        """Replace the whole list, de-duplicating and trimming to capacity."""
        seen: dict[NodeRef, None] = {}
        for entry in entries:
            seen.setdefault(entry)
        self._entries = list(seen)[: self.capacity]

    def adopt(self, successor: NodeRef, their_list: Iterable[NodeRef]) -> None:
        """Set ``successor`` as head and extend with the successor's own list.

        This is the standard successor-list maintenance rule: my list is my
        successor followed by the first ``k - 1`` entries of its list
        (excluding myself, which would short-circuit the ring).
        """
        combined: list[NodeRef] = [successor]
        for entry in their_list:
            if entry == successor or entry.node_id == self.owner_id:
                continue
            combined.append(entry)
        self.replace(combined)

    def remove(self, node: NodeRef) -> None:
        """Drop ``node`` from the list (e.g. after a failed liveness check)."""
        self._entries = [entry for entry in self._entries if entry != node]

    def promote_next(self) -> Optional[NodeRef]:
        """Drop the head (it failed) and return the new head, if any."""
        if self._entries:
            self._entries.pop(0)
        return self.head
