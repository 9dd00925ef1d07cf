"""Uniform DHT client interface.

The timestamping and logging services of P2P-LTR only need four operations
from the DHT: ``put``, ``get``, ``remove`` and ``lookup`` (find the peer
responsible for a key) — plus their batched forms and ``warm``, the hint
that lets an overlay resolve a known placement before it is needed.  This
module defines that contract so the services can run either against the
full Chord ring (production path, used by all experiments) or against a
trivial in-process table (tests only: fast unit tests of client-side
logic).

All operations but ``warm`` are *simulation processes* (generator functions
used with ``yield from``) because the Chord-backed implementation needs to
perform network round trips.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

from ..errors import PLACEMENT_FAILURES, KeyNotFound

#: One item of a batched store: ``(key, value, key_id)`` where ``key_id`` may
#: be ``None`` to let the implementation hash ``key`` itself.
PutItem = tuple[str, Any, Optional[int]]

#: One item of a batched fetch: ``(key, key_id)`` where ``key_id`` may be
#: ``None`` to let the implementation hash ``key`` itself.
GetItem = tuple[str, Optional[int]]


class DhtClient(ABC):
    """Client-side view of a distributed hash table.

    ``put`` / ``get`` / ``remove`` / ``lookup`` / ``call_owner`` route one
    key each; ``put_many`` / ``get_many`` take a batch and, on an overlay,
    cost one RPC per responsible peer.  :meth:`warm` is the one call that is
    not a process: a hint that lets the overlay route a key it will be asked
    for shortly, off the asker's critical path.
    """

    @abstractmethod
    def put(self, key: str, value: Any, *, key_id: Optional[int] = None):
        """Store ``value`` under ``key`` (process; returns placement info)."""

    def put_many(self, items: Sequence[PutItem]):
        """Store several items in one batched operation (process).

        Returns ``{"stored": [bool per item], "owners": int, "hops": int}``.
        The default implementation simply loops over :meth:`put` (one routed
        write per item); implementations backed by a real overlay override it
        to group items by responsible peer so a batch costs one replicated
        write per owner (the commit pipeline relies on this).
        """
        stored: list[bool] = []
        owners: set[Any] = set()
        hops = 0
        for key, value, key_id in items:
            try:
                answer = yield from self.put(key, value, key_id=key_id)
            except PLACEMENT_FAILURES:
                stored.append(False)
                continue
            stored.append(True)
            owners.add(answer.get("owner"))
            hops += answer.get("hops", 0)
        return {"stored": stored, "owners": len(owners), "hops": hops}

    @abstractmethod
    def get(self, key: str, *, key_id: Optional[int] = None):
        """Fetch the value stored under ``key`` (process; raises KeyNotFound)."""

    def get_many(self, items: Sequence[GetItem], warm_next: Sequence[GetItem] = ()):
        """Fetch several items in one batched operation (process).

        Returns ``{"values": [value-or-None per item], "owners": int,
        "hops": int}`` — a missing or unreachable item yields ``None`` in
        place, never an exception, so callers can fall back per item.  The
        default implementation loops over :meth:`get` (one routed read per
        item); implementations backed by a real overlay override it to
        group items by responsible peer so a range read costs one RPC per
        owner (the checkpointed retrieval fast path relies on this).

        ``warm_next`` names the items the caller will ask for next (a range
        read's following window).  An overlay-backed implementation hands
        them to :meth:`warm` once this batch's own placements are resolved,
        so their routing overlaps this batch's reads instead of following
        them; it changes neither the answer nor what is read.
        """
        values: list[Any] = []
        owners: set[Any] = set()
        hops = 0
        for key, key_id in items:
            try:
                answer = yield from self.get(key, key_id=key_id)
            except (KeyNotFound, *PLACEMENT_FAILURES):
                values.append(None)
                continue
            values.append(answer["value"])
            owners.add(answer.get("owner"))
            hops += answer.get("hops", 0)
        return {"values": values, "owners": len(owners), "hops": hops}

    def warm(self, items: Sequence[GetItem]) -> None:
        """Resolve the placements of ``items`` ahead of the operation that needs them.

        Fire and forget — a plain call, not a process: it returns at once,
        never raises, reads and writes no item.  One rule decides who calls
        it: *a placement whose key is already known is resolved before the
        operation that needs it* (the Master knows the next timestamps of a
        document, a range reader its next window).  Whatever routing it
        starts is remembered by the overlay's own route cache, so the later
        ``put_many`` / ``get_many`` finds the owner without a lookup.  The
        default does nothing: a table without routing has nothing to warm.
        """

    @abstractmethod
    def remove(self, key: str, *, key_id: Optional[int] = None):
        """Delete ``key`` (process; returns whether it existed)."""

    @abstractmethod
    def lookup(self, key: str, *, key_id: Optional[int] = None):
        """Locate the peer responsible for ``key`` (process; returns a descriptor)."""

    @abstractmethod
    def call_owner(self, routing_key: str, method: str, *, key_id: Optional[int] = None,
                   **arguments: Any):
        """Invoke an RPC ``method`` on the peer responsible for ``routing_key`` (process).

        The first parameter is only used for routing; the arguments forwarded
        to the remote handler are the keyword ``arguments`` (which may
        therefore freely include a ``key`` argument of their own).
        """
