"""DHT client of a P2P-LTR peer, routed through the peer's own Chord node.

The timestamping and logging services of P2P-LTR only need four operations
from the DHT: ``put``, ``get``, ``remove`` and ``lookup`` (find the peer
responsible for a key), plus ``call_owner``, the batched ``put_many`` /
``get_many`` and ``warm``, the hint that resolves a known placement before
it is needed.  All operations but ``warm`` are *simulation processes*
(generator functions used with ``yield from``): they perform network round
trips.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..chord import ChordNode, hash_to_id
from ..errors import PLACEMENT_FAILURES

#: One item of a batched store: ``(key, value, key_id)`` where ``key_id`` may
#: be ``None`` to let the client hash ``key`` itself.
PutItem = tuple[str, Any, Optional[int]]

#: One item of a batched fetch: ``(key, key_id)`` where ``key_id`` may be
#: ``None`` to let the client hash ``key`` itself.
GetItem = tuple[str, Optional[int]]


class ChordDhtClient:
    """DHT operations routed through a peer's own Chord node.

    Every P2P-LTR peer is itself a member of the DHT (Figure 1 of the
    paper), so its DHT client simply delegates to the local
    :class:`~repro.chord.ChordNode`, which performs the routed lookups and
    remote stores.  ``put`` / ``get`` / ``remove`` / ``lookup`` /
    ``call_owner`` route one key each; ``put_many`` / ``get_many`` take a
    batch and cost one RPC per responsible peer.
    """

    def __init__(self, node: ChordNode) -> None:
        self.node = node

    @property
    def bits(self) -> int:
        """Width of the identifier space used by the underlying ring."""
        return self.node.config.bits

    def hash_key(self, key: str, salt: str = "") -> int:
        """Hash ``key`` onto the ring's identifier space."""
        return hash_to_id(key, self.bits, salt=salt)

    def put(self, key: str, value: Any, *, key_id: Optional[int] = None):
        result = yield from self.node.put(key, value, key_id=key_id)
        return result

    def put_many(self, items: Sequence[PutItem]):
        """Batched store: group items by responsible peer, one RPC per peer.

        All placements are resolved concurrently (repeated lookups towards
        the same arc are served by the route cache), the items are grouped
        by owner, and each owner receives its whole group in a single
        ``store_many`` RPC — which also pushes the successor replicas with
        one notification per owner instead of one per item.  An item whose
        placement cannot be resolved, or whose owner is unreachable, is
        reported as not stored; the batch itself never fails wholesale.
        Returns ``{"stored": [bool per item], "owners": int, "hops": int}``.
        """
        items = list(items)
        if not items:
            return {"stored": [], "owners": 0, "hops": 0}
        groups, hops = yield from self._group_by_owner(
            [(key, key_id) for key, _value, key_id in items]
        )
        runtime = self.node.runtime
        stored = [False] * len(items)
        writes = [
            (
                indexes,
                runtime.process(
                    self._store_group(owner, [items[i] for i in indexes]),
                    name=f"store_many:{owner.address.name}",
                ),
            )
            for owner, indexes in groups.items()
        ]
        if writes:
            yield runtime.all_of([process for _indexes, process in writes])
        for indexes, process in writes:
            if process.value:
                for index in indexes:
                    stored[index] = True
        return {"stored": stored, "owners": len(groups), "hops": hops}

    def _group_by_owner(self, items: Sequence[GetItem]):
        """Resolve the placements of ``items`` concurrently and group them by owner (process).

        Returns ``(groups, hops)``: ``groups`` maps each responsible peer to
        the indexes of its items, in item order; an item whose placement
        cannot be resolved is in no group.  ``hops`` sums the routing hops.
        """
        runtime = self.node.runtime
        resolutions = [
            runtime.process(
                self._resolve_placement(key, key_id),
                name=f"resolve:{key}",
            )
            for key, key_id in items
        ]
        yield runtime.all_of(resolutions)
        hops = 0
        groups: dict[Any, list[int]] = {}
        for index, resolution in enumerate(resolutions):
            outcome = resolution.value
            if outcome is None:
                continue
            owner, answer_hops = outcome
            hops += answer_hops
            groups.setdefault(owner, []).append(index)
        return groups, hops

    def _resolve_placement(self, key: str, key_id: Optional[int]):
        """Locate the owner of one placement; ``None`` when routing fails."""
        identifier = key_id if key_id is not None else self.hash_key(key)
        try:
            answer = yield from self.node.find_successor(identifier)
        except PLACEMENT_FAILURES:
            return None
        return answer["node"], answer["hops"]

    def _store_group(self, owner, group: Sequence[PutItem]):
        """Write one owner's share of a batch in a single RPC."""
        payload = [
            {
                "key": key,
                "value": value,
                "key_id": key_id if key_id is not None else self.hash_key(key),
            }
            for key, value, key_id in group
        ]
        try:
            yield self.node.rpc.call(
                owner.address,
                "store_many",
                items=payload,
                timeout=self.node.config.rpc_timeout,
            )
        except PLACEMENT_FAILURES:
            self.node.forget_routes_to(owner)
            return False
        return True

    def get(self, key: str, *, key_id: Optional[int] = None):
        result = yield from self.node.get(key, key_id=key_id)
        return result

    def get_many(self, items: Sequence[GetItem], warm_next: Sequence[GetItem] = ()):
        """Batched fetch: group items by responsible peer, one RPC per peer.

        The read-side mirror of :meth:`put_many`: all placements are
        resolved concurrently (repeated lookups towards the same arc are
        served by the route cache), the items are grouped by owner, and
        each owner answers its whole group through a single ``fetch_many``
        RPC.  An item whose placement cannot be resolved, whose owner is
        unreachable, or which the owner does not hold is reported as
        ``None``; the batch itself never fails wholesale.  Returns
        ``{"values": [value-or-None per item], "owners": int, "hops": int}``.

        ``warm_next`` is warmed *between* the two stages: after this batch's
        own resolutions returned (issued together, both batches would walk
        the arcs the first was about to teach the cache) and while its
        ``fetch_many`` RPCs are in flight — so the routings in flight never
        belong to more than one batch.
        """
        items = list(items)
        if not items:
            return {"values": [], "owners": 0, "hops": 0}
        groups, hops = yield from self._group_by_owner(items)
        runtime = self.node.runtime
        values: list[Any] = [None] * len(items)
        reads = [
            (
                indexes,
                runtime.process(
                    self._fetch_group(owner, [items[i][0] for i in indexes]),
                    name=f"fetch_many:{owner.address.name}",
                ),
            )
            for owner, indexes in groups.items()
        ]
        self.warm(warm_next)
        if reads:
            yield runtime.all_of([process for _indexes, process in reads])
        for indexes, process in reads:
            found = process.value
            if not found:
                continue
            for index in indexes:
                values[index] = found.get(items[index][0])
        return {"values": values, "owners": len(groups), "hops": hops}

    def _fetch_group(self, owner, keys: Sequence[str]):
        """Read one owner's share of a batch in a single RPC; ``None`` on failure."""
        try:
            answer = yield self.node.rpc.call(
                owner.address,
                "fetch_many",
                keys=list(keys),
                timeout=self.node.config.rpc_timeout,
            )
        except PLACEMENT_FAILURES:
            self.node.forget_routes_to(owner)
            return None
        return answer

    def warm(self, items: Sequence[GetItem]) -> None:
        """Have the node learn the routes to ``items`` in the background.

        Fire and forget: a plain call, not a process.  It returns at once,
        never raises, and reads and writes no item.  One rule decides who
        calls it: *a placement whose key is already known is resolved before
        the operation that needs it* (the Master knows the next timestamps of
        a document, a range reader its next window).  The route cache keeps
        what it learns, so the later ``put_many`` / ``get_many`` finds the
        owner without a lookup.
        """
        for key, key_id in items:
            self.node.warm_route(key_id if key_id is not None else self.hash_key(key))

    def remove(self, key: str, *, key_id: Optional[int] = None):
        result = yield from self.node.remove(key, key_id=key_id)
        return result

    def lookup(self, key: str, *, key_id: Optional[int] = None):
        if key_id is not None:
            result = yield from self.node.find_successor(key_id)
        else:
            result = yield from self.node.lookup(key)
        return result

    def call_owner(self, routing_key: str, method: str, *, key_id: Optional[int] = None,
                   timeout: Optional[float] = None, **arguments: Any):
        """Route to the responsible peer, then invoke ``method`` on it.

        Returns ``{"owner": NodeRef, "hops": int, "result": Any}``; see
        :meth:`~repro.chord.ChordNode.call_owner`.
        """
        identifier = key_id if key_id is not None else self.hash_key(routing_key)
        result = yield from self.node.call_owner(
            identifier, method, timeout=timeout, **arguments
        )
        return result
