"""Route cache: memoized ``find_successor`` answers for the lookup hot path.

P2P-LTR's workloads hit the same Master-key peer over and over (every
commit of a document looks up the same key, E1/E5 issue long runs of
lookups for a handful of keys).  Re-walking the O(log N) finger chain for
each of them is wasted work once the ring is stable, so every node keeps a
small LRU cache of recently resolved *responsibility intervals*:

    (start, end]  ->  owner NodeRef

A lookup whose target falls inside a cached interval is answered in zero
hops.  A lookup answer that crosses the network also carries the answering
node's fresh entries (:meth:`RouteCache.fresh_routes`), so one remote lookup
can teach the asker many intervals.  Because cached routes go stale under
churn, three safety mechanisms bound the staleness window:

* entries expire after a TTL (a small multiple of the stabilization
  period by default), counted from the *authoritative* answer: a route
  learned from another node's cache is stored back-dated by the age that
  node reported, so relaying a route never extends its life,
* entries pointing at peers observed to be unreachable are purged, and
* membership events seen by the node (successor change, predecessor
  hand-off, departure notifications) clear or purge the cache; the
  :class:`~repro.chord.ring.ChordRing` driver additionally clears every
  live node's cache when it orchestrates a join, leave or crash.

A caller that knows an identifier before it needs the route can have it
learned ahead of time (:meth:`~repro.chord.node.ChordNode.warm_route`); what
that stores is an ordinary entry under the same three mechanisms, and the
probe it starts with (:meth:`RouteCache.covers`) deliberately has none of
:meth:`RouteCache.lookup`'s side effects.

The cache is scan-based: a lookup touches up to ``capacity`` tuples.  Since
lookup answers carry routes, every node's cache fills to the default 128
entries on a busy ring, and a scan then costs about 63 µs of host time
(profiled on a 128-peer ltrbench round, 2-core host) — the price of a few
simulated message deliveries, not a negligible one.  It still saves
simulated time: a hit answers in zero hops.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from .idspace import in_interval_open_closed
from .refs import NodeRef

Interval = tuple[int, int]


class RouteCache:
    """LRU cache of ``(start, end] -> owner`` routing intervals."""

    def __init__(self, capacity: int = 128, ttl: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: OrderedDict[Interval, tuple[NodeRef, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- queries ------------------------------------------------------------

    def lookup(
        self, target_id: int, now: float
    ) -> Optional[tuple[Interval, NodeRef, float]]:
        """The cached ``(interval, owner, stamp)`` containing ``target_id``, if fresh.

        ``stamp`` is when the route was (authoritatively) learned; a node
        that serves the hit to another peer reports ``now - stamp`` as the
        answer's age.

        One pass over the entries: expired intervals are collected for
        removal while the first fresh containing interval is remembered —
        same eviction set, same answer and same counters as the original
        two-scan version, without allocating an eviction list on the
        (overwhelmingly common) lookup that expires nothing.
        """
        ttl = self.ttl
        expired: Optional[list[Interval]] = None
        hit: Optional[tuple[Interval, NodeRef, float]] = None
        for interval, entry in self._entries.items():
            if now - entry[1] > ttl:
                if expired is None:
                    expired = [interval]
                else:
                    expired.append(interval)
            elif hit is None:
                # in_interval_open_closed, inlined: this scan runs for every
                # routed lookup and the call overhead dominated it.  The
                # degenerate start == end case cannot occur (store() refuses
                # those intervals).
                start, end = interval
                if (start < target_id <= end) if start < end \
                        else (target_id > start or target_id <= end):
                    hit = (interval, entry[0], entry[1])
        if expired is not None:
            for interval in expired:
                del self._entries[interval]
            self.invalidations += len(expired)
        if hit is not None:
            self._entries.move_to_end(hit[0])
            self.hits += 1
            return hit
        self.misses += 1
        return None

    def covers(self, target_id: int, now: float) -> bool:
        """Whether a fresh entry contains ``target_id`` — a probe, not a use.

        Unlike :meth:`lookup` it counts no hit or miss, leaves the LRU order
        alone and evicts nothing: warming asks *whether* a later lookup
        would be served, and that lookup is the one that counts.
        """
        ttl = self.ttl
        for (start, end), (_owner, stamp) in self._entries.items():
            if now - stamp <= ttl and (
                (start < target_id <= end) if start < end
                else (target_id > start or target_id <= end)
            ):
                return True
        return False

    def fresh_routes(self, now: float) -> list[tuple[Interval, NodeRef, float]]:
        """Every fresh entry as ``(interval, owner, age)``, least recently used first.

        A read, like :meth:`covers`: no counter, no reordering, no eviction.
        ``age`` is ``now - stamp``, the figure a receiver back-dates the
        route by, so relaying never extends a route's life.
        """
        ttl = self.ttl
        return [
            (interval, owner, now - stamp)
            for interval, (owner, stamp) in self._entries.items()
            if now - stamp <= ttl
        ]

    # -- updates ------------------------------------------------------------

    def store(self, interval: Interval, owner: NodeRef, now: float) -> None:
        """Remember that ``owner`` is responsible for ``(start, end]`` as of ``now``.

        ``now`` is the stamp the TTL counts from: the current time for an
        authoritative answer, an earlier one for a route relayed out of
        another node's cache (see :meth:`ChordNode._remember_route`).
        Degenerate intervals (``start == end``) are refused: under the
        open-closed convention they cover the entire ring, which is only
        ever true for a single-node ring — not worth caching, and poisonous
        if a transiently islanded node advertised one.
        """
        if interval[0] == interval[1]:
            return
        known = self._entries.get(interval)
        if known is None or known[0] != owner or known[1] < now:
            # ``now`` may be back-dated (a relayed route): an older relay
            # never ages a fresher stamp of the same owner.
            self._entries[interval] = (owner, now)
        self._entries.move_to_end(interval)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.invalidations += 1

    def invalidate_node(self, node: NodeRef) -> int:
        """Drop every entry whose owner is ``node`` (observed dead/departed)."""
        return self._drop([
            interval for interval, (owner, _t) in self._entries.items() if owner == node
        ])

    def forget(self, target_id: int) -> int:
        """Drop every entry covering ``target_id`` (its owner answered wrongly)."""
        return self._drop([
            interval for interval in self._entries
            if in_interval_open_closed(target_id, *interval)
        ])

    def _drop(self, stale: list[Interval]) -> int:
        for interval in stale:
            del self._entries[interval]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop everything (a membership change made all intervals suspect)."""
        self.invalidations += len(self._entries)
        self._entries.clear()

    # -- diagnostics --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Hit/miss/invalidation counters plus the current size."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_fraction": (self.hits / total) if total else 0.0,
        }
