"""Who routed what, when — and what did a publish wait for under the lock?

A test-side probe for the *routes are resolved before they are needed* rule
(``DESIGN.md`` §"The commit pipeline", "What runs under the lock").  While
:func:`trace_routing` is active every locally originated Chord lookup that
really went to the network, every ``P2PLogClient.append_many`` (the publish,
which runs under the per-document lock) and every ``P2PLogClient.warm`` is
recorded with its simulated time, so a test can ask how many lookups a
publish issued itself and which timestamps had been warmed before it.

Attribution is exact, not statistical: a placement identifier is a pure
function of ``key + ts`` and the hash function, so a lookup belongs to the
publish whose placements contain its identifier.  A lookup *routed* iff
simulated time passed inside it (every message takes time); one that was
answered by the node's own arc or its route cache returns in the same
instant and is not recorded.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator
from unittest import mock

from repro.chord import ChordNode
from repro.p2plog import P2PLogClient


@dataclass(frozen=True)
class Routed:
    """One locally originated lookup that sent ``find_successor`` to a peer."""

    node: str
    target_id: int
    started: float
    finished: float
    warm: bool  # started by ChordNode.warm_route, not by an operation


@dataclass(frozen=True)
class Publish:
    """One ``append_many``: who published which timestamps, from when to when."""

    node: str
    key: str
    timestamps: tuple[int, ...]
    identifiers: frozenset[int]
    started: float
    finished: float


@dataclass
class RoutingTrace:
    routed: list[Routed] = field(default_factory=list)
    publishes: list[Publish] = field(default_factory=list)
    #: ``(node, key, from_ts, to_ts, now)`` of every ``P2PLogClient.warm``.
    warmed: list[tuple[str, str, int, int, float]] = field(default_factory=list)
    #: ``(node, identifier)`` of every ``ChordNode.warm_route``.
    warm_calls: list[tuple[str, int]] = field(default_factory=list)

    def lookups_under_lock(self, publish: Publish) -> list[Routed]:
        """The lookups ``publish`` itself sent out while it held the lock."""
        return [
            lookup for lookup in self.routed
            if not lookup.warm
            and lookup.node == publish.node
            and lookup.target_id in publish.identifiers
            and publish.started <= lookup.started <= publish.finished
        ]

    def was_warmed(self, publish: Publish) -> bool:
        """Was every timestamp of ``publish`` warmed here before it started?"""
        return all(
            any(
                node == publish.node and key == publish.key
                and low <= ts <= high and at <= publish.started
                for node, key, low, high, at in self.warmed
            )
            for ts in publish.timestamps
        )

    def peak_in_flight(self, node: str) -> int:
        """Most lookups of ``node`` that were on the network at one instant."""
        edges = sorted(
            edge
            for lookup in self.routed if lookup.node == node
            # a lookup that ends at t is over before one that starts at t
            for edge in ((lookup.started, 1), (lookup.finished, -1))
        )
        peak = current = 0
        for _time, step in edges:
            current += step
            peak = max(peak, current)
        return peak


@contextlib.contextmanager
def trace_routing() -> Iterator[RoutingTrace]:
    trace = RoutingTrace()
    find_successor_local = ChordNode._find_successor_local
    warm_route = ChordNode.warm_route
    append_many = P2PLogClient.append_many
    warm = P2PLogClient.warm

    def traced_lookup(self, target_id, hops):
        started = self.runtime.now
        by_warm_route = target_id in self._warming
        try:
            answer = yield from find_successor_local(self, target_id, hops)
            return answer
        finally:
            if hops == 0 and self.runtime.now > started:
                trace.routed.append(Routed(
                    self.address.name, target_id, started, self.runtime.now,
                    by_warm_route,
                ))

    def traced_warm_route(self, target_id):
        trace.warm_calls.append((self.address.name, target_id))
        return warm_route(self, target_id)

    def traced_append_many(self, entries):
        entries = list(entries)
        node = self.dht.node
        started = node.runtime.now
        try:
            result = yield from append_many(self, entries)
            return result
        finally:
            trace.publishes.append(Publish(
                node.address.name, entries[0].document_key,
                tuple(entry.ts for entry in entries),
                frozenset(function(entry.log_key)
                          for entry in entries for function in self.hash_family),
                started, node.runtime.now,
            ))

    def traced_warm(self, document_key, from_ts, to_ts):
        node = getattr(self.dht, "node", None)
        if node is not None:
            trace.warmed.append((node.address.name, document_key, from_ts, to_ts,
                                 node.runtime.now))
        return warm(self, document_key, from_ts, to_ts)

    with mock.patch.object(ChordNode, "_find_successor_local", traced_lookup), \
            mock.patch.object(ChordNode, "warm_route", traced_warm_route), \
            mock.patch.object(P2PLogClient, "append_many", traced_append_many), \
            mock.patch.object(P2PLogClient, "warm", traced_warm):
        yield trace
