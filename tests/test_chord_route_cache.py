"""Tests for the Chord route cache (repro.chord.routecache + node wiring).

The cache must make repeated same-key lookups cheap (zero additional hops)
while never serving a stale route after churn: every membership change —
crash, graceful leave, join — must invalidate affected entries.
"""

import pytest

from repro.chord import ChordConfig, ChordRing, NodeRef, RouteCache
from repro.chord.hashing import hash_to_id
from repro.dht import ChordDhtClient
from repro.net import Address, ConstantLatency

CACHED_CONFIG = ChordConfig(
    bits=32,
    stabilize_interval=0.25,
    fix_fingers_interval=0.5,
    check_predecessor_interval=0.5,
    route_cache_ttl=5.0,
)


def _ref(identifier: int, name: str) -> NodeRef:
    return NodeRef(identifier, Address(name))


def build_ring(peers: int, *, config: ChordConfig = CACHED_CONFIG, seed: int = 5) -> ChordRing:
    ring = ChordRing(config=config, seed=seed, latency=ConstantLatency(0.003))
    ring.bootstrap(peers)
    ring.run_for(20.0)  # let fix_fingers converge
    return ring


def far_gateway(ring: ChordRing, key: str) -> str:
    """A live node roughly half a ring away from ``key``'s owner."""
    live = ring.live_nodes()
    owner = ring.responsible_node(key)
    index = next(i for i, node in enumerate(live) if node is owner)
    return live[(index + len(live) // 2) % len(live)].address.name


# ---------------------------------------------------------------- unit level --


def test_route_cache_store_lookup_and_lru_eviction():
    cache = RouteCache(capacity=2, ttl=10.0)
    a, b, c = _ref(100, "a"), _ref(200, "b"), _ref(300, "c")
    cache.store((0, 100), a, now=0.0)
    cache.store((100, 200), b, now=0.0)
    assert cache.lookup(150, now=1.0) == ((100, 200), b, 0.0)  # with its stamp
    # Storing a third interval evicts the least recently used one ((0, 100]:
    # the hit above refreshed (100, 200]).
    cache.store((200, 300), c, now=1.0)
    assert cache.lookup(50, now=1.0) is None
    assert cache.lookup(150, now=1.0) == ((100, 200), b, 0.0)  # a hit re-stamps nothing
    assert cache.lookup(250, now=1.0) == ((200, 300), c, 1.0)


def test_route_cache_ttl_expiry():
    cache = RouteCache(capacity=8, ttl=1.0)
    owner = _ref(100, "a")
    cache.store((0, 100), owner, now=0.0)
    assert cache.lookup(50, now=0.5) is not None
    assert cache.lookup(50, now=2.0) is None
    assert len(cache) == 0


def test_route_cache_invalidate_node_and_clear():
    cache = RouteCache(capacity=8, ttl=10.0)
    a, b = _ref(100, "a"), _ref(200, "b")
    cache.store((0, 100), a, now=0.0)
    cache.store((300, 400), a, now=0.0)
    cache.store((100, 200), b, now=0.0)
    assert cache.invalidate_node(a) == 2
    assert cache.lookup(50, now=0.0) is None
    assert cache.lookup(150, now=0.0) == ((100, 200), b, 0.0)
    cache.clear()
    assert len(cache) == 0
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["invalidations"] == 3  # 2 from invalidate_node + 1 from clear


def test_route_cache_refuses_degenerate_whole_ring_interval():
    cache = RouteCache(capacity=8, ttl=10.0)
    owner = _ref(100, "a")
    # (x, x] covers the whole ring under the open-closed convention: a
    # transiently islanded node must not poison its peers' routing.
    cache.store((100, 100), owner, now=0.0)
    assert len(cache) == 0
    assert cache.lookup(50, now=0.0) is None


def test_single_node_ring_answers_carry_no_interval():
    ring = ChordRing(config=CACHED_CONFIG, seed=3)
    ring.bootstrap(1)
    answer = ring.lookup("only-key")
    assert answer["node"] == ring.gateway().ref
    assert "interval" not in answer


def test_route_cache_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        RouteCache(capacity=0)
    with pytest.raises(ValueError):
        RouteCache(ttl=0.0)


# ------------------------------------------------------------- ring level --


def test_repeated_lookup_is_served_from_cache_with_zero_extra_hops():
    ring = build_ring(12)
    key = "hot-document"
    via = far_gateway(ring, key)
    first = ring.lookup(key, via=via)
    assert first["hops"] >= 1
    assert first["node"] == ring.responsible_node(key).ref
    second = ring.lookup(key, via=via)
    assert second["node"] == first["node"]
    assert second["hops"] == 0
    assert second.get("cached") is True
    assert ring.node(via).route_cache.hits >= 1


def test_cleared_caches_route_like_the_uncached_protocol():
    """E8's uncached arm: a clear before each lookup leaves nothing to hit."""
    ring = build_ring(12)
    key = "cold-document"
    via = far_gateway(ring, key)
    ring.clear_route_caches()
    first = ring.lookup(key, via=via)
    assert first["hops"] >= 1 and "cached" not in first
    ring.clear_route_caches()
    assert all(len(node.route_cache) == 0 for node in ring.live_nodes())
    second = ring.lookup(key, via=via)
    assert second["node"] == first["node"] == ring.responsible_node(key).ref
    assert second["hops"] == first["hops"] and "cached" not in second


def test_cache_hit_covers_other_keys_in_same_interval():
    ring = build_ring(8)
    key = "warmup-key"
    via = far_gateway(ring, key)
    ring.lookup(key, via=via)
    # Any other identifier falling in the same responsibility interval is
    # answered from the cache with the same owner.
    owner = ring.responsible_node(key)
    sibling = next(
        f"sibling-{i}" for i in range(1000)
        if ring.responsible_node(f"sibling-{i}") is owner
    )
    answer = ring.lookup(sibling, via=via)
    assert answer["node"] == owner.ref
    assert answer["hops"] == 0


def test_cached_route_invalidated_when_owner_crashes():
    ring = build_ring(10)
    key = "crash-me"
    via = far_gateway(ring, key)
    old_owner = ring.responsible_node(key)
    ring.lookup(key, via=via)  # warm the caches along the path
    ring.crash(old_owner.address.name)
    answer = ring.lookup(key, via=via)
    assert answer["node"] != old_owner.ref
    assert answer["node"] == ring.responsible_node(key).ref


def test_cached_route_invalidated_when_owner_leaves_gracefully():
    ring = build_ring(10)
    key = "leave-me"
    via = far_gateway(ring, key)
    old_owner = ring.responsible_node(key)
    ring.lookup(key, via=via)
    ring.leave(old_owner.address.name)
    answer = ring.lookup(key, via=via)
    assert answer["node"] != old_owner.ref
    assert answer["node"] == ring.responsible_node(key).ref


def test_cached_routes_invalidated_on_join_takeover():
    ring = build_ring(8)
    keys = [f"doc-{index}" for index in range(24)]
    via = ring.ring_order()[0]
    for key in keys:
        ring.lookup(key, via=via)
    # New peers join; some of them take over arcs the cache had claims on.
    for joiner in range(6):
        ring.add_node(f"joiner-{joiner}")
    ring.run_for(20.0)  # let fingers converge on the new topology
    for key in keys:
        answer = ring.lookup(key, via=via)
        assert answer["node"] == ring.responsible_node(key).ref, key


def test_stale_cache_entry_not_served_after_silent_crash():
    """Even without the ring driver's clear, the cache never serves a dead owner."""
    ring = build_ring(10)
    key = "silent-crash"
    via = far_gateway(ring, key)
    old_owner = ring.responsible_node(key)
    ring.lookup(key, via=via)  # warm the gateway's cache with the old owner
    # Fail the node directly, bypassing ChordRing.crash and its cache clear.
    old_owner.fail()
    # The gateway holds a cached route to the dead owner, but the is_up guard
    # refuses to serve it: the answer must not be flagged as a cache hit.
    answer = ring.lookup(key, via=via)
    assert answer.get("cached") is not True
    # Once stabilization repairs the ring (still no driver-level clear), the
    # node-level invalidation mechanisms alone yield the correct new owner.
    ring.wait_until_stable()
    answer = ring.lookup(key, via=via)
    assert answer["node"] != old_owner.ref
    assert answer["node"] == ring.responsible_node(key).ref


def test_cache_expires_entries_with_simulated_time():
    ring = build_ring(8)
    key = "ttl-key"
    via = far_gateway(ring, key)
    ring.lookup(key, via=via)
    cache = ring.node(via).route_cache
    assert len(cache) >= 1
    ring.run_for(CACHED_CONFIG.route_cache_ttl + 1.0)
    assert cache.lookup(0, ring.runtime.now) is None or True  # expiry is lazy
    answer = ring.lookup(key, via=via)
    assert answer["node"] == ring.responsible_node(key).ref


def test_forwarded_cache_hits_do_not_restart_the_ttl():
    """A relayed route is learned, but back-dated by the age it travelled
    with: it dies at the *authoritative* stamp + TTL however many caches it
    crossed.  Re-stamping it with the arrival time would let a stale route
    circulate between nodes past its TTL."""
    ring = build_ring(8)
    ttl = CACHED_CONFIG.route_cache_ttl
    first, second = (ring.node(name) for name in ring.ring_order()[:2])
    owner = ring.lookup("ttl-circulation", via=first.address.name)["node"]
    interval, target = (10, 20), 15
    first.route_cache.clear()
    second.route_cache.clear()
    stamped_at = ring.runtime.now  # when some third node learned it authoritatively

    # Relay 1: a node serves its 2 s old entry; `first` stores it back-dated.
    ring.run_for(2.0)
    first._remember_route({"node": owner, "hops": 1, "interval": interval,
                           "cached": True, "age": ring.runtime.now - stamped_at})
    assert first.route_cache.lookup(target, ring.runtime.now) == (interval, owner, stamped_at)

    # Relay 2: `first` serves its copy 1.5 s later, reporting the full age.
    ring.run_for(1.5)
    _interval, _owner, stamp = first._cached_route(target)
    second._remember_route({"node": owner, "hops": 1, "interval": interval,
                            "cached": True, "age": ring.runtime.now - stamp})
    assert second.route_cache.lookup(target, ring.runtime.now) == (interval, owner, stamped_at)

    # Both copies expire together, at the original stamp + TTL.
    ring.run_for(stamped_at + ttl - ring.runtime.now - 0.01)
    assert first.route_cache.lookup(target, ring.runtime.now) is not None
    assert second.route_cache.lookup(target, ring.runtime.now) is not None
    ring.run_for(0.02)
    assert first.route_cache.lookup(target, ring.runtime.now) is None
    assert second.route_cache.lookup(target, ring.runtime.now) is None


@pytest.mark.parametrize("age", [None, "3", float("nan"), float("inf"),
                                 CACHED_CONFIG.route_cache_ttl, [1.0]])
def test_relayed_route_without_a_usable_age_is_not_stored(age):
    """Missing, non-numeric, NaN or >= TTL: nothing to back-date by."""
    ring = build_ring(4)
    node = ring.gateway()
    node.route_cache.clear()
    answer = {"node": node.successor, "hops": 1, "interval": (10, 20), "cached": True}
    if age is not None:
        answer["age"] = age
    node._remember_route(answer)
    assert len(node.route_cache) == 0
    # A route carried along with an answer goes by the same rule.
    node._remember_route({"node": node.successor, "hops": 1,
                          "routes": (((30, 40), node.successor, age),)})
    assert len(node.route_cache) == 0


def test_relayed_route_with_negative_age_counts_as_fresh_not_as_future():
    ring = build_ring(4)
    node = ring.gateway()
    node.route_cache.clear()
    node._remember_route({"node": node.successor, "hops": 1, "interval": (10, 20),
                          "cached": True, "age": -30.0})
    assert node.route_cache.lookup(15, ring.runtime.now)[2] == ring.runtime.now


def test_older_relay_never_overwrites_a_fresher_stamp():
    ring = build_ring(4)
    node = ring.gateway()
    node.route_cache.clear()
    owner, interval = node.successor, (10, 20)
    ring.run_for(3.0)
    learned_at = ring.runtime.now
    node._remember_route({"node": owner, "hops": 1, "interval": interval})
    node._remember_route({"node": owner, "hops": 1, "interval": interval,
                          "cached": True, "age": 2.5})
    assert node.route_cache.lookup(15, ring.runtime.now) == (interval, owner, learned_at)
    # ... while a fresher (authoritative) answer does move the stamp forward.
    ring.run_for(1.0)
    node._remember_route({"node": owner, "hops": 1, "interval": interval})
    assert node.route_cache.lookup(15, ring.runtime.now) == (interval, owner, ring.runtime.now)


def test_carried_routes_are_back_dated_and_the_asked_for_route_is_stored_last():
    ring = build_ring(4)
    node = ring.gateway()
    node.route_cache = RouteCache(capacity=3, ttl=CACHED_CONFIG.route_cache_ttl)
    a, b, c, d = (_ref(identifier, name) for identifier, name in
                  ((40, "a"), (60, "b"), (80, "c"), (20, "d")))
    now = ring.runtime.now
    node._remember_route({
        "node": d, "hops": 2, "interval": (10, 20),
        "routes": (((20, 40), a, 1.5), ((40, 60), b, 0.25), ((60, 80), c, 0.0),
                   ((80, 90), c, CACHED_CONFIG.route_cache_ttl)),
    })
    # Four carried, one of them too old; three fit: the asked-for route is
    # stored last, evicting the oldest carried one, and is the most recent.
    assert list(node.route_cache._entries) == [(40, 60), (60, 80), (10, 20)]
    assert node.route_cache.lookup(50, now) == ((40, 60), b, now - 0.25)
    assert node.route_cache.lookup(70, now) == ((60, 80), c, now)
    assert node.route_cache.lookup(15, now) == ((10, 20), d, now)


def with_traffic(ring: ChordRing) -> ChordRing:
    """Every peer looks up a few keys: the caches hold what lookups taught them."""
    for name in ring.ring_order():
        for index in range(4):
            ring.lookup(f"traffic-{name}-{index}", via=name)
    return ring


def test_one_remote_lookup_teaches_a_cold_peer_many_routes():
    """The answer carries the answering peer's fresh routes: a peer whose
    cache was empty knows more than the arc it asked for, and every route it
    learned names the peer that really owns it."""
    ring = with_traffic(build_ring(12))
    key = "teach-me"
    via = far_gateway(ring, key)
    asker = ring.node(via)
    asker.route_cache.clear()
    answer = ring.lookup(key, via=via)
    assert answer["hops"] >= 1
    routes = asker.route_cache.fresh_routes(ring.runtime.now)
    assert len(routes) > 1
    for (_start, end), owner, age in routes:
        assert owner == ring.responsible_node_for_id(end).ref
        assert 0.0 <= age < CACHED_CONFIG.route_cache_ttl


def test_a_peer_with_a_stale_predecessor_carries_only_its_own_successor_arc():
    """Neither ``(pred, self]`` nor the successor-list tail is carried: a
    predecessor pointer left wrong by a fault would advertise another peer's
    arc, and a stale list entry would be vouched for as fresh."""
    ring = build_ring(8)
    node = ring.gateway()
    node.route_cache.clear()
    assert len(node.successors) > 1
    node.predecessor = node.successors.entries()[-1]  # far too wide
    target = (node.node_id + 1) % 2 ** ring.config.bits
    answer = ring.runtime.run(until=ring.runtime.process(node.rpc_find_successor(target, 1)))
    assert answer["node"] == node.successor
    assert answer["routes"] == (((node.node_id, node.successor.node_id), node.successor, 0.0),)


def test_a_carried_route_naming_a_crashed_peer_is_purged_on_first_use():
    ring = with_traffic(build_ring(12))
    key = "carry-a-corpse"
    via = far_gateway(ring, key)
    asker = ring.node(via)
    asker.route_cache.clear()
    asked_owner = ring.lookup(key, via=via)["node"]
    now = ring.runtime.now
    carried = [(interval, owner) for interval, owner, _age
               in asker.route_cache.fresh_routes(now)
               if owner not in (asked_owner, asker.ref, asker.successor)]
    assert carried, "the answer carried routes besides the asked-for one"
    (_start, end), victim = carried[0]
    ring.node(victim.address.name).fail()  # no driver-level clear
    assert asker.route_cache.covers(end, ring.runtime.now)
    # The first lookup that would be served by it finds the owner down and
    # purges every entry naming it, so routing falls back to the fingers.
    assert asker._cached_route(end) is None
    assert all(owner != victim for _interval, owner, _age
               in asker.route_cache.fresh_routes(ring.runtime.now))


def test_route_served_from_a_cache_is_learned_by_the_asker():
    """The point of the age: the second asker behind a caching node learns
    the route too, instead of relaying through that node for the whole TTL."""
    ring = build_ring(12)
    key = "learned-route"
    via = far_gateway(ring, key)
    asker = ring.node(via)
    owner = ring.responsible_node(key).ref
    ring.lookup(key, via=via)  # warms every cache on the recursion path
    relay = asker.fingers.closest_preceding(hash_to_id(key, ring.config.bits))
    assert relay != owner, "pick a key that routes through at least one relay"
    asker.route_cache.clear()
    relayed = ring.lookup(key, via=via)
    assert relayed["node"] == owner
    assert relayed.get("cached") is True and 0.0 <= relayed["age"] < 1.0
    assert relayed["hops"] == 1  # answered out of the relay's cache
    again = ring.lookup(key, via=via)
    assert again["hops"] == 0 and again.get("cached") is True


def test_unanswered_owner_rpc_purges_the_cached_route():
    """An owner the network still lists (a peer in another process, an
    unannounced crash) is found out by the RPC that goes unanswered: the
    DHT client purges its routes instead of re-serving them on every retry."""
    from repro.errors import RequestTimeout

    ring = build_ring(8)
    key = "silent-owner"
    gateway, target = warm_cached_route(ring, key)
    owner = ring.responsible_node(key)
    ring.network.silenced.add(owner.address.name)
    client = ChordDhtClient(gateway)
    with pytest.raises(RequestTimeout):
        ring.runtime.run(until=ring.runtime.process(
            client.call_owner(key, "ping", key_id=target)
        ))
    assert ring.network.is_up(owner.address)  # nothing told the network
    assert gateway.route_cache.lookup(target, ring.runtime.now) is None


def test_batched_put_many_lookups_are_served_from_the_route_cache():
    """The batched commit pipeline resolves many placements per flush; once
    a batch has warmed the gateway's cache, the next batch towards the same
    arcs must resolve with cache hits and strictly fewer total hops."""
    ring = build_ring(12)
    via = ring.ring_order()[0]
    node = ring.node(via)
    client = ChordDhtClient(node)

    items = [(f"hot-batch-{index}", f"rev-1-{index}", None) for index in range(12)]
    cold = ring.runtime.run(until=ring.runtime.process(client.put_many(items)))
    assert cold["stored"] == [True] * len(items)
    hits_after_cold = node.route_cache.stats()["hits"]

    rewrite = [(key, f"rev-2-{index}", None) for index, (key, _v, _id) in enumerate(items)]
    warm = ring.runtime.run(until=ring.runtime.process(client.put_many(rewrite)))
    assert warm["stored"] == [True] * len(items)
    stats = node.route_cache.stats()
    assert stats["hits"] > hits_after_cold  # warm batch resolved from cache
    assert warm["hops"] < cold["hops"]
    assert 0.0 < stats["hit_fraction"] <= 1.0
    # The cached answers are correct: every item is retrievable.
    for key, value, _key_id in rewrite:
        answer = ring.runtime.run(until=ring.runtime.process(client.get(key)))
        assert answer["value"] == value


def test_batched_lookup_hit_rate_reported_by_ring_stats():
    """Cache hit-rate counters are exposed ring-wide for batched lookups."""
    ring = build_ring(10)
    via = far_gateway(ring, "hot-batch-0")
    client = ChordDhtClient(ring.node(via))
    items = [("hot-batch-0", "a", None)] * 6  # same placement, repeated
    ring.runtime.run(until=ring.runtime.process(client.put_many(items)))
    ring.runtime.run(until=ring.runtime.process(client.put_many(items)))
    stats = ring.route_cache_stats()
    assert stats["hits"] >= 1
    assert stats["hit_fraction"] > 0.0


def test_ring_route_cache_stats_aggregate():
    ring = build_ring(8)
    key = "stats-key"
    via = far_gateway(ring, key)
    ring.lookup(key, via=via)
    ring.lookup(key, via=via)
    stats = ring.route_cache_stats()
    assert stats["hits"] >= 1
    assert 0.0 < stats["hit_fraction"] <= 1.0


# ------------------------------------------------------- partition windows --


def warm_cached_route(ring: ChordRing, key: str):
    """Warm one gateway's cache for ``key``; returns (gateway node, target id).

    The second lookup must already be served from the cache, which the
    regression tests below then subject to a partition window.
    """
    via = far_gateway(ring, key)
    gateway = ring.node(via)
    ring.lookup(key, via=via)
    answer = ring.lookup(key, via=via)
    assert answer.get("cached") is True, "second lookup must hit the cache"
    return gateway, hash_to_id(key, ring.config.bits)


def test_cached_route_not_served_while_owner_partitioned_away():
    """Regression: a cached route must not answer across a partition.

    Before the fix, ``_cached_route`` only checked that the owner was
    *registered* — a partitioned-away owner is registered but unreachable,
    so the gateway kept answering lookups with a peer it could not talk to
    (and the subsequent store/fetch RPC burned a timeout)."""
    ring = build_ring(8)
    key = "partition-window-key"
    gateway, target = warm_cached_route(ring, key)
    # Cut the gateway off from everyone (owner included).
    ring.network.partitions.split([[gateway.address]])
    assert gateway._cached_route(target) is None, (
        "cached route served although the owner is unreachable"
    )


def test_cached_route_learned_before_partition_is_not_served_after_heal():
    """Regression: the fault-window entry is purged, not merely skipped.

    The gateway's side of a partition reorganizes responsibility while the
    entry sits in the cache; an entry that merely *hid* during the window
    would resurface after the heal and misroute until its TTL (5 s in this
    configuration) expired.  Observing the owner unreachable inside the
    window must remove the entry, so the first post-heal lookup goes back
    through the finger chain."""
    ring = build_ring(8)
    key = "post-heal-key"
    gateway, target = warm_cached_route(ring, key)
    ring.network.partitions.split([[gateway.address]])
    assert gateway._cached_route(target) is None  # the fault-window observation
    ring.network.partitions.heal()
    # Well within the TTL: a surviving entry would still be considered fresh.
    assert gateway.route_cache.lookup(target, ring.runtime.now) is None, (
        "pre-partition route survived the heal"
    )
    # The first post-heal lookup cannot be answered from the gateway's own
    # cache (hops 0) any more; it re-routes and lands on the right owner.
    answer = ring.lookup(key, via=gateway.address.name)
    assert answer["hops"] >= 1
    assert answer["node"] == ring.responsible_node(key).ref


def test_unaffected_cached_routes_survive_a_partition_elsewhere():
    """Only routes crossing the partition are purged; same-side entries stay."""
    ring = build_ring(8)
    key = "same-side-key"
    gateway, target = warm_cached_route(ring, key)
    owner = ring.responsible_node(key)
    # Partition some *other* single peer away (neither gateway nor owner).
    bystander = next(
        node for node in ring.live_nodes()
        if node is not gateway and node is not owner
    )
    ring.network.partitions.split([[bystander.address]])
    cached = gateway._cached_route(target)
    assert cached is not None and cached[1] == owner.ref, (
        "a partition not involving the cached owner must not purge the route"
    )
