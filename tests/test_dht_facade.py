"""Tests for the DHT client facade (repro.dht) and parallel log retrieval."""

from unittest import mock

import pytest

from repro.chord import ChordConfig, ChordRing, HashFunctionFamily, hash_to_id
from repro.dht import ChordDhtClient
from repro.errors import KeyNotFound, RequestTimeout, UnknownRpcMethod
from repro.net import ConstantLatency
from repro.p2plog import LogEntry, P2PLogClient
from repro.p2plog import log as log_module

BITS = 32


def build_ring(node_count=6, seed=71):
    ring = ChordRing(
        config=ChordConfig(bits=BITS, stabilize_interval=0.2, fix_fingers_interval=0.3,
                           check_predecessor_interval=0.4),
        seed=seed,
        latency=ConstantLatency(0.002),
    )
    ring.bootstrap(node_count)
    return ring


# ---------------------------------------------------------------------------
# ChordDhtClient
# ---------------------------------------------------------------------------


def test_chord_client_put_get_and_hash_key():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    assert client.bits == BITS
    assert client.hash_key("doc") == hash_to_id("doc", BITS)
    assert client.hash_key("doc", salt="ht") == hash_to_id("doc", BITS, salt="ht")
    ring.runtime.run(until=ring.runtime.process(client.put("doc", "value")))
    answer = ring.runtime.run(until=ring.runtime.process(client.get("doc")))
    assert answer["value"] == "value"
    owner = ring.runtime.run(until=ring.runtime.process(client.lookup("doc")))
    assert owner["node"] == ring.responsible_node("doc").ref


def test_chord_client_call_owner_reaches_responsible_peer():
    ring = build_ring()
    # expose a handler on every node so whichever owner is hit can answer
    for node in ring.live_nodes():
        node.rpc.expose("whoami", lambda name=node.address.name: name)
    client = ChordDhtClient(ring.gateway())
    answer = ring.runtime.run(until=ring.runtime.process(client.call_owner("some-key", "whoami")))
    assert answer["result"] == ring.responsible_node("some-key").address.name
    assert answer["owner"] == ring.responsible_node("some-key").ref


def test_chord_client_put_many_groups_items_by_owner():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    items = [(f"bulk-{index}", f"value-{index}", None) for index in range(9)]
    answer = ring.runtime.run(until=ring.runtime.process(client.put_many(items)))
    assert answer["stored"] == [True] * len(items)
    owners = {ring.responsible_node(key).address.name for key, _v, _id in items}
    assert answer["owners"] == len(owners)
    for key, value, _key_id in items:
        fetched = ring.runtime.run(until=ring.runtime.process(client.get(key)))
        assert fetched["value"] == value


def test_chord_client_put_many_replicates_each_group_once():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    items = [(f"repl-{index}", index, None) for index in range(6)]
    ring.runtime.run(until=ring.runtime.process(client.put_many(items)))
    ring.run_for(1.0)  # let the grouped receive_items notifications land
    replicas = sum(
        1 for node in ring.live_nodes()
        for item in node.storage.replica_items()
        if item.key.startswith("repl-")
    )
    assert replicas >= len(items)  # replication degree preserved by store_many


def test_a_batch_never_fails_as_a_whole():
    """One owner goes silent while the asker's route to it is cached: its
    items come back ``False`` / ``None`` in place, every other item is
    stored and read back, and the asker forgets its routes to that owner."""
    quiet = ChordConfig(bits=BITS, stabilize_interval=25.0, fix_fingers_interval=50.0,
                        check_predecessor_interval=50.0, route_cache_ttl=50.0)
    ring = ChordRing(config=quiet, seed=71, latency=ConstantLatency(0.002))
    ring.bootstrap_warm(4)
    asker = ring.gateway()
    client = ChordDhtClient(asker)

    def run(generator):
        return ring.runtime.run(until=ring.runtime.process(generator))

    def routes_to(node):
        return [owner for _arc, owner, _age in asker.route_cache.fresh_routes(ring.runtime.now)
                if owner == node.ref]

    keys = [f"batch-{index}" for index in range(16)]
    assert run(client.put_many([(key, "v1", None) for key in keys]))["stored"] == [True] * 16
    owner_of = {key: ring.responsible_node(key) for key in keys}
    # Neither the asker nor its successor: the asker reaches those without a cached route.
    victim = next(node for node in owner_of.values()
                  if node is not asker and node.ref != asker.successor)
    silent = [owner_of[key] is victim for key in keys]
    assert 0 < sum(silent) < len(keys)
    assert routes_to(victim)
    ring.network.silenced.add(victim.address.name)
    read = run(client.get_many([(key, None) for key in keys]))
    assert read["values"] == [None if gone else "v1" for gone in silent]
    assert not routes_to(victim)

    ring.network.silenced.clear()
    run(client.lookup(keys[silent.index(True)]))
    assert routes_to(victim)
    ring.network.silenced.add(victim.address.name)
    written = run(client.put_many([(key, "v2", None) for key in keys]))
    assert written["stored"] == [not gone for gone in silent]
    assert not routes_to(victim)

    ring.network.silenced.clear()
    reread = run(client.get_many([(key, None) for key in keys]))
    assert reread["values"] == ["v1" if gone else "v2" for gone in silent]


@pytest.mark.parametrize("operation", ["get", "put", "remove", "ring-get"])
def test_a_single_key_operation_forgets_an_owner_that_did_not_answer(operation):
    """Regression: ``get`` / ``put`` / ``remove`` of one key (and the
    ring's own ``get``) route and call like ``call_owner``, so an owner that
    does not answer is purged from the caller's route cache, as a batch
    purges it — not ridden until the route's TTL."""
    quiet = ChordConfig(bits=BITS, stabilize_interval=25.0, fix_fingers_interval=50.0,
                        check_predecessor_interval=50.0, route_cache_ttl=50.0)
    ring = ChordRing(config=quiet, seed=71, latency=ConstantLatency(0.002))
    ring.bootstrap_warm(4)
    asker = ring.gateway()
    client = ChordDhtClient(asker)

    def run(generator):
        return ring.runtime.run(until=ring.runtime.process(generator))

    def routes_to(node):
        return [owner for _arc, owner, _age in asker.route_cache.fresh_routes(ring.runtime.now)
                if owner == node.ref]

    key = next(f"single-{index}" for index in range(64)
               if ring.responsible_node(f"single-{index}") is not asker
               and ring.responsible_node(f"single-{index}").ref != asker.successor)
    victim = ring.responsible_node(key)
    run(client.put(key, "v1"))
    assert routes_to(victim)
    # Every message to the owner is dropped; the network still reports it up.
    ring.network.silenced.add(victim.address.name)
    call = {
        "get": lambda: run(client.get(key)),
        "put": lambda: run(client.put(key, "v2")),
        "remove": lambda: run(client.remove(key)),
        "ring-get": lambda: ring.get(key, via=asker.address.name),
    }[operation]
    with pytest.raises(RequestTimeout):
        call()
    assert not routes_to(victim)


def test_chord_client_remove_round_trip():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    ring.runtime.run(until=ring.runtime.process(client.put("gone", 1)))
    removed = ring.runtime.run(until=ring.runtime.process(client.remove("gone")))
    assert removed["removed"] is True


def test_chord_client_get_after_remove_raises_key_not_found():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    ring.runtime.run(until=ring.runtime.process(client.put("gone", 1)))
    ring.runtime.run(until=ring.runtime.process(client.remove("gone")))
    with pytest.raises(KeyNotFound):
        ring.runtime.run(until=ring.runtime.process(client.get("gone")))
    owner = ring.responsible_node("gone")
    assert "gone" not in {item.key for item in owner.storage.owned_items()}


def test_chord_client_call_owner_of_an_unexposed_method_raises():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    with pytest.raises(UnknownRpcMethod):
        ring.runtime.run(until=ring.runtime.process(client.call_owner("any", "missing")))


def test_chord_client_lookup_by_key_id_routes_that_identifier():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    identifier = client.hash_key("doc", salt="ht")
    answer = ring.runtime.run(until=ring.runtime.process(
        client.lookup("ignored", key_id=identifier)))
    assert answer["node"] == ring.responsible_node_for_id(identifier).ref


def test_chord_client_empty_batches_send_nothing():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    sent = ring.network.stats.sent
    written = ring.runtime.run(until=ring.runtime.process(client.put_many([])))
    read = ring.runtime.run(until=ring.runtime.process(client.get_many([])))
    assert written == {"stored": [], "owners": 0, "hops": 0}
    assert read == {"values": [], "owners": 0, "hops": 0}
    assert ring.network.stats.sent == sent


def test_chord_client_get_many_answers_in_item_order():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    keys = [f"read-{index}" for index in range(8)]
    ring.runtime.run(until=ring.runtime.process(
        client.put_many([(key, key.upper(), None) for key in keys])))
    items = [(key, None) for key in reversed(keys)]
    items.insert(3, ("never-written", None))
    items.append((keys[0], client.hash_key(keys[0])))  # a caller-supplied identifier
    answer = ring.runtime.run(until=ring.runtime.process(client.get_many(items)))
    assert answer["values"] == [None if key == "never-written" else key.upper()
                                for key, _key_id in items]
    assert answer["owners"] == len({ring.responsible_node(key).ref for key, _ in items})


def test_group_by_owner_puts_each_item_in_its_owners_group_once():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    items = [(f"group-{index}", None) for index in range(12)]
    groups, hops = ring.runtime.run(until=ring.runtime.process(client._group_by_owner(items)))
    assert sorted(index for indexes in groups.values() for index in indexes) == list(range(12))
    for owner, indexes in groups.items():
        assert indexes == sorted(indexes)
        assert all(ring.responsible_node(items[index][0]).ref == owner for index in indexes)
    assert hops >= 0


# ---------------------------------------------------------------------------
# the retrieval window (P2P-Log)
# ---------------------------------------------------------------------------


def _publish_entries(runtime, log, count):
    entries = [LogEntry(document_key="doc", ts=ts, patch=f"patch-{ts}")
               for ts in range(1, count + 1)]
    runtime.run(until=runtime.process(log.append_many(entries)))


def test_parallel_fetch_range_matches_sequential_order():
    ring = ChordRing(config=ChordConfig(bits=BITS), seed=71, latency=ConstantLatency(0.002))
    ring.bootstrap_warm(3)
    dht = ChordDhtClient(ring.gateway())
    family = HashFunctionFamily.create(2, bits=BITS)
    log = P2PLogClient(dht, family)
    _publish_entries(ring.runtime, log, 6)
    with mock.patch.object(log_module, "MAX_PARALLEL", 1):
        sequential = ring.runtime.run(until=ring.runtime.process(log.fetch_range("doc", 1, 6)))
    parallel = ring.runtime.run(until=ring.runtime.process(log.fetch_range("doc", 1, 6)))
    assert parallel == sequential
    assert [entry.ts for entry in parallel] == [1, 2, 3, 4, 5, 6]


def test_parallel_fetch_range_is_faster_over_the_ring():
    ring = build_ring(node_count=8, seed=73)
    family = HashFunctionFamily.create(2, bits=BITS)
    log = P2PLogClient(ChordDhtClient(ring.gateway()), family)
    _publish_entries(ring.runtime, log, 8)

    start = ring.runtime.now
    with mock.patch.object(log_module, "MAX_PARALLEL", 1):
        ring.runtime.run(until=ring.runtime.process(log.fetch_range("doc", 1, 8)))
    sequential_time = ring.runtime.now - start

    start = ring.runtime.now
    ring.runtime.run(until=ring.runtime.process(log.fetch_range("doc", 1, 8)))
    parallel_time = ring.runtime.now - start

    assert parallel_time < sequential_time
