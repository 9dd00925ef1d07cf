"""Tests for the DHT client facade (repro.dht) and parallel log retrieval."""

import pytest

from repro.chord import ChordConfig, ChordRing, HashFunctionFamily, hash_to_id
from repro.dht import ChordDhtClient, LocalDht
from repro.errors import KeyNotFound
from repro.net import ConstantLatency
from repro.p2plog import LogEntry, P2PLogClient
from repro.sim import Simulator

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
# LocalDht
# ---------------------------------------------------------------------------


def test_local_dht_put_get_remove_cycle():
    sim = Simulator()
    dht = LocalDht(sim)
    sim.run(until=sim.process(dht.put("k", 41)))
    answer = sim.run(until=sim.process(dht.get("k")))
    assert answer["value"] == 41 and answer["hops"] == 0
    assert "k" in dht and len(dht) == 1
    removed = sim.run(until=sim.process(dht.remove("k")))
    assert removed["removed"] is True
    with pytest.raises(KeyNotFound):
        sim.run(until=sim.process(dht.get("k")))
    assert dht.snapshot() == {}


def test_local_dht_operation_delay_advances_clock():
    sim = Simulator()
    dht = LocalDht(sim, operation_delay=0.25)
    sim.run(until=sim.process(dht.put("k", 1)))
    sim.run(until=sim.process(dht.get("k")))
    assert sim.now == pytest.approx(0.5)
    assert dht.operations == 2


def test_local_dht_call_owner_uses_registered_handlers():
    sim = Simulator()
    dht = LocalDht(sim)
    dht.expose("ping", lambda value: value * 2)
    answer = sim.run(until=sim.process(dht.call_owner("any", "ping", value=4)))
    assert answer["result"] == 8
    with pytest.raises(KeyNotFound):
        sim.run(until=sim.process(dht.call_owner("any", "missing")))


def test_local_dht_lookup_reports_itself():
    sim = Simulator()
    dht = LocalDht(sim, name="the-reconciler")
    answer = sim.run(until=sim.process(dht.lookup("whatever")))
    assert answer["node"] == "the-reconciler"


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


def test_local_dht_put_many_default_loops_over_put():
    sim = Simulator()
    dht = LocalDht(sim)
    answer = sim.run(until=sim.process(dht.put_many([
        ("a", 1, None), ("b", 2, None), ("c", 3, None),
    ])))
    assert answer["stored"] == [True, True, True]
    assert dht.snapshot() == {"a": 1, "b": 2, "c": 3}
    empty = sim.run(until=sim.process(dht.put_many([])))
    assert empty == {"stored": [], "owners": 0, "hops": 0}


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


def test_chord_client_remove_round_trip():
    ring = build_ring()
    client = ChordDhtClient(ring.gateway())
    ring.runtime.run(until=ring.runtime.process(client.put("gone", 1)))
    removed = ring.runtime.run(until=ring.runtime.process(client.remove("gone")))
    assert removed["removed"] is True


# ---------------------------------------------------------------------------
# the retrieval window (P2P-Log)
# ---------------------------------------------------------------------------


def _publish_entries(sim, log, count):
    entries = [LogEntry(document_key="doc", ts=ts, patch=f"patch-{ts}")
               for ts in range(1, count + 1)]
    sim.run(until=sim.process(log.append_many(entries)))


def test_parallel_fetch_range_matches_sequential_order():
    sim = Simulator()
    dht = LocalDht(sim)
    family = HashFunctionFamily.create(2, bits=BITS)
    log = P2PLogClient(dht, family)
    _publish_entries(sim, log, 6)
    one_at_a_time = P2PLogClient(dht, family, max_parallel=1)
    sequential = sim.run(until=sim.process(one_at_a_time.fetch_range("doc", 1, 6)))
    parallel = sim.run(until=sim.process(log.fetch_range("doc", 1, 6)))
    assert parallel == sequential
    assert [entry.ts for entry in parallel] == [1, 2, 3, 4, 5, 6]


def test_parallel_fetch_range_is_faster_over_the_ring():
    ring = build_ring(node_count=8, seed=73)
    family = HashFunctionFamily.create(2, bits=BITS)
    log = P2PLogClient(ChordDhtClient(ring.gateway()), family)
    one_at_a_time = P2PLogClient(ChordDhtClient(ring.gateway()), family, max_parallel=1)
    _publish_entries(ring.runtime, log, 8)

    start = ring.runtime.now
    ring.runtime.run(until=ring.runtime.process(one_at_a_time.fetch_range("doc", 1, 8)))
    sequential_time = ring.runtime.now - start

    start = ring.runtime.now
    ring.runtime.run(until=ring.runtime.process(log.fetch_range("doc", 1, 8)))
    parallel_time = ring.runtime.now - start

    assert parallel_time < sequential_time
