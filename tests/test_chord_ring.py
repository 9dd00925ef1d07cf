"""Integration tests for the Chord ring: joins, lookups, storage, churn."""

import pytest

from repro.chord import ChordConfig, ChordRing, hash_to_id
from repro.chord import node as node_module
from repro.errors import ConfigurationError, DhtError, KeyNotFound, LookupFailed, NodeNotJoined
from repro.net import ConstantLatency, Network
from repro.sim import Simulator


BITS = 32


def small_config(**overrides):
    defaults = dict(
        bits=BITS,
        stabilize_interval=0.2,
        fix_fingers_interval=0.3,
        check_predecessor_interval=0.4,
    )
    defaults.update(overrides)
    return ChordConfig(**defaults)


@pytest.fixture
def ring():
    return ChordRing(config=small_config(), seed=11, latency=ConstantLatency(0.002))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChordConfig(bits=0)
    with pytest.raises(ConfigurationError):
        ChordConfig(stabilize_interval=0)


# ---------------------------------------------------------------------------
# ring formation
# ---------------------------------------------------------------------------


def test_single_node_ring_is_stable(ring):
    ring.bootstrap(["solo"])
    node = ring.node("solo")
    assert node.alive
    assert node.successor == node.ref
    assert ring.is_stable()


def test_bootstrap_small_ring_converges(ring):
    ring.bootstrap(8)
    assert ring.is_stable()
    order = ring.ring_order()
    assert len(order) == 8
    # successor pointers follow identifier order
    live = ring.live_nodes()
    for index, node in enumerate(live):
        assert node.successor == live[(index + 1) % len(live)].ref
        assert node.predecessor == live[(index - 1) % len(live)].ref


def test_bootstrap_requires_names(ring):
    with pytest.raises(DhtError):
        ring.bootstrap([])


def test_duplicate_node_name_rejected(ring):
    ring.bootstrap(["a"])
    with pytest.raises(DhtError):
        ring.create_node("a")


def test_bootstrap_rejects_peers_sharing_an_identifier():
    # 9 peers on a 3-bit ring: peer-2, peer-3 and peer-7 all hash to 7.
    assert {hash_to_id(f"peer-{index}", 3) for index in (2, 3, 7)} == {7}
    ring = ChordRing(seed=1, config=ChordConfig(bits=3))
    with pytest.raises(DhtError, match="share a ring identifier") as raised:
        ring.bootstrap(9, stabilize_time=50.0)
    assert "peer-2 and peer-3 at 7; peer-2 and peer-7 at 7" in str(raised.value)
    assert not ring.nodes  # refused before any node was created or joined


def test_add_node_rejects_the_identifier_of_a_live_node():
    ring = ChordRing(seed=1, config=small_config(bits=3))
    ring.bootstrap(["peer-0", "peer-2"])
    with pytest.raises(DhtError, match="peer-2 and peer-3 at 7"):
        ring.add_node("peer-3")
    assert "peer-3" not in ring.nodes and ring.ring_order() == ["peer-0", "peer-2"]
    # Only a live holder blocks the identifier: once peer-2 is gone it is free.
    ring.crash("peer-2")
    ring.add_node("peer-3")
    assert ring.ring_order() == ["peer-0", "peer-3"] and ring.is_stable()


def test_unknown_node_access_raises(ring):
    with pytest.raises(DhtError):
        ring.node("ghost")


def test_gateway_requires_live_nodes(ring):
    with pytest.raises(DhtError):
        ring.gateway()


# ---------------------------------------------------------------------------
# lookups
# ---------------------------------------------------------------------------


def test_lookup_routes_to_ground_truth_owner(ring):
    ring.bootstrap(12)
    for index in range(30):
        key = f"document-{index}"
        expected = ring.responsible_node(key)
        answer = ring.lookup(key)
        assert answer["node"] == expected.ref, key


def test_lookup_from_every_gateway_agrees(ring):
    ring.bootstrap(6)
    key = "shared-document"
    owners = {ring.lookup(key, via=name)["node"] for name in ring.ring_order()}
    assert len(owners) == 1


def test_lookup_hop_count_bounded(ring):
    ring.bootstrap(16)
    ring.run_for(20)  # let fix_fingers populate tables
    for index in range(20):
        answer = ring.lookup(f"key-{index}")
        assert answer["hops"] <= 16


def test_lookup_past_the_hop_bound_fails_instead_of_looping(ring, monkeypatch):
    ring.bootstrap(12)
    ring.run_for(20)
    ring.clear_route_caches()
    key = next(f"far-{index}" for index in range(1000)
               if ring.lookup(f"far-{index}")["hops"] >= 1)
    ring.clear_route_caches()
    monkeypatch.setattr(node_module, "MAX_LOOKUP_HOPS", 0)
    with pytest.raises(LookupFailed, match="exceeded 0 hops"):
        ring.lookup(key)
    # A lookup the gateway answers from its own arc takes no hop at all.
    gateway = ring.gateway()
    own = ring.runtime.run(until=ring.runtime.process(
        gateway.find_successor((gateway.node_id + 1) % 2 ** BITS)))
    assert own["node"] == gateway.successor and own["hops"] == 0


def test_lookup_on_dead_node_raises(ring):
    ring.bootstrap(["a", "b"])
    node = ring.node("a")
    node.fail()
    with pytest.raises(NodeNotJoined):
        ring.runtime.run(until=ring.runtime.process(node.lookup("x")))


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


def test_put_get_roundtrip(ring):
    ring.bootstrap(8)
    ring.put("wiki:home", {"content": "hello"})
    answer = ring.get("wiki:home")
    assert answer["value"] == {"content": "hello"}


def test_put_stores_at_responsible_node_with_replica(ring):
    ring.bootstrap(8)
    result = ring.put("wiki:page", "payload")
    owner_name = result["owner"].name
    owner = ring.node(owner_name)
    assert owner.storage.value("wiki:page") == "payload"
    ring.run_for(1)  # let the replication one-way message arrive
    holders = [
        node.address.name
        for node in ring.live_nodes()
        if "wiki:page" in node.storage
    ]
    assert len(holders) >= 2  # owner + at least one successor replica


def test_get_missing_key_raises(ring):
    ring.bootstrap(4)
    with pytest.raises(KeyNotFound):
        ring.get("missing-key")


def test_remove_key(ring):
    ring.bootstrap(4)
    ring.put("to-delete", 1)
    gateway = ring.gateway()
    result = ring.runtime.run(until=ring.runtime.process(gateway.remove("to-delete")))
    assert result["removed"] is True
    with pytest.raises(KeyNotFound):
        ring.get("to-delete")


def test_put_with_explicit_key_id_places_by_id(ring):
    ring.bootstrap(8)
    key_id = hash_to_id("placement", BITS, salt="hr1")
    result = ring.put("hr1:placement", "value")
    # explicit id placement must agree with the ground truth for that id
    explicit = ring.runtime.run(
        until=ring.runtime.process(ring.gateway().put("hr1:placement", "value2", key_id=key_id))
    )
    assert explicit["owner"] == ring.responsible_node_for_id(key_id).ref
    assert result["stored"] and explicit["stored"]


# ---------------------------------------------------------------------------
# churn: joins
# ---------------------------------------------------------------------------


def test_new_node_receives_keys_it_is_responsible_for(ring):
    ring.bootstrap(6)
    keys = [f"doc-{index}" for index in range(40)]
    for key in keys:
        ring.put(key, f"value-{key}")
    new_node = ring.add_node("newcomer")
    assert ring.is_stable()
    # every key the newcomer is now responsible for must be present locally
    for key in keys:
        if ring.responsible_node(key) is new_node:
            assert new_node.storage.value(key) == f"value-{key}"
    # and all keys must still be retrievable through the DHT
    for key in keys:
        assert ring.get(key)["value"] == f"value-{key}"


def test_join_then_ring_order_contains_new_node(ring):
    ring.bootstrap(5)
    ring.add_node("late-arrival")
    assert "late-arrival" in ring.ring_order()
    assert len(ring.ring_order()) == 6


# ---------------------------------------------------------------------------
# churn: departures and failures
# ---------------------------------------------------------------------------


def test_graceful_leave_hands_keys_to_successor(ring):
    ring.bootstrap(6)
    keys = [f"doc-{index}" for index in range(30)]
    for key in keys:
        ring.put(key, key.upper())
    victim_name = ring.ring_order()[2]
    ring.leave(victim_name)
    assert victim_name not in ring.ring_order()
    assert ring.is_stable()
    for key in keys:
        assert ring.get(key)["value"] == key.upper()


def test_crash_recovers_via_successor_replicas(ring):
    ring.bootstrap(8)
    keys = [f"doc-{index}" for index in range(30)]
    for key in keys:
        ring.put(key, key.upper())
    ring.run_for(2)  # replicas propagate
    victim_name = ring.ring_order()[3]
    ring.crash(victim_name)
    assert ring.wait_until_stable(max_time=60)
    assert victim_name not in ring.ring_order()
    recovered = 0
    for key in keys:
        try:
            value = ring.get(key)["value"]
        except KeyNotFound:
            continue
        assert value == key.upper()
        recovered += 1
    # with a replica on the successor a single crash loses nothing
    assert recovered == len(keys)


def test_ring_survives_multiple_sequential_failures(ring):
    ring.bootstrap(10)
    for victim in list(ring.ring_order())[:3]:
        ring.crash(victim)
        assert ring.wait_until_stable(max_time=90)
    assert len(ring.ring_order()) == 7
    ring.put("after-churn", 1)
    assert ring.get("after-churn")["value"] == 1


def test_leave_last_but_one_node_keeps_single_node_ring(ring):
    ring.bootstrap(["a", "b"])
    ring.leave("b")
    assert ring.ring_order() == ["a"] or len(ring.ring_order()) == 1
    survivor = ring.live_nodes()[0]
    assert survivor.successor == survivor.ref or survivor.successor is None


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_summary_reports_all_live_nodes(ring):
    ring.bootstrap(4)
    summary = ring.summary()
    assert len(summary) == 4
    assert all(entry["alive"] for entry in summary)
    assert all("successor" in entry for entry in summary)


def test_responsibility_interval_and_is_responsible(ring):
    ring.bootstrap(5)
    for key in [f"k-{i}" for i in range(20)]:
        owner = ring.responsible_node(key)
        assert owner.is_responsible_for(hash_to_id(key, BITS))


def test_total_stored_items_counts_replicas(ring):
    ring.bootstrap(5)
    ring.put("a", 1)
    ring.run_for(1)
    assert ring.total_stored_items() >= 2


def test_restart_after_fail_requires_rejoin(ring):
    ring.bootstrap(["a", "b", "c"])
    node = ring.node("b")
    node.fail()
    ring.wait_until_stable(max_time=60)
    node.restart()
    assert not node.alive  # restart only reconnects the transport
    ring.runtime.run(until=ring.runtime.process(node.join(ring.node("a").address)))
    ring.wait_until_stable(max_time=60)
    assert "b" in ring.ring_order()
