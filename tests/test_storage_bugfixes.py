"""Regression tests for the storage-layer bugfix batch.

Three bugs, each with the failure mode it used to cause:

1. ``NodeStorage.update`` re-hashed the key on every read-modify-write,
   silently moving salted-family placements (KTS counters, checkpoint
   indexes) to ``hash(key)`` — out of their responsibility interval, so
   churn-driven key transfer stopped moving them.
2. A replayed ownership transfer promoted a replica to owned on *any*
   replay, even when a concurrent takeover had moved the interval
   elsewhere — minting a second owner for the key.  The gate is the node's
   ownership transition (``ChordNode._take``); ``NodeStorage.absorb`` only
   builds the records of what is newer.
3. A hand-off must leave no untracked replica behind: ``rpc_handoff_keys``
   demotes the moving items to backup copies (the old owner is the new
   owner's first successor), and the ring-level custody invariant reports
   any replica held outside its owner's backup set.
"""

import pytest

from repro.chord import ChordConfig, ChordRing, hash_to_id
from repro.chord.storage import NodeStorage, StoredItem
from repro.net import ConstantLatency

BITS = 32


def ring_config(**overrides):
    defaults = dict(
        bits=BITS,
        stabilize_interval=0.2,
        fix_fingers_interval=0.3,
        check_predecessor_interval=0.4,
    )
    defaults.update(overrides)
    return ChordConfig(**defaults)


def make_ring(seed=11, **overrides):
    return ChordRing(
        config=ring_config(**overrides), seed=seed, latency=ConstantLatency(0.002)
    )


# ---------------------------------------------------------------------------
# Bug 1: update() must preserve the stored placement identifier
# ---------------------------------------------------------------------------


def test_update_preserves_salted_placement_id():
    storage = NodeStorage(BITS)
    salted = 0x1234  # a salted-family id, NOT hash_to_id(key)
    storage.put("kts:doc", 5, key_id=salted)
    updated = storage.update("kts:doc", lambda value: value + 1)
    assert updated.value == 6
    assert updated.key_id == salted, "read-modify-write re-hashed the placement"
    assert storage.get("kts:doc").key_id == salted


def test_update_preserves_replica_flag_and_bumps_version():
    storage = NodeStorage(BITS)
    storage.put("k", 1, is_replica=True, key_id=7)
    updated = storage.update("k", lambda value: value + 1)
    assert updated.is_replica is True
    assert updated.version == 2
    assert updated.key_id == 7


def test_update_of_missing_key_defaults_to_hashed_id():
    storage = NodeStorage(BITS)
    created = storage.update("fresh", lambda value: value, default="v")
    assert created.key_id == hash_to_id("fresh", BITS)
    assert created.version == 1


def test_update_accepts_an_explicit_placement_pin():
    storage = NodeStorage(BITS)
    storage.put("k", 1, key_id=100)
    updated = storage.update("k", lambda value: value + 1, key_id=200)
    assert updated.key_id == 200  # explicit pin wins over the stored id


def test_kts_counter_placement_survives_allocation(tmp_path):
    """End to end: the Master's counter stays under ``ht(key)`` across edits."""
    from repro.core import LtrSystem

    system = LtrSystem(seed=5)
    try:
        system.bootstrap(6)
        key = "xwiki:bug1"
        writer = next(
            name for name in system.peer_names() if name != system.master_of(key)
        )
        for index in range(3):
            system.edit_and_commit(writer, key, f"rev {index}")
        master = system.ring.node(system.master_of(key))
        counter = master.storage.get(f"kts:{key}")
        assert counter is not None and counter.value == 3
        assert counter.key_id == system.ht(key)
        assert counter.key_id != hash_to_id(f"kts:{key}", BITS)
    finally:
        system.shutdown()


# ---------------------------------------------------------------------------
# Bug 2: stale ownership replays must not promote replicas blindly
# ---------------------------------------------------------------------------


def seeded_replica(storage, key="k", *, key_id=50, version=5):
    storage.put(key, "held", is_replica=True, key_id=key_id)
    item = storage.get(key)
    item.version = version
    storage.backend.put(item)
    return item


def stale_transfer(key="k", *, key_id=50, version=3):
    return [StoredItem(key=key, value="stale", key_id=key_id, version=version)]


def test_absorb_leaves_a_replayed_copy_to_the_node():
    storage = NodeStorage(BITS)
    seeded_replica(storage)
    absorbed = storage.absorb(stale_transfer())
    assert absorbed == 0  # older version: the payload is not taken
    # Whether the transfer makes the copy owned is the node's decision.
    assert storage.get("k").is_replica is True
    assert storage.get("k").value == "held"


def test_take_refuses_a_copy_outside_the_arc_after_a_concurrent_takeover():
    ring = make_ring(seed=21)
    ring.bootstrap(4)
    node = ring.live_nodes()[0]
    held = seeded_replica(node.storage, key_id=node.predecessor.node_id)
    assert node._take([held]) == []
    assert node.storage.get("k").is_replica is True, (
        "a stale replay minted a second owner despite the takeover gate"
    )
    assert node.storage.get("k").value == "held"


def test_take_promotes_a_copy_the_arc_covers():
    ring = make_ring(seed=21)
    ring.bootstrap(4)
    node = ring.live_nodes()[0]
    held = seeded_replica(node.storage, key_id=node.node_id)
    assert node._take([held]) == [held]
    assert node.storage.get("k").is_replica is False


def test_node_rejects_promotion_for_foreign_interval():
    """A node must not take ownership of an arc a takeover moved elsewhere."""
    ring = make_ring(seed=21)
    ring.bootstrap(4)
    node = ring.live_nodes()[0]
    # An id squarely inside the *predecessor's* arc: not ours.
    foreign = node.predecessor.node_id
    node.storage.put("shared", "held", is_replica=True, key_id=foreign)
    held = node.storage.get("shared")
    held.version = 5
    node.storage.backend.put(held)
    replay = [StoredItem(key="shared", value="stale", key_id=foreign, version=3)]
    node.rpc_receive_items(replay, as_replica=False)
    assert node.storage.get("shared").is_replica is True
    # The same replay promotes when it is the predecessor's graceful
    # hand-over: it announces ownership *before* updating our pointer.
    node.rpc_receive_items(replay, as_replica=False, from_owner=node.predecessor)
    assert node.storage.get("shared").is_replica is False


def test_node_accepts_promotion_for_own_interval():
    ring = make_ring(seed=21)
    ring.bootstrap(4)
    node = ring.live_nodes()[0]
    own = node.node_id  # (predecessor, self] always contains self
    node.storage.put("mine", "held", is_replica=True, key_id=own)
    held = node.storage.get("mine")
    held.version = 5
    node.storage.backend.put(held)
    replay = [StoredItem(key="mine", value="stale", key_id=own, version=3)]
    node.rpc_receive_items(replay, as_replica=False)
    assert node.storage.get("mine").is_replica is False


# ---------------------------------------------------------------------------
# Bug 3: hand-off must not leave untracked replicas behind
# ---------------------------------------------------------------------------


def test_handoff_demotes_transferred_items_to_replicas():
    """The old owner keeps the moving items as backup copies."""
    ring = make_ring(seed=31)
    ring.bootstrap(["a", "b", "c"])
    ring.put("doc", "payload")
    owner = ring.nodes[ring.lookup("doc")["node"].name]
    joiner = ring.create_node("joiner")
    moved = owner.rpc_handoff_keys(joiner.ref)
    if not any(item.key == "doc" for item in moved):
        pytest.skip("joiner id did not split the owner's arc for this seed")
    kept = owner.storage.get("doc")
    assert kept is not None and kept.is_replica is True


def test_custody_invariant_reports_a_planted_stale_copy():
    ring = make_ring(seed=41)
    ring.bootstrap(6)
    ring.put("doc", "payload")
    owner = ring.nodes[ring.lookup("doc")["node"].name]
    live = ring.live_nodes()
    index = next(i for i, node in enumerate(live) if node is owner)
    # Two steps *ahead* of the owner: outside its one-successor backup set.
    outsider = live[(index + 2) % len(live)]
    item = owner.storage.get("doc")
    outsider.storage.put("doc", item.value, is_replica=True, key_id=item.key_id)
    violations = ring.replica_custody_violations()
    assert {"holder": outsider.address.name, "key": "doc",
            "owner": owner.address.name} in violations
