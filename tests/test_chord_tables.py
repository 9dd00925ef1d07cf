"""Unit tests for finger tables, successor lists and node storage."""

import pytest

from repro.chord import FingerTable, NodeRef, NodeStorage, SuccessorList
from repro.chord.storage import StoredItem
from repro.net import Address


def ref(name: str, node_id: int) -> NodeRef:
    return NodeRef(node_id, Address(name))


# ---------------------------------------------------------------------------
# FingerTable
# ---------------------------------------------------------------------------


def test_finger_table_starts_empty():
    table = FingerTable(node_id=10, bits=8)
    assert len(table) == 8
    assert all(entry is None for entry in table)
    assert table.known_nodes() == []


def test_finger_table_rejects_invalid_bits():
    with pytest.raises(ValueError):
        FingerTable(0, 0)


def test_finger_start_progression():
    table = FingerTable(node_id=10, bits=8)
    assert table.start(0) == 11
    assert table.start(3) == 18
    assert table.start(7) == (10 + 128) % 256


def test_finger_update_and_bounds():
    table = FingerTable(node_id=10, bits=8)
    node = ref("a", 50)
    table.update(2, node)
    assert table.get(2) == node
    with pytest.raises(ValueError):
        table.update(8, node)


def test_closest_preceding_picks_farthest_qualifying_finger():
    table = FingerTable(node_id=10, bits=8)
    table.update(0, ref("near", 12))
    table.update(5, ref("mid", 60))
    table.update(7, ref("far", 200))
    # target 100: far (200) is not in (10, 100); mid (60) is
    assert table.closest_preceding(100).node_id == 60
    # target 250: far (200) is in (10, 250)
    assert table.closest_preceding(250).node_id == 200


def test_closest_preceding_respects_exclusions():
    table = FingerTable(node_id=10, bits=8)
    mid = ref("mid", 60)
    near = ref("near", 12)
    table.update(5, mid)
    table.update(0, near)
    assert table.closest_preceding(100) == mid
    assert table.closest_preceding(100, exclude={mid}) == near


def test_remove_node_clears_all_matching_entries():
    table = FingerTable(node_id=10, bits=8)
    node = ref("a", 50)
    table.update(1, node)
    table.update(4, node)
    assert table.remove_node(node) == 2
    assert table.get(1) is None and table.get(4) is None


def test_fill_with_and_known_nodes_dedup():
    table = FingerTable(node_id=10, bits=8)
    node = ref("a", 50)
    table.fill_with(node)
    assert table.known_nodes() == [node]


def test_replace_sets_every_finger_and_checks_the_count():
    table = FingerTable(node_id=10, bits=4)
    a, b = ref("a", 11), ref("b", 50)
    table.replace([a, a, a, b])
    assert list(table) == [a, a, a, b]
    with pytest.raises(ValueError):
        table.replace([a, b])
    assert list(table) == [a, a, a, b]


# ---------------------------------------------------------------------------
# SuccessorList
# ---------------------------------------------------------------------------


def test_successor_list_requires_capacity():
    with pytest.raises(ValueError):
        SuccessorList(owner_id=1, capacity=0)


def test_successor_list_replace_dedup_and_trim():
    successors = SuccessorList(owner_id=1, capacity=2)
    a, b, c = ref("a", 10), ref("b", 20), ref("c", 30)
    successors.replace([a, a, b, c])
    assert successors.entries() == [a, b]
    assert successors.head == a
    assert successors.second() == b
    assert len(successors) == 2
    assert a in successors


def test_successor_list_adopt_excludes_self_and_duplicate_head():
    successors = SuccessorList(owner_id=1, capacity=3)
    me = ref("me", 1)
    succ, other = ref("s", 10), ref("o", 20)
    successors.adopt(succ, [succ, me, other])
    assert successors.entries() == [succ, other]


def test_successor_list_remove_and_promote():
    successors = SuccessorList(owner_id=1, capacity=3)
    a, b = ref("a", 10), ref("b", 20)
    successors.replace([a, b])
    assert successors.promote_next() == b
    assert successors.entries() == [b]
    successors.remove(b)
    assert successors.head is None
    assert successors.promote_next() is None


# ---------------------------------------------------------------------------
# NodeStorage
# ---------------------------------------------------------------------------


def test_storage_put_get_remove_roundtrip():
    storage = NodeStorage(bits=16)
    storage.put("k1", "v1", now=1.0)
    assert "k1" in storage
    assert storage.value("k1") == "v1"
    assert storage.get("k1").version == 1
    assert storage.remove("k1")
    assert not storage.remove("k1")
    assert storage.value("k1", default="missing") == "missing"


def test_storage_versions_increment_on_overwrite():
    storage = NodeStorage(bits=16)
    storage.put("k", 1)
    storage.put("k", 2)
    assert storage.get("k").version == 2
    assert storage.value("k") == 2


def test_storage_update_read_modify_write():
    storage = NodeStorage(bits=16)
    storage.update("counter", lambda current: (current or 0) + 1, default=0)
    storage.update("counter", lambda current: current + 1)
    assert storage.value("counter") == 2


def test_storage_owned_vs_replica_classification():
    storage = NodeStorage(bits=16)
    storage.put("owned", 1)
    storage.put("replica", 2, is_replica=True)
    assert [item.key for item in storage.owned_items()] == ["owned"]
    assert [item.key for item in storage.replica_items()] == ["replica"]
    assert len(storage) == 2
    assert sorted(storage.keys()) == ["owned", "replica"]


def test_storage_write_keeps_the_position_of_a_held_key():
    storage = NodeStorage(bits=16)
    storage.put("a", 1, is_replica=True)
    storage.put("b", 2, is_replica=True)
    item = storage.get("a")
    item.is_replica = False
    storage.write(item)
    assert not storage.get("a").is_replica
    assert storage.get("b").is_replica
    assert storage.get("a").version == 1  # the same data, owned now
    assert storage.keys() == ["a", "b"]
    # A record taken out of the store goes to the back when written back.
    storage.remove("a")
    storage.write(item)
    assert storage.keys() == ["b", "a"]


def test_storage_interval_extraction_with_explicit_ids():
    storage = NodeStorage(bits=8)
    storage.put("low", "L", key_id=10)
    storage.put("mid", "M", key_id=100)
    storage.put("high", "H", key_id=200)
    moving = storage.extract_interval(50, 150)
    assert [item.key for item in moving] == ["mid"]
    assert "mid" not in storage
    # wrap-around interval (150, 50]
    moving = storage.extract_interval(150, 50)
    assert sorted(item.key for item in moving) == ["high", "low"]


def test_storage_interval_excludes_replicas_by_default():
    storage = NodeStorage(bits=8)
    storage.put("a", 1, key_id=10, is_replica=True)
    assert storage.items_in_interval(0, 100) == []
    assert len(storage.items_in_interval(0, 100, include_replicas=True)) == 1


def test_storage_absorb_is_idempotent_and_version_aware():
    source = NodeStorage(bits=8)
    item = source.put("k", "new-value", key_id=5)
    destination = NodeStorage(bits=8)
    destination.put("k", "old-value", key_id=5)  # version 1, same as incoming
    absorbed = destination.absorb([item])
    assert absorbed == 0  # same version: keep existing
    newer = StoredItem(key="k", value="newer", key_id=5, version=7)
    assert destination.absorb([newer]) == 1
    assert destination.value("k") == "newer"
    # replaying the same transfer changes nothing
    assert destination.absorb([newer]) == 0


def test_storage_absorb_leaves_the_flag_of_an_entry_it_does_not_replace():
    destination = NodeStorage(bits=8)
    destination.put("k", "value", key_id=5, is_replica=True)
    same_version = StoredItem(key="k", value="value", key_id=5, version=1)
    destination.absorb([same_version], as_replica=False)
    # Promotion is the node's ownership transition, not the store's.
    assert destination.get("k").is_replica
    newer = StoredItem(key="k", value="newer", key_id=5, version=2)
    destination.absorb([newer], as_replica=False)
    assert not destination.get("k").is_replica


def test_storage_snapshot():
    storage = NodeStorage(bits=8)
    storage.put("a", 1)
    storage.put("b", 2)
    assert storage.snapshot() == {"a": 1, "b": 2}
