"""Ownership changes in one place.

Every change to an item's ownership on a node goes through one transition,
``ChordNode._take`` / ``ChordNode._release``, and each fires the one service
hook, ``NodeService.on_ownership_moved``, with the items it moved.  One case
per path that moves ownership, each checked on both sides of its transfer:

* ``crash`` — the successor promotes the replicas it held for the crashed
  Master (the crashed side runs nothing);
* ``join`` — the Master hands the joiner its arc and keeps replica copies;
  the joiner absorbs them owned;
* ``join-rf1`` — the same at replication factor 1: the Master keeps nothing;
* ``leave`` — the Master hands everything it owns to its successor;
* ``repair`` — the joiner's hand-off is lost, so the old Master goes on
  owning the counter as a stand-in until its misplacement repair forwards
  it; the joiner absorbs it owned and the stand-in keeps a replica copy.

Each case asserts that the hook fired once per side for the counter, with
the items that changed hands there; that the flag reached the node's
database; and that the counter's old Master holds a fresh tenure.
"""

from dataclasses import replace

import pytest

from test_core_master import find_takeover_joiner

from repro.chord import ChordConfig, ChordRing
from repro.core import LtrConfig, LtrSystem
from repro.core.master import MasterService
from repro.core.system import DEFAULT_CHORD_CONFIG
from repro.kts.authority import COUNTER_PREFIX
from repro.net import ConstantLatency
from repro.storage.sqlite import SqliteBackend

KEY = "xwiki:ownership"
COUNTER = f"{COUNTER_PREFIX}{KEY}"


@pytest.fixture
def hook_calls(monkeypatch):
    """``(node name, moved keys)`` for every call of the Master's hook."""
    calls = []
    original = MasterService.on_ownership_moved

    def recording(service, items):
        calls.append((service.node.address.name, [item.key for item in items]))
        original(service, items)

    monkeypatch.setattr(MasterService, "on_ownership_moved", recording)
    return calls


def owned(node) -> set[str]:
    return {item.key for item in node.storage.owned_items()}


def flag_on_disk(node, key):
    """``is_replica`` as a restart would load it; ``None`` when not stored."""
    backend = SqliteBackend(node.storage.backend.path)
    try:
        item = backend.get(key)
    finally:
        backend.close()
    return None if item is None else item.is_replica


def tenure(node):
    queue = node.service("ltr-master")._documents.get(KEY)
    return None if queue is None else queue.tenure


def is_fresh(current) -> bool:
    return current is None or (
        current.tail.entries == [] and current.warmed_ts == 0 and current.view is None
    )


def crash(system, master):
    taker = system.ring.node(master.successor.name)
    system.crash(master.address.name)
    return None, taker


def join(system, master):
    name = find_takeover_joiner(system, KEY)
    system.add_peer(name)
    return master, system.ring.node(name)


def leave(system, master):
    taker = system.ring.node(master.successor.name)
    system.leave(master.address.name)
    return master, taker


def repair(system, master):
    master.rpc.expose("handoff_keys", lambda requester: [])  # the hand-off is lost
    return join(system, master)


PATHS = {
    "crash": (crash, 2),
    "join": (join, 2),
    "join-rf1": (join, 1),
    "leave": (leave, 2),
    "repair": (repair, 2),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_each_path_moves_ownership_through_the_one_transition(path, hook_calls, tmp_path):
    move, replication_factor = PATHS[path]
    system = LtrSystem(
        ltr_config=LtrConfig(storage_backend="sqlite", storage_dir=str(tmp_path)),
        chord_config=replace(DEFAULT_CHORD_CONFIG, replication_factor=replication_factor),
        seed=7,
        latency=ConstantLatency(0.005),
    )
    try:
        system.bootstrap(8)
        master = system.ring.node(system.master_of(KEY))
        writer = next(name for name in system.peer_names() if name != master.address.name)
        for revision in range(3):
            system.edit_and_commit(writer, KEY, f"revision {revision}")
        system.run_for(2.0)  # the replicas reach the successors
        assert not is_fresh(tenure(master))
        before = {name: owned(node) for name, node in system.ring.nodes.items()}
        del hook_calls[:]

        giver, taker = move(system, master)
        system.run_for(3.0)

        sides = [(taker, owned(taker) - before.get(taker.address.name, set()), False)]
        if giver is not None:
            kept = None if replication_factor == 1 else True
            sides.append((giver, before[giver.address.name] - owned(giver), kept))
        for node, moved, flag in sides:
            calls = [keys for name, keys in hook_calls if name == node.address.name]
            assert len([keys for keys in calls if COUNTER in keys]) == 1, calls
            assert {key for keys in calls for key in keys} == moved
            assert flag_on_disk(node, COUNTER) is flag
        assert system.master_of(KEY) == taker.address.name
        assert is_fresh(tenure(taker))
        if giver is not None:  # a crashed Master runs nothing
            assert is_fresh(tenure(giver))
    finally:
        system.shutdown()


def test_a_repair_releases_only_what_the_receiver_took():
    """A stand-in owns an item outside its arc, and the peer its lookup names
    holds a replica of it but, by its own predecessor pointer, is not
    responsible, so it keeps its copy a replica and answers that it took
    nothing.  The stand-in must go on owning the item: releasing it too left
    only replica copies, and no read ever found the entry again (seeds 88,
    104, 115, 162 and 187 of the loss-burst sweep lost an acknowledged edit
    that way on a stable ring)."""
    ring = ChordRing(
        config=ChordConfig(bits=32, successor_list_size=4, replication_factor=2),
        seed=11,
        latency=ConstantLatency(0.002),
    )
    ring.bootstrap(4)
    stand_in, after, owner, holder = sorted(ring.live_nodes(), key=lambda node: node.node_id)
    key_id = owner.node_id  # in the owner's arc, outside the stand-in's
    stand_in.storage.put("doc", "payload", key_id=key_id)
    holder.storage.put("doc", "payload", key_id=key_id, is_replica=True)
    # The stand-in's route to the item is stale and names the holder.
    stand_in.route_cache.store((after.node_id, owner.node_id), holder.ref, ring.runtime.now)
    ring.runtime.run(until=ring.runtime.process(stand_in._repair_misplaced_items()))
    owners = [
        node.address.name for node in ring.live_nodes()
        if (held := node.storage.get("doc")) is not None and not held.is_replica
    ]
    assert owners == [stand_in.address.name]
    assert holder.storage.get("doc").is_replica
