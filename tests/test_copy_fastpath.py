"""The ``copy_payload`` fast path: equivalence and mutation-severing.

The simulated network's default wire fidelity applies a structural copy to
every delivered payload (:func:`repro.net.codec.copy_payload`).  For speed
it takes shortcuts — immutable leaves (atomics plus registered wire types
declared immutable) are shared by reference, and immutable containers whose
items all copied to themselves are shared too.  Those shortcuts are only
legal while two properties hold, and this suite pins both for **every
registered wire type**:

* *equivalence*: the fast copy is observationally identical to the full
  serialize/deserialize cycle (``decode(encode(x))``), which is what a real
  wire would do;
* *mutation severing*: after a copy, mutating any mutable part of the
  original is invisible through the copy (and vice versa) — receivers can
  never alias a sender's state.

A completeness check walks the live registry so a layer cannot register a
new wire type without adding coverage here.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord import NodeRef
from repro.core import LtrConfig, LtrSystem
from repro.net import Address, ErrorEnvelope, Message, MessageKind
from repro.net.codec import (
    _IMMUTABLE_LEAVES,  # noqa: PLC2701 - the fast path under test
    copy_message,
    copy_payload,
    decode,
    encode,
    registered_wire_tags,
)
from repro.ot import DeleteLine, InsertLine, NoOp, Patch
from repro.p2plog import Checkpoint, LogEntry
from repro.storage import StoredItem

# Deterministic in CI (same convention as tests/test_codec.py).
SEEDED = settings(max_examples=60, derandomize=True, deadline=None)

names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=0, max_size=12,
)
ring_ids = st.integers(min_value=0, max_value=2**160 - 1)
timestamps = st.integers(min_value=0, max_value=2**40)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: A log entry's or checkpoint's ``sig``: unsigned, or an HMAC-SHA256 hex digest.
signatures = st.none() | st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
scalars = st.one_of(st.none(), st.booleans(), names, floats, timestamps)

addresses = st.builds(Address, name=names.filter(bool), site=names.filter(bool))
noderefs = st.builds(NodeRef, node_id=ring_ids, address=addresses)
operations = st.one_of(
    st.builds(InsertLine, position=st.integers(0, 500), line=names, origin=names),
    st.builds(DeleteLine, position=st.integers(0, 500), line=names, origin=names),
    st.builds(NoOp, origin=names),
)
patches = st.builds(
    Patch,
    operations=st.tuples() | st.lists(operations, max_size=6).map(tuple),
    base_ts=timestamps,
    author=names,
    comment=names,
)
log_entries = st.builds(
    LogEntry,
    document_key=names.filter(bool),
    ts=st.integers(min_value=1, max_value=2**40),
    patch=patches,
    author=names,
    published_at=floats,
    sig=signatures,
)
checkpoints = st.builds(
    Checkpoint,
    document_key=names.filter(bool),
    ts=st.integers(min_value=1, max_value=2**40),
    lines=st.lists(names, max_size=8).map(tuple),
    created_at=floats,
    author=names,
    sig=signatures,
)
stored_items = st.builds(
    StoredItem,
    key=names.filter(bool),
    value=st.one_of(names, timestamps, patches, log_entries,
                    st.dictionaries(names, timestamps, max_size=3),
                    st.lists(timestamps, max_size=3)),
    key_id=st.none() | ring_ids,
    is_replica=st.booleans(),
    version=st.integers(min_value=0, max_value=2**31),
    stored_at=floats,
)
error_envelopes = st.builds(
    ErrorEnvelope,
    code=names.filter(bool),
    message=names,
    args=st.lists(scalars, max_size=3).map(tuple),
    debug=names,
)
payload_trees = st.recursive(
    st.one_of(scalars, addresses, noderefs, operations, patches, log_entries),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(names, children, max_size=4),
        st.sets(timestamps, max_size=4),
        st.frozensets(timestamps, max_size=4),
    ),
    max_leaves=8,
)
messages = st.builds(
    Message,
    source=addresses,
    destination=addresses,
    kind=st.sampled_from(list(MessageKind)),
    method=names,
    payload=payload_trees,
    request_id=st.integers(min_value=0, max_value=2**32 - 1),
    is_error=st.booleans(),
    sent_at=floats,
)

#: One instance strategy per registered wire tag.  The completeness test
#: below fails when a layer registers a tag with no strategy here.
TAG_STRATEGIES: dict[str, st.SearchStrategy] = {
    "addr": addresses,
    "checkpoint": checkpoints,
    "error": error_envelopes,
    "kind": st.sampled_from(list(MessageKind)),
    "log-entry": log_entries,
    "msg": messages,
    "noderef": noderefs,
    "op-del": st.builds(DeleteLine, position=st.integers(0, 500), line=names,
                        origin=names),
    "op-ins": st.builds(InsertLine, position=st.integers(0, 500), line=names,
                        origin=names),
    "op-noop": st.builds(NoOp, origin=names),
    "patch": patches,
    "stored-item": stored_items,
}


def test_every_registered_wire_tag_has_a_strategy():
    missing = set(registered_wire_tags()) - set(TAG_STRATEGIES)
    assert not missing, (
        f"wire tags without fast-path coverage: {sorted(missing)} — "
        "add a strategy to TAG_STRATEGIES in tests/test_copy_fastpath.py"
    )


# ---------------------------------------------------------------------------
# Equivalence: fast copy == full serialize/deserialize, for every wire type
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", sorted(TAG_STRATEGIES))
@SEEDED
@given(data=st.data())
def test_fast_copy_matches_codec_round_trip(tag, data):
    obj = data.draw(TAG_STRATEGIES[tag])
    copied = copy_payload(obj)
    restored = decode(encode(obj))
    assert type(copied) is type(obj)
    assert copied == obj
    assert copied == restored


@SEEDED
@given(payload_trees)
def test_fast_copy_matches_codec_round_trip_on_nested_trees(payload):
    assert copy_payload(payload) == decode(encode(payload))


@pytest.mark.parametrize("tag", sorted(TAG_STRATEGIES))
@SEEDED
@given(data=st.data())
def test_immutable_leaves_are_shared_by_reference(tag, data):
    # The fast path's whole point: a registered type declared immutable
    # (``register_wire_type(..., copy=None)``) crosses a simulated delivery
    # as the same object.  Types with a real copy hook must not.
    obj = data.draw(TAG_STRATEGIES[tag])
    if type(obj) in _IMMUTABLE_LEAVES:
        assert copy_payload(obj) is obj


# ---------------------------------------------------------------------------
# Mutation severing: no mutable state is shared between original and copy
# ---------------------------------------------------------------------------


def test_dict_payloads_are_rebuilt_and_severed():
    original = {"lines": ["a", "b"], "meta": {"ts": 1}}
    copied = copy_payload(original)
    assert copied == original
    assert copied is not original
    assert copied["lines"] is not original["lines"]
    original["lines"].append("c")
    original["meta"]["ts"] = 99
    assert copied == {"lines": ["a", "b"], "meta": {"ts": 1}}
    copied["lines"].append("z")
    assert original["lines"] == ["a", "b", "c"]


def test_log_entries_and_checkpoints_are_delivered_by_reference():
    entry = LogEntry(document_key="doc", ts=3,
                     patch=Patch(operations=(InsertLine(0, "x"),), base_ts=2,
                                 author="alice"),
                     author="alice", published_at=1.5, sig="ab" * 32)
    checkpoint = Checkpoint(document_key="doc", ts=4, lines=("x",), sig="cd" * 32)
    message = Message(source=Address("a"), destination=Address("b"),
                      kind=MessageKind.RESPONSE, method="fetch_many",
                      payload={"entries": [entry], "checkpoint": checkpoint},
                      request_id=1, sent_at=0.0)
    delivered = copy_message(message).payload
    assert delivered is not message.payload  # the dict and list are rebuilt...
    assert delivered["entries"][0] is entry  # ...the values inside are not
    assert delivered["checkpoint"] is checkpoint


@pytest.mark.parametrize("value, field", [
    (LogEntry("doc", 3, "patch", sig="ab" * 32), "sig"),
    (LogEntry("doc", 3, "patch"), "patch"),
    (Checkpoint("doc", 4, ("x",), sig="cd" * 32), "sig"),
    (Checkpoint("doc", 4, ("x",)), "lines"),
])
def test_shared_log_values_cannot_be_assigned_to(value, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, None)


def test_stored_item_with_mutable_value_is_severed():
    item = StoredItem("k", {"v": [1, 2]}, key_id=7, is_replica=False,
                      version=1, stored_at=0.5)
    copied = copy_payload(item)
    assert copied == item
    item.value["v"].append(3)
    assert copied.value == {"v": [1, 2]}


def test_mutable_containers_are_always_rebuilt():
    for original in ({"a": 1}, [1, 2], {1, 2}):
        copied = copy_payload(original)
        assert copied == original
        assert copied is not original


def test_immutable_containers_of_leaves_are_shared():
    # A tuple/frozenset whose items all copy to themselves is itself shared:
    # neither container nor items can be mutated by the receiver.
    leaf_tuple = (1, "a", NoOp(origin="x"), None)
    assert copy_payload(leaf_tuple) is leaf_tuple
    leaf_frozen = frozenset({1, 2, 3})
    assert copy_payload(leaf_frozen) is leaf_frozen
    # One mutable item anywhere forces a rebuild of the container.
    mixed = (1, {"k": "v"})
    copied = copy_payload(mixed)
    assert copied is not mixed
    assert copied == mixed
    assert copied[1] is not mixed[1]


def test_message_with_immutable_payload_is_shared():
    immutable = Message(
        source=Address("a", "s1"), destination=Address("b", "s2"),
        kind=MessageKind.REQUEST, method="ping",
        payload=(1, "x"), request_id=1, sent_at=0.0,
    )
    assert copy_message(immutable) is immutable


def test_message_with_mutable_payload_is_severed():
    payload = {"key": "doc", "lines": ["a"]}
    message = Message(
        source=Address("a", "s1"), destination=Address("b", "s2"),
        kind=MessageKind.REQUEST, method="store",
        payload=payload, request_id=1, sent_at=0.0,
    )
    delivered = copy_message(message)
    assert delivered is not message
    assert delivered.payload == payload
    payload["lines"].append("b")
    assert delivered.payload["lines"] == ["a"]


# ---------------------------------------------------------------------------
# Sharing across a round: one object per log value
# ---------------------------------------------------------------------------


def test_a_round_keeps_one_object_per_log_value():
    """Every live copy of one ``(key, ts)`` — at its Log-Peers, their
    successor replicas and in the Masters' tails — is one object, and so is
    every copy of one checkpoint: deliveries share log values, never
    rebuild them."""
    config = LtrConfig(checkpoint_interval=8, auth_enabled=True, auth_secret="secret")
    system = LtrSystem(ltr_config=config, seed=3)
    try:
        peers = system.bootstrap(16, warm=True)
        keys = ["wiki:a", "wiki:b"]
        for revision in range(18):
            for key in keys:
                system.edit_and_commit(peers[revision % 3], key, f"revision {revision}")
        system.run_for(2.0)  # the Masters write the checkpoints in the background
        cold = system.sync(peers[-1], keys[0])
        assert cold.retrieved_patches == 18

        values = [item.value for node in system.ring.live_nodes() for item in node.storage]
        values += [entry for node in system.ring.live_nodes()
                   for document in node.service("ltr-master")._documents.values()
                   for entry in document.tenure.tail.entries]
        copies: dict[tuple, list] = {}
        for value in values:
            if isinstance(value, (LogEntry, Checkpoint)):
                name = (type(value).__name__, value.document_key, value.ts)
                copies.setdefault(name, []).append(value)
        assert sorted(copies) == sorted(
            [("LogEntry", key, ts) for key in keys for ts in range(1, 19)]
            + [("Checkpoint", key, ts) for key in keys for ts in (8, 16)]
        )
        for name, held in copies.items():
            assert len(held) > 3, name  # |Hr| placements, replicas (and a tail)
            assert all(value is held[0] for value in held), name
            assert held[0].sig is not None, name
    finally:
        system.shutdown()
