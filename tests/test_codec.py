"""Wire codec: round-trip properties, framing, error envelopes, coverage.

Three layers of guarantees:

* property-based round-trips (seeded hypothesis) over every payload family
  the RPC surface ships — Chord refs and stored items, OT operations and
  patches, log entries, checkpoints, commit batches, whole messages and
  arbitrary nested payload trees;
* an exhaustiveness check that walks the *live* RPC surface of a running
  system (every handler a node exposes) and demands a round-tripped
  exemplar payload for each method, so a new RPC cannot ship without codec
  coverage;
* the framing and error-envelope contracts the socket transport relies on.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord import NodeRef
from repro.chord.storage import StoredItem
from repro.core import LtrSystem
from repro.errors import (
    CodecError,
    KeyNotFound,
    MasterUnavailable,
    NetworkError,
    ReproError,
    RequestTimeout,
    StaleTimestamp,
)
from repro.net import Address, ErrorEnvelope, Message, MessageKind
from repro.net.codec import (
    FrameDecoder,
    copy_message,
    copy_payload,
    decode,
    decode_any,
    decode_message,
    encode,
    encode_hello,
    encode_message,
    envelope_from_exception,
    exception_from_envelope,
    frame,
    registered_wire_tags,
)
from repro.ot import DeleteLine, InsertLine, NoOp, Patch
from repro.p2plog import Checkpoint, LogEntry

# ---------------------------------------------------------------------------
# Strategies: every payload family the RPC surface ships
# ---------------------------------------------------------------------------

# Deterministic in CI: derandomize makes hypothesis derive its examples from
# the test's own source, so the suite is a fixed (seeded) corpus.
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
    proposal=st.none() | st.integers(min_value=0, max_value=2**62),
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
    value=st.one_of(names, timestamps, patches, log_entries, checkpoints),
    key_id=st.none() | ring_ids,
    is_replica=st.booleans(),
    version=st.integers(min_value=0, max_value=2**31),
    stored_at=floats,
)
scalars = st.one_of(
    st.none(), st.booleans(), names, floats,
    st.integers(min_value=-(2**200), max_value=2**200),  # beyond 64-bit on purpose
    st.binary(max_size=16),
)
payload_trees = st.recursive(
    st.one_of(scalars, addresses, noderefs, operations, patches,
              log_entries, checkpoints, stored_items),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(names, children, max_size=4),
        st.dictionaries(st.integers(-100, 100), children, max_size=3),
        st.sets(st.one_of(names, timestamps), max_size=4),
        st.frozensets(timestamps, max_size=4),
    ),
    max_leaves=12,
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


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


@SEEDED
@given(payload_trees)
def test_payload_round_trip(payload):
    assert decode(encode(payload)) == payload


@SEEDED
@given(messages)
def test_message_round_trip(message):
    assert decode_message(encode_message(message)) == message


@SEEDED
@given(st.one_of(noderefs, stored_items, log_entries, checkpoints, patches))
def test_registered_types_round_trip(obj):
    restored = decode(encode(obj))
    assert type(restored) is type(obj)
    assert restored == obj
    # Outside equality, so compared on its own.
    assert getattr(restored, "sig", None) == getattr(obj, "sig", None)


@SEEDED
@given(payload_trees)
def test_copy_payload_equals_codec_round_trip(payload):
    # The fast structural copy must be observationally identical to the
    # full serialize/deserialize cycle — that is what licenses using it as
    # the default wire fidelity.
    assert copy_payload(payload) == decode(encode(payload))


@SEEDED
@given(st.dictionaries(names, st.one_of(names, timestamps), max_size=4))
def test_reserved_tag_key_collision_survives(mapping):
    # A user dict containing the reserved "~t" key must not be mistaken
    # for a tagged value.
    mapping = {**mapping, "~t": "impostor"}
    assert decode(encode(mapping)) == mapping


def test_tuple_set_and_bigint_types_are_preserved():
    payload = {
        "t": (1, 2, 3),
        "s": {3, 1, 2},
        "f": frozenset({5, 6}),
        "big": 2**160 - 1,
        "neg": -(2**90),
        "b": b"\x00\xff",
    }
    restored = decode(encode(payload))
    assert restored == payload
    assert isinstance(restored["t"], tuple)
    assert isinstance(restored["s"], set)
    assert isinstance(restored["f"], frozenset)
    assert isinstance(restored["b"], bytes)


def test_encoding_is_deterministic():
    payload = {"set": {9, 1, 5}, "map": {"b": 1, "a": 2}}
    assert encode(payload) == encode(payload)


# ---------------------------------------------------------------------------
# RPC-surface exhaustiveness: every exposed handler has a covered exemplar
# ---------------------------------------------------------------------------

_REF = NodeRef(7, Address("peer-x", "site"))
_ITEM = StoredItem("k", "v", key_id=7, is_replica=False, version=1, stored_at=0.5)
_PATCH = Patch(operations=(InsertLine(0, "hello"),), base_ts=3, author="alice")

#: One representative request payload per exposed RPC method.  The test
#: below walks the *live* handler registry of a running system; adding an
#: RPC without adding an exemplar here fails it.
RPC_EXEMPLARS: dict[str, dict] = {
    "delete": {"key": "k"},
    "delete_value": {"key": "k", "expected": ("tombstone", 4)},
    "fetch": {"key": "k"},
    "fetch_many": {"keys": ["a", "b"]},
    "find_successor": {"target_id": 2**159 + 1, "hops": 2},
    "get_predecessor": {},
    "get_successor_list": {},
    "handoff_keys": {"requester": _REF},
    "notify": {"candidate": _REF},
    "ping": {},
    "receive_items": {"items": [_ITEM], "as_replica": True, "from_owner": _REF},
    "store": {"key": "k", "value": _PATCH, "key_id": 2**31, "is_replica": False},
    "store_many": {"items": [{"key": "k", "value": "v", "key_id": 9}],
                   "is_replica": False},
    "successor_leaving": {"leaving": _REF, "replacement": _REF},
    "kts_gen_ts": {"key": "doc"},
    "kts_next_timestamps": {"key": "doc", "count": 8},
    "kts_last_ts": {"key": "doc"},
    "kts_advance_ts": {"key": "doc", "value": 41},
    "kts_managed_keys": {},
    "ltr_validate_and_publish": {"key": "doc", "ts": 4,
                                 "patches": [_PATCH, _PATCH],
                                 "author": "alice",
                                 "signatures": ["ab" * 32, "cd" * 32]},
    "ltr_catch_up": {"key": "doc", "after_ts": 3},
}

#: Answers whose shape is richer than their request's: round-tripped as
#: responses by the same test.
RESPONSE_EXEMPLARS: dict[str, dict] = {
    # A base-case answer carrying the answering peer's routes: its fresh
    # cache entries with their ages, and its own arc at age zero.
    "find_successor": {
        "node": _REF, "hops": 2, "interval": (2**159, 7),
        "routes": (((9, 2**159 - 1), NodeRef(2**159 - 1, Address("peer-y", "site")), 0.375),
                   ((2**159, 7), _REF, 0.0)),
    },
}


def test_every_exposed_rpc_method_has_a_round_tripped_exemplar():
    system = LtrSystem()
    try:
        system.bootstrap(3)
        node = system.ring.gateway()
        exposed = set(node.rpc.handlers())
        missing = exposed - set(RPC_EXEMPLARS)
        assert not missing, (
            f"RPC methods without codec exemplars: {sorted(missing)} — "
            "add a representative payload to RPC_EXEMPLARS"
        )
        for method, payload in RPC_EXEMPLARS.items():
            request = Message(
                source=Address("a", "s1"), destination=Address("b", "s2"),
                kind=MessageKind.REQUEST, method=method,
                payload=payload, request_id=1, sent_at=0.0,
            )
            assert decode_message(encode_message(request)) == request
        for method, payload in RESPONSE_EXEMPLARS.items():
            assert _response_round_trip(method, payload) == payload
    finally:
        system.shutdown()


# ---------------------------------------------------------------------------
# Error envelopes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exc", [
    KeyNotFound("missing-key"),
    RequestTimeout("slow"),
    MasterUnavailable("gone"),
    StaleTimestamp(7, 9),
    ValueError("plain builtin"),
])
def test_error_envelope_reconstructs_same_class(exc):
    envelope = envelope_from_exception(exc)
    assert decode(encode(envelope)) == envelope
    restored = exception_from_envelope(envelope)
    assert type(restored) is type(exc)
    assert restored is not exc  # never the live object


def test_unknown_error_code_degrades_to_network_error():
    envelope = ErrorEnvelope(code="NoSuchExceptionClass", message="boom",
                             args=("boom",), debug="")
    restored = exception_from_envelope(envelope)
    assert isinstance(restored, NetworkError)
    assert "boom" in str(restored)


def test_envelope_carries_remote_traceback_in_debug():
    try:
        raise KeyNotFound("deep failure")
    except KeyNotFound as error:
        envelope = envelope_from_exception(error, debug=True)
    assert "deep failure" in envelope.debug
    restored = exception_from_envelope(envelope)
    assert "deep failure" in getattr(restored, "remote_traceback")


def test_unserializable_error_args_are_flattened():
    class Weird:
        pass

    envelope = envelope_from_exception(ReproError(Weird()))
    assert decode(encode(envelope)) == envelope  # args became wire-safe


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


@SEEDED
@given(st.lists(st.binary(min_size=0, max_size=64), max_size=6),
       st.integers(min_value=1, max_value=7))
def test_frame_decoder_reassembles_any_chunking(bodies, chunk_size):
    stream = b"".join(frame(body) for body in bodies)
    decoder = FrameDecoder()
    out: list[bytes] = []
    for start in range(0, len(stream), chunk_size):
        out.extend(decoder.feed(stream[start:start + chunk_size]))
    assert out == bodies
    assert decoder.pending_bytes == 0


def test_frame_decoder_rejects_oversized_frames():
    huge_header = (2**31).to_bytes(4, "big")
    with pytest.raises(CodecError):
        FrameDecoder().feed(huge_header)


def test_decode_any_dispatches_hello_and_message():
    kind, hello = decode_any(encode_hello("proc-1"))
    assert kind == "hello"
    assert hello["process"] == "proc-1"
    message = Message(Address("a", "s"), Address("b", "s"),
                      MessageKind.ONEWAY, "ping", sent_at=0.0)
    kind, restored = decode_any(encode_message(message))
    assert kind == "message"
    assert restored == message


def test_wrong_wire_version_is_rejected():
    import json

    envelope = json.loads(encode({"x": 1}))
    envelope["v"] = 999
    with pytest.raises(CodecError):
        decode(json.dumps(envelope).encode())


def test_version_1_frame_is_refused():
    # Version 1 carried a free-form dictionary where a log entry's ``sig``
    # now is; its frames are refused, not read as something else.
    frame_v1 = (
        b'{"v":1,"k":"payload","d":{"~t":"log-entry","v":'
        b'["doc",3,"patch","alice",0.5,2,{"sig":"ab"},7]}}'
    )
    with pytest.raises(CodecError, match="unsupported wire version 1"):
        decode(frame_v1)
    with pytest.raises(CodecError, match="unsupported wire version 1"):
        decode_any(frame_v1)


def test_garbage_bytes_raise_codec_error():
    with pytest.raises(CodecError):
        decode(b"\x00\x01\x02not-an-envelope")


def test_registered_tags_are_unique():
    tags = registered_wire_tags()
    assert len(tags) == len(set(tags))


def test_copy_message_severs_payload_aliasing():
    payload = {"nested": [1, {"inner": [2, 3]}]}
    message = Message(Address("a", "s"), Address("b", "s"),
                      MessageKind.REQUEST, "m", payload=payload,
                      request_id=1, sent_at=0.0)
    clone = copy_message(message)
    clone.payload["nested"][1]["inner"].append(99)
    assert payload == {"nested": [1, {"inner": [2, 3]}]}
    # Frozen dataclass fields besides the payload are preserved verbatim.
    assert dataclasses.replace(clone, payload=None) == dataclasses.replace(
        message, payload=None
    )


# ---------------------------------------------------------------------------
# Response shapes that in-process rings never push through the codec
# ---------------------------------------------------------------------------


def _response_round_trip(method: str, payload):
    response = Message(
        source=Address("b", "s2"), destination=Address("a", "s1"),
        kind=MessageKind.RESPONSE, method=method, payload=payload,
        request_id=1, sent_at=0.25,
    )
    decoded = decode_message(encode_message(response))
    assert repr(decoded) == repr(response)  # repr: NaN never equals itself
    return decoded.payload


def _route_cache_node():
    from repro.chord import ChordConfig, ChordRing

    ring = ChordRing(config=ChordConfig(bits=32, route_cache_ttl=5.0), seed=3)
    ring.bootstrap(3)
    ring.run_for(10.0)
    node = ring.gateway()
    node.route_cache.clear()
    return ring, node


def test_cached_find_successor_answer_round_trips_with_its_age():
    answer = {"node": _REF, "hops": 2, "interval": (5, 9), "cached": True, "age": 1.75}
    decoded = _response_round_trip("find_successor", answer)
    assert decoded["age"] == 1.75 and decoded["interval"] == (5, 9)
    # What crossed the wire is learned back-dated by exactly that age.
    ring, node = _route_cache_node()
    node._remember_route(decoded)
    assert node.route_cache.lookup(7, ring.runtime.now) == ((5, 9), _REF, ring.runtime.now - 1.75)


def test_carried_routes_cross_the_codec_and_are_learned_with_their_ages():
    decoded = _response_round_trip("find_successor", RESPONSE_EXEMPLARS["find_successor"])
    ring, node = _route_cache_node()
    now = ring.runtime.now
    node._remember_route(decoded)
    (carried, carrier, age), (own_arc, owner, _zero) = decoded["routes"]
    assert node.route_cache.lookup(10, now) == (carried, carrier, now - age)
    assert node.route_cache.lookup(3, now) == (own_arc, owner, now)


@pytest.mark.parametrize("age", [float("nan"), float("inf"), "1.75", 2**70, [1.75],
                                 {"age": 1}, None, b"\x01"])
def test_hostile_route_ages_cross_the_codec_and_are_not_learned(age):
    decoded = _response_round_trip(
        "find_successor",
        {"node": _REF, "hops": 2, "interval": (5, 9), "cached": True, "age": age,
         "routes": (((9, 12), _REF, age),)},
    )
    ring, node = _route_cache_node()
    node._remember_route(decoded)
    assert len(node.route_cache) == 0


def test_negative_route_age_crosses_the_codec_and_is_clamped():
    decoded = _response_round_trip(
        "find_successor",
        {"node": _REF, "hops": 2, "interval": (5, 9), "cached": True, "age": -1e9},
    )
    ring, node = _route_cache_node()
    node._remember_route(decoded)
    assert node.route_cache.lookup(7, ring.runtime.now)[2] == ring.runtime.now  # not the future


def _behind_entries():
    return [
        LogEntry("doc", ts, _PATCH, author="alice", published_at=0.5, base_ts=ts - 1,
                 sig="ab" * 32, proposal=2**47 + ts)
        for ts in (4, 5)
    ]


def test_log_entry_proposal_round_trips_and_older_rows_still_load():
    entry = _behind_entries()[0]
    decoded = _response_round_trip("fetch", {"value": entry})["value"]
    assert decoded == entry and decoded.proposal == 2**47 + 4
    assert copy_payload(entry).proposal == entry.proposal
    # Part of what equality compares: two proposals are two entries.
    assert dataclasses.replace(entry, proposal=7) != entry
    plain = dataclasses.replace(entry, proposal=None)
    assert _response_round_trip("fetch", {"value": plain})["value"].proposal is None
    # A row pickled before entries carried an identity has no such attribute.
    import pickle

    state = dict(vars(plain))
    del state["proposal"]
    row = LogEntry.__new__(LogEntry)
    row.__dict__.update(state)
    loaded = pickle.loads(pickle.dumps(row))
    assert loaded.proposal is None and loaded == plain


def test_ok_payload_round_trips_with_the_gap_it_carries():
    from repro.core.protocol import ValidationResult

    payload = ValidationResult.ok(6, 7, 3, _behind_entries()).to_payload()
    decoded = _response_round_trip("ltr_validate_and_publish", payload)
    result = ValidationResult.from_payload(decoded)
    assert result.accepted and (result.first_ts, result.last_ts, result.replicas) == (6, 7, 3)
    assert result.entries == _behind_entries()
    assert [entry.proposal for entry in result.entries] == [2**47 + 4, 2**47 + 5]
    system = LtrSystem()
    try:
        system.bootstrap(3)
        user = system.user(system.peer_names()[0])
        assert user._carried_suffix("doc", 3, result) == _behind_entries()
        assert user._carried_suffix("doc", 2, result) is None
    finally:
        system.shutdown()


@pytest.mark.parametrize("entries", [
    "not a list", 7, {"ts": 4}, [4, 5], [None, None], [["doc", 4], ["doc", 5]],
    [_PATCH, _PATCH], _behind_entries()[::-1], _behind_entries()[:1] * 2,
    [LogEntry("other", ts, _PATCH) for ts in (4, 5)], _behind_entries()[:1],
    _behind_entries() + [LogEntry("doc", 6, _PATCH)],
], ids=["string", "int", "mapping", "ints", "nones", "lists", "patches",
        "reversed", "repeated", "mis-keyed", "short", "into-the-chain"])
def test_hostile_ok_entries_cross_the_codec_and_are_refused(entries):
    from repro.core.protocol import ValidationResult

    payload = {"status": "ok", "first_ts": 6, "last_ts": 6, "replicas": 3,
               "entries": entries}
    result = ValidationResult.from_payload(
        _response_round_trip("ltr_validate_and_publish", payload)
    )
    system = LtrSystem()
    try:
        system.bootstrap(3)
        user = system.user(system.peer_names()[0])
        assert user._carried_suffix("doc", 3, result) is None  # -> fetch_range of 4..5
    finally:
        system.shutdown()


def test_behind_payload_round_trips_with_its_entries():
    from repro.core.protocol import ValidationResult

    payload = ValidationResult.behind(5, _behind_entries()).to_payload()
    decoded = _response_round_trip("ltr_validate_and_publish", payload)
    result = ValidationResult.from_payload(decoded)
    assert result.last_ts == 5 and result.entries == _behind_entries()
    assert [entry.sig for entry in result.entries] == ["ab" * 32] * 2
    system = LtrSystem()
    try:
        system.bootstrap(3)
        user = system.user(system.peer_names()[0])
        assert user._carried_suffix("doc", 3, result) == _behind_entries()
    finally:
        system.shutdown()


@pytest.mark.parametrize("entries", [
    "not a list", 7, {"ts": 4}, [4, 5], [None, None], [["doc", 4], ["doc", 5]],
    [_PATCH, _PATCH], _behind_entries()[::-1], _behind_entries()[:1] * 2,
    [LogEntry("other", ts, _PATCH) for ts in (4, 5)],
], ids=["string", "int", "mapping", "ints", "nones", "lists", "patches",
        "reversed", "repeated", "mis-keyed"])
def test_hostile_behind_entries_cross_the_codec_and_are_refused(entries):
    from repro.core.protocol import ValidationResult

    payload = {"status": "behind", "first_ts": None, "last_ts": 5, "replicas": 0,
               "entries": entries}
    result = ValidationResult.from_payload(
        _response_round_trip("ltr_validate_and_publish", payload)
    )
    system = LtrSystem()
    try:
        system.bootstrap(3)
        user = system.user(system.peer_names()[0])
        assert user._carried_suffix("doc", 3, result) is None  # -> fetch_range
    finally:
        system.shutdown()
