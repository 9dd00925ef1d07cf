"""Hostile-input fuzzing of the wire codec (``repro.net.codec``).

A peer on the open network controls every byte it sends, so the decode
path must treat the input as adversarial: truncated frames, oversize
length prefixes, unknown type tags, bad envelope versions and bit-flipped
bodies must all surface as :class:`~repro.errors.CodecError` — never as an
unhandled exception, a hang, or silently wrong data.

Two layers: a seeded corpus of hand-written hostile frames (each one a
regression for a specific decode branch), and derandomized hypothesis
sweeps that mutate *valid* encodings — the adversarial inputs most likely
to slip past naive validation because they are almost right.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, ReproError
from repro.net import Address, Message, MessageKind
from repro.net.codec import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_SIZE,
    WIRE_VERSION,
    FrameDecoder,
    decode,
    decode_any,
    decode_message,
    encode,
    encode_message,
    frame,
)
from repro.ot import InsertLine, Patch

SEEDED = settings(max_examples=80, derandomize=True, deadline=None)

#: A representative valid payload to mutate: nested, with a registered
#: wire-type (Patch) inside, so tag handling is on the fuzzed path.
SAMPLE_PAYLOAD = {
    "patch": Patch(operations=(InsertLine(0, "hello"),), base_ts=3,
                   author="alice"),
    "nested": [1, 2.5, "three", None, True],
}

SAMPLE_MESSAGE = Message(
    source=Address("a", "s1"), destination=Address("b", "s2"),
    kind=MessageKind.REQUEST, method="ltr_validate_and_publish",
    payload=SAMPLE_PAYLOAD, request_id=7, sent_at=1.5,
)


def expect_codec_error(data: bytes) -> None:
    """Decoding hostile bytes must raise CodecError — nothing else."""
    for decoder in (decode, decode_message, decode_any):
        with pytest.raises(CodecError):
            decoder(data)


# ------------------------------------------------------------ seeded corpus --

def _hostile(kind: str, body: str) -> bytes:
    """A well-versioned envelope around a hostile body."""
    return f'{{"v":{WIRE_VERSION},"k":"{kind}","d":{body}}}'.encode()


HOSTILE_FRAMES = [
    b"",                                        # empty frame
    b"\x00",                                    # not a JSON envelope
    b"{",                                       # truncated JSON
    b"{}",                                      # JSON but no envelope fields
    b"[]",                                      # decodes, not an envelope dict
    b"{\"v\":999,\"k\":\"payload\",\"d\":1}",   # future wire version
    b"{\"v\":\"x\",\"k\":\"payload\",\"d\":1}",  # version of the wrong type
    b"{\"k\":\"payload\",\"d\":1}",             # version missing entirely
    _hostile("gossip", "1"),                    # unknown envelope kind
    b"\xff\xfe\xfd\xfc",                        # arbitrary binary garbage
    _hostile("payload", '{"~t":"zzz","b":[]}'),  # unknown wire tag
    _hostile("message", "42"),                  # message envelope, scalar body
    _hostile("hello", "[1,2]"),                 # hello body must be a dict
    _hostile("payload", '{"~t":"kind","v":"bogus"}'),  # known tag, bad body
    _hostile("payload", '{"~t":"addr","v":[]}'),  # known tag, empty body
    "{\"v\":1,\"k\":\"payload\",\"d\":\"\ud800\"}".encode("utf-8", "surrogatepass"),
]


@pytest.mark.parametrize("data", HOSTILE_FRAMES,
                         ids=[f"frame-{index}" for index in range(len(HOSTILE_FRAMES))])
def test_hostile_frame_raises_codec_error(data):
    expect_codec_error(data)


def test_unknown_wire_tag_names_the_tag():
    hostile = json.dumps(
        {"v": WIRE_VERSION, "k": "payload", "d": {"~t": "not-a-tag", "b": []}}
    ).encode()
    with pytest.raises(CodecError, match="not-a-tag"):
        decode(hostile)


def test_wrong_envelope_kind_is_typed():
    payload = encode(1)
    with pytest.raises(CodecError):
        decode_message(payload)
    message = encode_message(SAMPLE_MESSAGE)
    with pytest.raises(CodecError):
        decode(message)


# ------------------------------------------------------------ frame decoder --


def test_frame_decoder_rejects_oversize_length_prefix():
    decoder = FrameDecoder()
    hostile = (MAX_FRAME_SIZE + 1).to_bytes(FRAME_HEADER_SIZE, "big")
    with pytest.raises(CodecError):
        decoder.feed(hostile)


def test_frame_decoder_rejects_huge_prefix_without_allocating():
    """A 4 GiB length prefix must fail fast, not reserve 4 GiB."""
    decoder = FrameDecoder(max_frame_size=1024)
    hostile = (2**32 - 1).to_bytes(FRAME_HEADER_SIZE, "big") + b"x" * 10
    with pytest.raises(CodecError):
        decoder.feed(hostile)


def test_truncated_frame_is_held_not_delivered():
    decoder = FrameDecoder()
    body = encode(SAMPLE_PAYLOAD["nested"])
    framed = frame(body)
    assert decoder.feed(framed[:-3]) == []
    assert decoder.pending_bytes == len(framed) - 3
    assert decoder.feed(framed[-3:]) == [body]
    assert decoder.pending_bytes == 0


def test_frame_too_large_to_send_is_rejected_symmetrically():
    with pytest.raises(CodecError):
        frame(b"x" * (MAX_FRAME_SIZE + 1))


@SEEDED
@given(cut=st.integers(min_value=0, max_value=200),
       chunk=st.integers(min_value=1, max_value=7))
def test_frame_decoder_survives_arbitrary_chunking(cut, chunk):
    """Any split of a valid stream yields the same frames, never an error."""
    bodies = [encode(index) for index in range(3)]
    stream = b"".join(frame(body) for body in bodies)
    cut = min(cut, len(stream))
    decoder = FrameDecoder()
    collected = []
    for start in range(0, len(stream), chunk):
        collected.extend(decoder.feed(stream[start:start + chunk]))
    assert collected == bodies
    assert decoder.pending_bytes == 0


# --------------------------------------------------- mutated valid encodings --


@SEEDED
@given(position=st.integers(min_value=0, max_value=10_000),
       bit=st.integers(min_value=0, max_value=7))
def test_bit_flipped_payload_never_crashes(position, bit):
    data = bytearray(encode(SAMPLE_PAYLOAD))
    data[position % len(data)] ^= 1 << bit
    try:
        decode(bytes(data))
    except CodecError:
        pass  # rejected: fine
    except ReproError as exc:  # pragma: no cover - regression trap
        pytest.fail(f"non-codec repro error leaked: {type(exc).__name__}: {exc}")
    # A flip in a string literal may still decode; silently "working" is
    # acceptable as long as nothing crashed or hung.


@SEEDED
@given(position=st.integers(min_value=0, max_value=10_000),
       bit=st.integers(min_value=0, max_value=7))
def test_bit_flipped_message_never_crashes(position, bit):
    data = bytearray(encode_message(SAMPLE_MESSAGE))
    data[position % len(data)] ^= 1 << bit
    try:
        decode_message(bytes(data))
    except CodecError:
        pass
    except ReproError as exc:  # pragma: no cover - regression trap
        pytest.fail(f"non-codec repro error leaked: {type(exc).__name__}: {exc}")


@SEEDED
@given(prefix=st.integers(min_value=1, max_value=300))
def test_truncated_encoding_raises_codec_error(prefix):
    data = encode_message(SAMPLE_MESSAGE)[:prefix]
    full = encode_message(SAMPLE_MESSAGE)
    if len(data) >= len(full):
        return  # not actually truncated
    with pytest.raises(CodecError):
        decode_message(data)


@SEEDED
@given(junk=st.binary(min_size=0, max_size=64))
def test_arbitrary_bytes_raise_codec_error_or_decode_cleanly(junk):
    """Raw attacker-chosen bytes: CodecError or a clean decode, nothing else."""
    try:
        decode_any(junk)
    except CodecError:
        pass
    except ReproError as exc:  # pragma: no cover - regression trap
        pytest.fail(f"non-codec repro error leaked: {type(exc).__name__}: {exc}")
