"""The versioned wire codec: every RPC payload as bytes, and back.

The simulator hands :class:`~repro.net.message.Message` objects between
peers by reference; a real deployment cannot.  This module defines the wire
representation those messages (and every payload type they carry) travel
as: a *tagged value tree* serialized as compact JSON, wrapped in a versioned
envelope and a length-prefixed frame.

Three design points keep the codec inside the network layer without
upward imports:

* **Tagged values.**  Scalars and string-keyed dictionaries encode
  natively; everything else (tuples, sets, bytes, big ring identifiers,
  registered dataclasses) becomes ``{"~t": tag, "v": ...}``.  The tag key
  ``~t`` is reserved: payload dictionaries using it are wrapped as
  explicit entry lists, so arbitrary payloads round-trip unambiguously.
* **A registration hook.**  ``repro.net`` cannot import the layers above
  it, so each layer registers its own wire types at import time
  (:func:`register_wire_type`): chord registers ``NodeRef`` and
  ``StoredItem``, p2plog registers ``LogEntry``/``Checkpoint`` and the OT
  patch types.  Decoding a tag nobody registered raises
  :class:`~repro.errors.CodecError`.
* **Typed error envelopes.**  Exceptions never cross the wire as live
  objects: :func:`envelope_from_exception` flattens them to an
  :class:`ErrorEnvelope` (code + constructor args from the
  :mod:`repro.errors` hierarchy, traceback text in a debug field) and
  :func:`exception_from_envelope` reconstructs them caller-side; unknown
  codes map to :class:`~repro.errors.NetworkError`.

The same registry powers :func:`copy_payload`, the structural copy the
simulated network applies per delivery so that sim-mode semantics match
what serialization enforces, without paying byte-level encoding on every
simulated message.  A type registered without a ``copy`` hook is an
immutable value and travels by reference: the OT patch types, ``NodeRef``,
and the P2P-Log's ``LogEntry`` and ``Checkpoint`` (their one signature is a
string field, set at construction), so every replica of a log entry is one
object.  ``StoredItem`` keeps a hook: its ``is_replica`` flag is flipped in
place, so each delivery must hand over a fresh item.
"""

from __future__ import annotations

import base64
import copy as _copy
import json
import math
import traceback as _traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..errors import CodecError, NetworkError, ReproError
from .address import Address
from .message import Message, MessageKind

#: Version stamped into every envelope; receivers reject other versions.
#: Version 2: a log entry or checkpoint carries its signature as a string
#: field (version 1 carried a free-form dictionary in its place).
WIRE_VERSION = 2

#: The serialization format of every frame, announced in the hello frame.
#: A frame in any other format is rejected with a
#: :class:`~repro.errors.CodecError`.
WIRE_FORMAT = "json"

#: Reserved tag key of the wire representation (see module docstring).
TAG_KEY = "~t"

#: Length prefix of a frame: 4 bytes, big endian.
FRAME_HEADER_SIZE = 4

#: Upper bound on one frame's body; protects receivers from a corrupt or
#: hostile length prefix allocating unbounded buffers.
MAX_FRAME_SIZE = 16 * 1024 * 1024

#: Integers outside the 64-bit range (Chord ring identifiers are 160-bit by
#: default) travel tagged as decimal strings, so a reader that parses JSON
#: numbers as 64-bit integers never sees one it cannot represent.
_INT_MIN = -(2**63)
_INT_MAX = 2**64 - 1


# ---------------------------------------------------------------------------
# Error envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ErrorEnvelope:
    """A serializable description of one exception.

    ``code`` is the exception class name (resolved against the
    :mod:`repro.errors` hierarchy, then builtin exceptions, on the
    receiving side), ``args`` the wire-safe constructor arguments and
    ``debug`` the formatted remote traceback — carried as text, never as a
    live frame chain.
    """

    code: str
    message: str
    args: tuple[Any, ...] = ()
    debug: str = ""


def _wire_safe_arg(value: Any) -> Any:
    """Exception args restricted to scalars; anything else becomes a repr."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _build_error_registry() -> Dict[str, type]:
    """Exception classes reconstructible by name on the receiving side."""
    import builtins

    from .. import errors as errors_module

    registry: Dict[str, type] = {}
    for name, obj in vars(builtins).items():
        if isinstance(obj, type) and issubclass(obj, Exception):
            registry[name] = obj
    for name, obj in vars(errors_module).items():
        if isinstance(obj, type) and issubclass(obj, ReproError):
            registry[name] = obj
    return registry


_ERROR_REGISTRY = _build_error_registry()


def envelope_from_exception(exc: BaseException, *, debug: bool = True) -> ErrorEnvelope:
    """Flatten ``exc`` into a wire-safe :class:`ErrorEnvelope`."""
    from ..errors import CheckpointUnavailable, PatchUnavailable, StaleTimestamp

    # Classes with derived-message constructors are rebuilt from their
    # carried attributes, not from ``args`` (which hold the formatted text).
    if isinstance(exc, StaleTimestamp):
        args: tuple[Any, ...] = (exc.expected, exc.last_ts)
    elif isinstance(exc, (PatchUnavailable, CheckpointUnavailable)):
        args = (exc.key, _wire_safe_arg(exc.ts))
    else:
        args = tuple(_wire_safe_arg(value) for value in getattr(exc, "args", ()))
    debug_text = ""
    if debug and exc.__traceback__ is not None:
        debug_text = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    return ErrorEnvelope(
        code=type(exc).__name__, message=str(exc), args=args, debug=debug_text
    )


def exception_from_envelope(envelope: ErrorEnvelope) -> BaseException:
    """Reconstruct the exception an :class:`ErrorEnvelope` describes.

    Unknown codes (a newer peer, a custom class the receiver does not
    have) degrade to :class:`~repro.errors.NetworkError` carrying the
    remote code and message; the remote traceback, when present, is
    attached as ``remote_traceback`` for debugging.
    """
    cls = _ERROR_REGISTRY.get(envelope.code)
    error: Optional[BaseException] = None
    if cls is not None:
        try:
            error = cls(*envelope.args)
        except Exception:  # noqa: BLE001 - constructor mismatch, fall through
            try:
                error = cls(envelope.message)
            except Exception:  # noqa: BLE001
                error = None
    if error is None:
        error = NetworkError(f"remote error {envelope.code}: {envelope.message}")
    if envelope.debug:
        error.remote_traceback = envelope.debug  # type: ignore[attr-defined]
    return error


# ---------------------------------------------------------------------------
# The wire-type registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireType:
    """How one Python type crosses the wire.

    ``pack(obj, to_wire)`` returns the jsonable body stored under the tag;
    ``unpack(body, from_wire)`` rebuilds the object; ``copy(obj, copier)``
    is the structural copy applied per simulated delivery (identity for
    fully immutable types).
    """

    tag: str
    cls: type
    pack: Callable[[Any, Callable[[Any], Any]], Any]
    unpack: Callable[[Any, Callable[[Any], Any]], Any]
    copy: Callable[[Any, Callable[[Any], Any]], Any]


_WIRE_TYPES: Dict[type, WireType] = {}
_WIRE_TAGS: Dict[str, WireType] = {}


def register_wire_type(
    cls: type,
    tag: str,
    pack: Callable[[Any, Callable[[Any], Any]], Any],
    unpack: Callable[[Any, Callable[[Any], Any]], Any],
    copy: Optional[Callable[[Any, Callable[[Any], Any]], Any]] = None,
) -> None:
    """Register ``cls`` under ``tag``; layers call this at import time.

    Re-registering the same class under its tag is a no-op (module
    reloads); claiming an occupied tag for a different class is an error.
    """
    existing = _WIRE_TAGS.get(tag)
    if existing is not None and existing.cls.__qualname__ != cls.__qualname__:
        raise CodecError(
            f"wire tag {tag!r} already registered for {existing.cls.__qualname__}"
        )
    if copy is None:
        copy = lambda obj, copier: obj  # noqa: E731 - immutable by declaration
        _IMMUTABLE_LEAVES.add(cls)
    else:
        _IMMUTABLE_LEAVES.discard(cls)
    wire_type = WireType(tag=tag, cls=cls, pack=pack, unpack=unpack, copy=copy)
    _WIRE_TYPES[cls] = wire_type
    _WIRE_TAGS[tag] = wire_type


def registered_wire_tags() -> list[str]:
    """All registered tags (diagnostics and completeness tests)."""
    return sorted(_WIRE_TAGS)


# ---------------------------------------------------------------------------
# Value tree <-> wire tree
# ---------------------------------------------------------------------------


def _tagged(tag: str, body: Any) -> dict:
    return {TAG_KEY: tag, "v": body}


def to_wire(obj: Any) -> Any:
    """Lower a payload object to the jsonable wire tree."""
    if obj is None or obj is True or obj is False:
        return obj
    kind = type(obj)
    if kind is str:
        return obj
    if kind is int:
        if _INT_MIN <= obj <= _INT_MAX:
            return obj
        return _tagged("bigint", str(obj))
    if kind is float:
        if math.isfinite(obj):
            return obj
        return _tagged("float", repr(obj))
    if kind is dict:
        if all(type(key) is str for key in obj) and TAG_KEY not in obj:
            return {key: to_wire(value) for key, value in obj.items()}
        return _tagged("map", [[to_wire(key), to_wire(value)] for key, value in obj.items()])
    if kind is list:
        return [to_wire(item) for item in obj]
    if kind is tuple:
        return _tagged("tuple", [to_wire(item) for item in obj])
    if kind in (bytes, bytearray):
        return _tagged("bytes", base64.b64encode(bytes(obj)).decode("ascii"))
    if kind in (set, frozenset):
        # Set iteration order is hash-randomized across processes; a sorted
        # rendering keeps encodings byte-stable for identical sets.
        items = sorted((to_wire(item) for item in obj), key=repr)
        return _tagged("set" if kind is set else "frozenset", items)
    if isinstance(obj, BaseException):
        obj = envelope_from_exception(obj)
        kind = ErrorEnvelope
    wire_type = _WIRE_TYPES.get(kind)
    if wire_type is None:
        raise CodecError(
            f"type {type(obj).__qualname__} is not wire-encodable; register it "
            f"with repro.net.codec.register_wire_type"
        )
    return _tagged(wire_type.tag, wire_type.pack(obj, to_wire))


_CONTAINER_TAGS = {
    "bigint": lambda body, dec: int(body),
    "float": lambda body, dec: float(body),
    "bytes": lambda body, dec: base64.b64decode(body.encode("ascii")),
    "tuple": lambda body, dec: tuple(dec(item) for item in body),
    "set": lambda body, dec: {dec(item) for item in body},
    "frozenset": lambda body, dec: frozenset(dec(item) for item in body),
    "map": lambda body, dec: {dec(key): dec(value) for key, value in body},
}


def from_wire(wire: Any) -> Any:
    """Rebuild a payload object from its wire tree."""
    kind = type(wire)
    if kind is list:
        return [from_wire(item) for item in wire]
    if kind is not dict:
        return wire
    tag = wire.get(TAG_KEY)
    if tag is None:
        return {key: from_wire(value) for key, value in wire.items()}
    body = wire.get("v")
    container = _CONTAINER_TAGS.get(tag)
    if container is not None:
        try:
            return container(body, from_wire)
        except CodecError:
            raise
        except Exception as exc:  # noqa: BLE001 - attacker-controlled body
            raise CodecError(
                f"malformed body for container tag {tag!r}: {exc}"
            ) from exc
    wire_type = _WIRE_TAGS.get(tag)
    if wire_type is None:
        raise CodecError(f"unknown wire tag {tag!r}; peer speaks a newer protocol?")
    try:
        return wire_type.unpack(body, from_wire)
    except CodecError:
        raise
    except Exception as exc:  # noqa: BLE001 - a tagged body is wire input,
        # and unpack hooks index into it; any structural surprise an
        # attacker cooks up must surface as a typed decode error.
        raise CodecError(f"malformed body for wire tag {tag!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Structural payload copy (applied per simulated delivery)
# ---------------------------------------------------------------------------

#: Types whose instances are immutable all the way down: shared, not copied.
_ATOMIC_TYPES = (type(None), bool, int, float, str, bytes, Address, MessageKind)

#: The copy fast path: exact types returned by reference.  Seeded with the
#: atomics; :func:`register_wire_type` adds every registered type declared
#: immutable (``copy=None`` — those were shared by their identity-copy
#: hook already, the set only skips the registry dispatch) and removes
#: types re-registered with a real copy hook.
_IMMUTABLE_LEAVES: set[type] = set(_ATOMIC_TYPES)


def copy_payload(obj: Any) -> Any:
    """A copy of ``obj`` with the aliasing a real wire would sever.

    Semantically equivalent to ``from_wire(to_wire(obj))`` but without the
    byte-level serialization: immutable values are shared, containers and
    mutable registered types are rebuilt.  Unknown objects fall back to
    :func:`copy.deepcopy`, so sim-mode tests may still route arbitrary
    payloads.

    This runs once per simulated delivery, so the common shapes take an
    exact-type fast path: immutable leaves (atomics plus identity-copy
    registered wire types) return by reference after one set lookup, and
    a tuple or frozenset whose items all copied to themselves is itself
    returned by reference — receivers cannot mutate either, so sharing
    the container is indistinguishable from rebuilding it.  Mutable
    containers (dict, list, set) are always rebuilt; that is the
    mutation-severing contract.  ``tests/test_copy_fastpath.py`` holds
    the property suite pinning equivalence with the structural copy.
    """
    kind = obj.__class__
    if kind in _IMMUTABLE_LEAVES:
        return obj
    if kind is dict:
        return {key: copy_payload(value) for key, value in obj.items()}
    if kind is list:
        return [copy_payload(item) for item in obj]
    if kind is tuple:
        copied = tuple(copy_payload(item) for item in obj)
        for original, item in zip(obj, copied):
            if item is not original:
                return copied
        return obj
    if kind is set:
        return {copy_payload(item) for item in obj}
    if kind is frozenset:
        copied = [copy_payload(item) for item in obj]
        for original, item in zip(obj, copied):
            if item is not original:
                return frozenset(copied)
        return obj
    if isinstance(obj, _ATOMIC_TYPES):
        return obj  # atomic subclasses (enums, bool/str subtypes)
    wire_type = _WIRE_TYPES.get(kind)
    if wire_type is not None:
        return wire_type.copy(obj, copy_payload)
    if isinstance(obj, BaseException):
        return obj  # error payloads: reconstructed via envelopes, never mutated
    return _copy.deepcopy(obj)


def copy_message(message: Message) -> Message:
    """The message the destination receives: same fields, unshared payload."""
    payload = copy_payload(message.payload)
    if payload is message.payload:
        return message
    return Message(
        source=message.source,
        destination=message.destination,
        kind=message.kind,
        method=message.method,
        payload=payload,
        request_id=message.request_id,
        is_error=message.is_error,
        sent_at=message.sent_at,
    )


# ---------------------------------------------------------------------------
# Envelopes and frames
# ---------------------------------------------------------------------------


def _dumps(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _loads(data: bytes) -> Any:
    if not data:
        raise CodecError("empty wire frame")
    if data[:1] != b"{":
        raise CodecError(f"not a {WIRE_FORMAT} wire envelope: starts with {data[:1]!r}")
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed JSON frame: {exc}") from exc


def _envelope(kind: str, wire: Any) -> bytes:
    return _dumps({"v": WIRE_VERSION, "k": kind, "d": wire})


def _open_envelope(data: bytes) -> tuple[str, Any]:
    envelope = _loads(data)
    if not isinstance(envelope, dict) or "v" not in envelope:
        raise CodecError("frame is not a wire envelope")
    version = envelope["v"]
    if version != WIRE_VERSION:
        raise CodecError(
            f"unsupported wire version {version!r} (this peer speaks {WIRE_VERSION})"
        )
    return envelope.get("k", "payload"), envelope.get("d")


def encode(obj: Any) -> bytes:
    """Serialize one payload object (not a whole message)."""
    return _envelope("payload", to_wire(obj))


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    kind, wire = _open_envelope(data)
    if kind != "payload":
        raise CodecError(f"expected a payload envelope, got {kind!r}")
    return from_wire(wire)


def encode_message(message: Message) -> bytes:
    """Serialize a complete :class:`~repro.net.message.Message`."""
    return _envelope("message", to_wire(message))


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`."""
    kind, wire = _open_envelope(data)
    if kind != "message":
        raise CodecError(f"expected a message envelope, got {kind!r}")
    message = from_wire(wire)
    if not isinstance(message, Message):
        raise CodecError(f"message envelope decoded to {type(message).__qualname__}")
    return message


def encode_hello(process: str) -> bytes:
    """The first frame of every wire connection: version + identity."""
    return _envelope("hello", {"process": process, "format": WIRE_FORMAT})


def decode_any(data: bytes) -> tuple[str, Any]:
    """Dispatch helper for connection readers: ``(kind, decoded body)``.

    ``kind`` is ``"hello"`` (body: the plain info dict), ``"message"``
    (body: the :class:`Message`) or ``"payload"`` (body: the object).
    """
    kind, wire = _open_envelope(data)
    if kind == "hello":
        if not isinstance(wire, dict):
            raise CodecError("malformed hello frame")
        return kind, wire
    if kind == "message":
        message = from_wire(wire)
        if not isinstance(message, Message):
            raise CodecError(
                f"message envelope decoded to {type(message).__qualname__}"
            )
        return kind, message
    if kind != "payload":
        raise CodecError(f"unknown envelope kind {kind!r}")
    return "payload", from_wire(wire)


def frame(data: bytes) -> bytes:
    """Prefix ``data`` with its 4-byte big-endian length."""
    if len(data) > MAX_FRAME_SIZE:
        raise CodecError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_SIZE}")
    return len(data).to_bytes(FRAME_HEADER_SIZE, "big") + data


class FrameDecoder:
    """Incremental splitter of a byte stream into frames.

    Feed arbitrary chunks (as a socket produces them); complete frame
    bodies come back in order.  A length prefix above the size bound
    raises :class:`~repro.errors.CodecError` — the stream is corrupt and
    the connection should be dropped.
    """

    def __init__(self, max_frame_size: int = MAX_FRAME_SIZE) -> None:
        self.max_frame_size = max_frame_size
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Consume ``data``; return every frame body completed by it."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < FRAME_HEADER_SIZE:
                return frames
            size = int.from_bytes(self._buffer[:FRAME_HEADER_SIZE], "big")
            if size > self.max_frame_size:
                raise CodecError(
                    f"incoming frame of {size} bytes exceeds {self.max_frame_size}"
                )
            end = FRAME_HEADER_SIZE + size
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[FRAME_HEADER_SIZE:end]))
            del self._buffer[:end]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# Net-layer wire types (higher layers register their own at import time)
# ---------------------------------------------------------------------------

register_wire_type(
    Address,
    "addr",
    pack=lambda obj, enc: [obj.name, obj.site],
    unpack=lambda body, dec: Address(body[0], body[1]),
)

register_wire_type(
    MessageKind,
    "kind",
    pack=lambda obj, enc: obj.value,
    unpack=lambda body, dec: MessageKind(body),
)

register_wire_type(
    ErrorEnvelope,
    "error",
    pack=lambda obj, enc: [obj.code, obj.message, [enc(a) for a in obj.args], obj.debug],
    unpack=lambda body, dec: ErrorEnvelope(
        code=body[0],
        message=body[1],
        args=tuple(dec(item) for item in body[2]),
        debug=body[3],
    ),
)

register_wire_type(
    Message,
    "msg",
    pack=lambda obj, enc: [
        enc(obj.source),
        enc(obj.destination),
        enc(obj.kind),
        obj.method,
        enc(obj.payload),
        obj.request_id,
        obj.is_error,
        obj.sent_at,
    ],
    unpack=lambda body, dec: Message(
        source=dec(body[0]),
        destination=dec(body[1]),
        kind=dec(body[2]),
        method=body[3],
        payload=dec(body[4]),
        request_id=body[5],
        is_error=body[6],
        sent_at=body[7],
    ),
    copy=lambda obj, copier: copy_message(obj),
)
