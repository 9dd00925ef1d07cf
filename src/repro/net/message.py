"""Message types exchanged over the simulated network.

The network layer is deliberately transport-agnostic: every interaction is a
:class:`Message` carrying a *kind* (request, response or one-way), a method
name and an arbitrary payload.  The RPC layer (:mod:`repro.net.rpc`) builds
its request/response correlation on top of these fields.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .address import Address


class MessageKind(Enum):
    """Discriminates the three message categories used by the RPC layer."""

    REQUEST = "request"
    RESPONSE = "response"
    ONEWAY = "oneway"


@dataclass(frozen=True, slots=True)
class Message:
    """A single message travelling between two endpoints.

    Attributes
    ----------
    source, destination:
        Endpoint addresses.
    kind:
        Request, response or one-way notification.
    method:
        Name of the remote method being invoked (requests/one-ways) or that
        was invoked (responses).
    payload:
        Arguments for requests (a mapping), the return value for successful
        responses, or the exception instance for failed responses.
    request_id:
        Correlation identifier linking a response to its request.
    is_error:
        ``True`` for responses that carry an exception as their payload.
    sent_at:
        Simulated time at which the message was handed to the network.
    """

    source: Address
    destination: Address
    kind: MessageKind
    method: str
    payload: Any = None
    request_id: int = 0
    is_error: bool = False
    sent_at: float = 0.0

    def reply(self, payload: Any, *, sent_at: float, is_error: bool = False) -> "Message":
        """Build the response message for this request.

        ``sent_at`` is deliberately required: a response stamped with the
        dataclass default (epoch zero) would poison live-mode latency
        metrics and perturbation-window accounting, so the responder must
        pass its runtime clock explicitly.
        """
        if self.kind is not MessageKind.REQUEST:
            raise ValueError("only request messages can be replied to")
        return Message(
            source=self.destination,
            destination=self.source,
            kind=MessageKind.RESPONSE,
            method=self.method,
            payload=payload,
            request_id=self.request_id,
            is_error=is_error,
            sent_at=sent_at,
        )

    def size_estimate(self) -> int:
        """A rough byte-size estimate used only for traffic accounting."""
        return 64 + _payload_size(self.payload)


def _payload_size(payload: Any) -> int:
    """Best-effort structural size estimate of a message payload.

    Runs once per sent message over the whole payload tree, so the common
    cases dispatch on the exact type (no ABC machinery, no generator
    frames); the slow tail below preserves the original semantics for
    subclasses and arbitrary objects.  Slotted dataclasses (``Message``
    and friends after the ``__slots__`` diet) no longer have a
    ``__dict__``, so they are sized field-by-field — the exact sum the
    old ``vars()`` branch produced.
    """
    kind = payload.__class__
    if kind is dict:
        total = 0
        for key, value in payload.items():
            total += len(key) if key.__class__ is str else _payload_size(key)
            vkind = value.__class__
            if vkind is str:
                total += len(value)
            elif vkind is int or vkind is float or vkind is bool:
                total += 8
            else:
                total += _payload_size(value)
        return total
    if kind is str or kind is bytes:
        return len(payload)
    if kind is int or kind is float or kind is bool:
        return 8
    if payload is None:
        return 0
    if kind is list or kind is tuple or kind is set or kind is frozenset:
        total = 0
        for item in payload:
            ikind = item.__class__
            if ikind is str:
                total += len(item)
            elif ikind is int or ikind is float or ikind is bool:
                total += 8
            else:
                total += _payload_size(item)
        return total
    # Slow tail: the branch a class takes is decided once per class (using
    # exactly the original isinstance cascade, in the original order, so
    # subclasses size identically) and memoized — domain objects then skip
    # straight to their branch instead of re-walking the ABC checks.
    code = _TAIL_CODES.get(kind)
    if code is None:
        code = _classify_tail(payload, kind)
    if code == _TAIL_VARS:
        # Equivalent to ``_payload_size(vars(payload))``: the attribute
        # dict sized with the same inline-leaf loop as the dict branch.
        total = 0
        for key, value in vars(payload).items():
            total += len(key) if key.__class__ is str else _payload_size(key)
            vkind = value.__class__
            if vkind is str:
                total += len(value)
            elif vkind is int or vkind is float or vkind is bool:
                total += 8
            else:
                total += _payload_size(value)
        return total
    if code == _TAIL_FIELDS:
        names, total = _DATACLASS_SIZERS[kind]
        for name in names:
            value = getattr(payload, name)
            vkind = value.__class__
            if vkind is str:
                total += len(value)
            elif vkind is int or vkind is float or vkind is bool:
                total += 8
            else:
                total += _payload_size(value)
        return total
    if code == _TAIL_SCALAR:
        return 8
    if code == _TAIL_SIZED:
        return len(payload)
    if code == _TAIL_MAPPING:
        return sum(_payload_size(key) + _payload_size(value) for key, value in payload.items())
    if code == _TAIL_SEQ:
        return sum(_payload_size(item) for item in payload)
    return 32


#: Public name: the Master-key peer bounds what a *behind* answer may carry
#: in the same currency the traffic accounting uses.
payload_size = _payload_size

_TAIL_SCALAR = 0   # bool/int/float subclasses -> 8
_TAIL_SIZED = 1    # str/bytes subclasses -> len()
_TAIL_MAPPING = 2  # Mapping ABC -> per-entry sum
_TAIL_SEQ = 3      # list/tuple/set/frozenset subclasses -> per-item sum
_TAIL_VARS = 4     # objects with a __dict__ -> sized via their attributes
_TAIL_FIELDS = 5   # slotted dataclasses -> sized field by field
_TAIL_OPAQUE = 6   # anything else -> flat 32

#: Memoized slow-tail branch per payload class (see ``_classify_tail``).
_TAIL_CODES: dict[type, int] = {}

#: Per-class ``(field names, constant name-size sum)`` for slotted
#: dataclasses (which have no ``__dict__`` to size via ``vars()``).
_DATACLASS_SIZERS: dict[type, tuple[tuple[str, ...], int]] = {}


def _classify_tail(payload: Any, kind: type) -> int:
    """Decide (and memoize) which slow-tail branch ``kind`` takes.

    Runs the original isinstance cascade once, on the first instance of a
    class seen; every branch depends only on the class, so the decision is
    safe to reuse for all later instances.
    """
    if isinstance(payload, (bool, int, float)):
        code = _TAIL_SCALAR
    elif isinstance(payload, (str, bytes)):
        code = _TAIL_SIZED
    elif isinstance(payload, Mapping):
        code = _TAIL_MAPPING
    elif isinstance(payload, (list, tuple, set, frozenset)):
        code = _TAIL_SEQ
    elif hasattr(payload, "__dict__"):
        code = _TAIL_VARS
    elif getattr(kind, "__dataclass_fields__", None) is not None:
        names = tuple(kind.__dataclass_fields__)
        # Field names are plain strings, so their contribution is the
        # per-class constant sum(len(name)) — computed once per class.
        _DATACLASS_SIZERS[kind] = (names, sum(len(name) for name in names))
        code = _TAIL_FIELDS
    else:
        code = _TAIL_OPAQUE
    _TAIL_CODES[kind] = code
    return code


@dataclass(slots=True)
class TrafficStats:
    """Aggregate traffic counters maintained by the network."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    per_method: dict[str, int] = field(default_factory=dict)

    def record_sent(self, message: Message) -> None:
        self.sent += 1
        # Inline of message.size_estimate(): runs once per simulated send.
        self.bytes_sent += 64 + _payload_size(message.payload)
        per_method = self.per_method
        method = message.method
        per_method[method] = per_method.get(method, 0) + 1

    def record_delivered(self, message: Message) -> None:
        self.delivered += 1

    def record_dropped(self, message: Message) -> None:
        self.dropped += 1

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy suitable for experiment reports."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "bytes_sent": self.bytes_sent,
            "per_method": dict(self.per_method),
        }
