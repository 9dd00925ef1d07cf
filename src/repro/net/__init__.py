"""Network substrate: addresses, messages, latency, fault state, RPC.

This package replaces the Java RMI transport of the original P2P-LTR
prototype with a runtime-driven message layer (see the substitution table
in ``DESIGN.md``): deterministic under the simulation backend, wall-clock
concurrent under the asyncio backend.  The socket transport
(:class:`WireNetwork`, :class:`WireEndpoint`) is loaded on first use, so a
simulated process never imports asyncio.
"""

from .address import Address, make_addresses
from .codec import (
    WIRE_VERSION,
    ErrorEnvelope,
    FrameDecoder,
    copy_payload,
    decode,
    decode_message,
    encode,
    encode_message,
    envelope_from_exception,
    exception_from_envelope,
    frame,
    register_wire_type,
)
from .failures import PartitionManager, PerturbationWindow
from .latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    PairwiseLatency,
    SiteAwareLatency,
    UniformLatency,
    latency_preset,
)
from .message import Message, MessageKind, TrafficStats, payload_size
from .rpc import RpcAgent, normalize_backend_error
from .transport import Network

__all__ = [
    "WireEndpoint",
    "WireNetwork",
    "Address",
    "ErrorEnvelope",
    "FrameDecoder",
    "WIRE_VERSION",
    "copy_payload",
    "decode",
    "decode_message",
    "encode",
    "encode_message",
    "envelope_from_exception",
    "exception_from_envelope",
    "frame",
    "register_wire_type",
    "ConstantLatency",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "MessageKind",
    "Network",
    "PairwiseLatency",
    "PartitionManager",
    "PerturbationWindow",
    "RpcAgent",
    "SiteAwareLatency",
    "TrafficStats",
    "UniformLatency",
    "latency_preset",
    "make_addresses",
    "normalize_backend_error",
    "payload_size",
]


def __getattr__(name: str):
    if name in ("WireEndpoint", "WireNetwork"):
        from . import wire

        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
