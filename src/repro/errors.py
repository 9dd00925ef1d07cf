"""Exception hierarchy for the P2P-LTR reproduction.

Every exception raised by the library derives from :class:`ReproError`, so
applications can catch the whole family with a single ``except`` clause.
Sub-hierarchies mirror the subsystems described in ``DESIGN.md``: the
simulation kernel, the network substrate, the Chord DHT, the timestamp
service, the P2P log and the P2P-LTR protocol itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Execution runtime backends
# ---------------------------------------------------------------------------


class RuntimeBackendError(ReproError):
    """Base class for errors raised by an execution runtime backend.

    A *runtime backend* is whatever drives the stack's clock, timers,
    processes and futures: the deterministic simulation kernel
    (:mod:`repro.sim`, wrapped by ``repro.runtime.SimRuntime``) or the
    wall-clock asyncio backend (``repro.runtime.AsyncioRuntime``).  Raw
    backend failures (``TimeoutError``/``OSError`` leaking out of timers or
    transports) are normalized onto the per-layer hierarchy by the RPC
    layer (:func:`repro.net.rpc.normalize_backend_error`) so protocol code
    only ever sees ``repro`` exceptions.
    """


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(RuntimeBackendError):
    """Base class for errors raised by the discrete-event simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class ProcessInterrupted(SimulationError):
    """A simulation process was interrupted by another process.

    The optional ``cause`` attribute carries the object passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimulationDeadlock(SimulationError):
    """``run(until=...)`` could not reach the requested time: no events left."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for errors raised by the simulated network."""


class NodeUnreachable(NetworkError):
    """A message was sent to a node that has crashed or left the network."""


class RequestTimeout(NetworkError):
    """An RPC did not receive a response within its timeout."""


class UnknownRpcMethod(NetworkError):
    """The remote peer does not expose the requested RPC method."""


class CodecError(NetworkError):
    """A payload could not be serialized to, or decoded from, the wire.

    Raised for unregistered payload types, malformed or oversized frames,
    unknown wire tags and envelope version mismatches (see
    :mod:`repro.net.codec`).
    """


# ---------------------------------------------------------------------------
# Chord DHT
# ---------------------------------------------------------------------------


class DhtError(ReproError):
    """Base class for errors raised by the DHT layer."""


class LookupFailed(DhtError):
    """A Chord lookup could not be resolved (e.g. the ring is broken)."""


#: Errors meaning one routed placement/write failed (the route could not be
#: resolved or the resolved peer did not answer).  Batched DHT operations
#: treat these as per-item failures rather than aborting the whole batch.
PLACEMENT_FAILURES = (LookupFailed, NodeUnreachable, RequestTimeout)


class KeyNotFound(DhtError):
    """``get`` was called for a key that is not stored in the DHT."""


class NodeNotJoined(DhtError):
    """An operation was attempted on a node that is not part of a ring."""


# ---------------------------------------------------------------------------
# Timestamp service (KTS)
# ---------------------------------------------------------------------------


class TimestampError(ReproError):
    """Base class for errors raised by the key-based timestamp service."""


class TimestampGapDetected(TimestampError):
    """A per-key timestamp sequence is no longer continuous."""


class StaleTimestamp(TimestampError):
    """A tentative patch carried a timestamp older than the master's last-ts.

    This is the normal "you are behind, retrieve first" signal of the
    P2P-LTR validation procedure; callers are expected to catch it, run the
    retrieval procedure and retry.
    """

    def __init__(self, expected: int, last_ts: int) -> None:
        super().__init__(f"expected ts {expected} but master last-ts is {last_ts}")
        self.expected = expected
        self.last_ts = last_ts


# ---------------------------------------------------------------------------
# P2P-Log
# ---------------------------------------------------------------------------


class LogError(ReproError):
    """Base class for errors raised by the P2P log."""


class PatchUnavailable(LogError):
    """A patch could not be retrieved from any of its Log-Peer replicas."""

    def __init__(self, key: str, ts: int) -> None:
        super().__init__(f"patch ({key!r}, ts={ts}) unavailable at all replicas")
        self.key = key
        self.ts = ts


class CheckpointUnavailable(LogError):
    """A document checkpoint could not be retrieved from any placement.

    Unlike :class:`PatchUnavailable` this is rarely fatal: checkpoints are
    an acceleration structure, so callers fall back to replaying the full
    patch log when no replica answers.
    """

    def __init__(self, key: str, ts: object = None) -> None:
        what = f"checkpoint ({key!r}, ts={ts})" if ts is not None else f"checkpoints of {key!r}"
        super().__init__(f"{what} unavailable at all placements")
        self.key = key
        self.ts = ts


# ---------------------------------------------------------------------------
# Reconciliation / OT
# ---------------------------------------------------------------------------


class ReconciliationError(ReproError):
    """Base class for errors raised by the reconciliation engine."""


class InvalidOperation(ReconciliationError):
    """A text operation is malformed or does not apply to the document."""


class DivergenceDetected(ReconciliationError):
    """Replicas did not converge although the protocol claims they should."""


# ---------------------------------------------------------------------------
# P2P-LTR protocol
# ---------------------------------------------------------------------------


class LtrError(ReproError):
    """Base class for errors raised by the P2P-LTR protocol layer."""


class ValidationFailed(LtrError):
    """The patch timestamp validation procedure failed permanently."""


class MasterUnavailable(LtrError):
    """No Master-key peer (nor a successor) could be reached for a key."""


class AuthenticationError(LtrError):
    """A patch, log entry or checkpoint failed signature verification.

    Raised when ``LtrConfig.auth_enabled`` is set and an HMAC computed over
    the canonical wire encoding of the object does not match the signature
    it carries: at the Master when a user peer submits an unsigned or
    mis-signed patch, and at user peers when every surviving replica of a
    log entry turns out to be tampered (see ``DESIGN.md`` §"Adversarial
    model & authenticity").
    """

    def __init__(self, message: str, key: object = None, ts: object = None) -> None:
        super().__init__(message)
        self.key = key
        self.ts = ts


class ConfigurationError(ReproError):
    """Invalid configuration was supplied to a component."""


class StorageError(ReproError):
    """A storage backend failed or was used after being closed."""


class ClusterError(ReproError):
    """A multi-process cluster could not be launched, wired or stopped.

    Raised by :mod:`repro.cluster` when a host process fails its readiness
    handshake, dies during startup, or the launcher is driven after
    shutdown.
    """
