"""Remote procedure calls over the simulated network.

The paper's prototype uses Java RMI for peer-to-peer communication; this
module is its simulated stand-in.  An :class:`RpcAgent` owns an address,
registers handler functions by name, and can invoke methods on remote agents
either asynchronously (:meth:`RpcAgent.call`, returning a future to yield
on) or through the retry-aware generator helper :meth:`RpcAgent.request`.

Handlers may be plain functions (returning their result directly) or
generator functions (run as simulation processes, so a handler can itself
perform further RPCs before responding).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional

from ..errors import (
    NetworkError,
    NodeUnreachable,
    ReproError,
    RequestTimeout,
    UnknownRpcMethod,
)
from ..runtime import Event, Future, Runtime
from .address import Address
from .codec import ErrorEnvelope, envelope_from_exception, exception_from_envelope
from .message import Message, MessageKind
from .transport import Network

Handler = Callable[..., Any]

#: ``(attribute, method)`` pairs of every ``rpc_`` attribute of a class,
#: found once per class by :meth:`RpcAgent.expose_object` (``dir`` over a
#: node class is costly).  Names only, never functions; an ``rpc_`` name a
#: class gains after its first object was exposed is not seen.
_RPC_NAMES: Dict[type, tuple[tuple[str, str], ...]] = {}

#: Request ids live in an unsigned 32-bit wire field; allocation wraps
#: back to 1 at this bound instead of growing without limit.
REQUEST_ID_LIMIT = 2**32


def normalize_backend_error(exc: BaseException) -> BaseException:
    """Map raw runtime-backend failures onto the ``repro`` exception hierarchy.

    Protocol code catches :class:`~repro.errors.RequestTimeout` and
    :class:`~repro.errors.NodeUnreachable`; a backend with real timers and
    transports (the asyncio runtime, later real sockets) can instead
    surface builtin ``TimeoutError``/``OSError`` from a handler or a timer.
    This is the single choke point that normalizes those onto the
    :class:`~repro.errors.RuntimeBackendError`-adjacent network errors, so
    every layer above sees one failure vocabulary regardless of backend.
    ``repro`` exceptions (and anything else) pass through unchanged.
    """
    if isinstance(exc, ReproError):
        return exc
    if isinstance(exc, TimeoutError):
        normalized: BaseException = RequestTimeout(f"backend timeout: {exc!r}")
        normalized.__cause__ = exc
        return normalized
    if isinstance(exc, OSError):
        normalized = NodeUnreachable(f"backend transport failure: {exc!r}")
        normalized.__cause__ = exc
        return normalized
    return exc


class RpcAgent:
    """A network endpoint that can expose and invoke named methods."""

    def __init__(self, runtime: Runtime, network: Network, address: Address) -> None:
        self.runtime = runtime
        self.network = network
        self.address = address
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[int, Future] = {}
        self._timers: Dict[int, Event] = {}
        self._next_request_id = 1
        self._online = False
        network.register(address, self)
        self._online = True

    # -- lifecycle -----------------------------------------------------------

    def go_offline(self, *, crash: bool = False) -> None:
        """Leave the network (gracefully, or abruptly when ``crash=True``).

        Pending outgoing requests are failed immediately with
        :class:`~repro.errors.NodeUnreachable` so caller processes do not
        hang until their timeouts when their own peer disappears.
        """
        if not self._online:
            return
        self._online = False
        if crash:
            self.network.crash(self.address)
        else:
            self.network.unregister(self.address)
        pending = list(self._pending.values())
        self._pending.clear()
        timers = list(self._timers.values())
        self._timers.clear()
        for timer in timers:
            timer.cancel()
        for future in pending:
            if not future.triggered:
                future.fail(NodeUnreachable(f"{self.address} went offline"))

    def go_online(self) -> None:
        """(Re-)register with the network, e.g. after a simulated restart."""
        if self._online:
            return
        self.network.register(self.address, self)
        self._online = True

    # -- handler registration -------------------------------------------------

    def expose(self, name: str, handler: Handler) -> None:
        """Register ``handler`` under ``name`` for incoming requests."""
        if not callable(handler):
            raise TypeError(f"handler for {name!r} is not callable")
        self._handlers[name] = handler

    def expose_object(self, obj: Any, prefix: str = "") -> None:
        """Expose every public ``rpc_``-prefixed method of ``obj``.

        A method named ``rpc_find_successor`` becomes callable remotely as
        ``find_successor`` (optionally prefixed).  The names are found once
        per class (:data:`_RPC_NAMES`) but each handler is bound from ``obj``
        here, so a class attribute replaced after an earlier object was
        exposed (a tracing wrapper, a test's patch) is what this one serves.
        """
        cls = type(obj)
        names = _RPC_NAMES.get(cls)
        if names is None:
            names = _RPC_NAMES[cls] = tuple(
                (attribute_name, attribute_name[len("rpc_"):])
                for attribute_name in dir(cls)
                if attribute_name.startswith("rpc_")
            )
        for attribute_name, method in names:
            handler = getattr(obj, attribute_name)
            if callable(handler):
                self._handlers[prefix + method] = handler

    def handlers(self) -> list[str]:
        """Names of all exposed methods."""
        return sorted(self._handlers)

    # -- outgoing calls ---------------------------------------------------------

    def _allocate_request_id(self) -> int:
        """The next free correlation id, wrapping safely at the wire bound.

        A long-lived agent (the cluster mode runs for days) must not grow
        its ids without limit, and after wrapping it must not reuse an id
        whose request is still pending — a stale response would settle the
        wrong future.
        """
        candidate = self._next_request_id
        while candidate in self._pending:
            candidate += 1
            if candidate >= REQUEST_ID_LIMIT:
                candidate = 1
        self._next_request_id = candidate + 1
        if self._next_request_id >= REQUEST_ID_LIMIT:
            self._next_request_id = 1
        return candidate

    def call(
        self,
        destination: Address,
        method: str,
        timeout: Optional[float] = None,
        **arguments: Any,
    ) -> Future:
        """Invoke ``method`` on the peer at ``destination``.

        Returns a :class:`~repro.sim.Future` that succeeds with the remote
        return value, or fails with the remote exception, a
        :class:`~repro.errors.RequestTimeout` or
        :class:`~repro.errors.NodeUnreachable`.
        """
        future = self.runtime.future()
        if not self._online:
            future.fail(NodeUnreachable(f"{self.address} is offline"))
            return future

        request_id = self._allocate_request_id()
        # ``arguments`` is this call's own kwargs dict — nothing else can
        # alias it, so it rides in the message as-is (delivery severs
        # aliasing for the receiver; see Network._deliver).
        message = Message(
            source=self.address,
            destination=destination,
            kind=MessageKind.REQUEST,
            method=method,
            payload=arguments,
            request_id=request_id,
            sent_at=self.runtime.now,
        )
        self._pending[request_id] = future
        self.network.send(message)

        effective_timeout = timeout if timeout is not None else self.network.default_timeout
        timeout_event = self.runtime.timeout(effective_timeout)
        self._timers[request_id] = timeout_event

        def on_timeout(_event: Any) -> None:
            self._timers.pop(request_id, None)
            pending = self._pending.pop(request_id, None)
            if pending is not None and not pending.triggered:
                pending.fail(
                    RequestTimeout(
                        f"{method} to {destination} timed out after {effective_timeout}s"
                    )
                )

        timeout_event.callbacks.append(on_timeout)  # fresh event: append directly
        return future

    def request(
        self,
        destination: Address,
        method: str,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_delay: float = 0.0,
        **arguments: Any,
    ):
        """Generator helper adding retries on timeout; use with ``yield from``.

        Example (inside a simulation process)::

            successor = yield from agent.request(peer, "find_successor", ident=42,
                                                 retries=2)
        """
        attempt = 0
        while True:
            try:
                result = yield self.call(destination, method, timeout=timeout, **arguments)
                return result
            except RequestTimeout:
                attempt += 1
                if attempt > retries:
                    raise
                if retry_delay > 0:
                    yield self.runtime.timeout(retry_delay)

    def notify(self, destination: Address, method: str, **arguments: Any) -> None:
        """Send a one-way message (no response expected)."""
        if not self._online:
            return
        message = Message(
            source=self.address,
            destination=destination,
            kind=MessageKind.ONEWAY,
            method=method,
            payload=arguments,
            request_id=0,
            sent_at=self.runtime.now,
        )
        self.network.send(message)

    # -- incoming messages -------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Entry point called by the network when a message arrives."""
        if not self._online:
            return
        if message.kind is MessageKind.RESPONSE:
            self._handle_response(message)
        elif message.kind is MessageKind.REQUEST:
            self._handle_request(message)
        else:
            self._handle_oneway(message)

    def _handle_response(self, message: Message) -> None:
        future = self._pending.pop(message.request_id, None)
        timer = self._timers.pop(message.request_id, None)
        if timer is not None:
            # The request settled: retract its watchdog instead of leaving a
            # dead timer in the scheduler until it expires (tombstoned; the
            # kernel compacts them — see repro.sim.scheduler).
            timer.cancel()
        if future is None or future.triggered:
            return  # response arrived after the timeout already fired
        if message.is_error:
            future.fail(self._error_from_payload(message.payload))
        else:
            future.succeed(message.payload)

    @staticmethod
    def _error_from_payload(payload: Any) -> BaseException:
        """The exception an error response describes.

        Error responses carry :class:`~repro.net.codec.ErrorEnvelope`
        payloads (typed code + args), reconstructed here so callers catch
        the same exception classes they always did — never the responder's
        live exception object.  A live exception (a hand-built response
        from a test harness) and anything unrecognized degrade gracefully.
        """
        if isinstance(payload, ErrorEnvelope):
            return exception_from_envelope(payload)
        if isinstance(payload, BaseException):
            return normalize_backend_error(payload)
        return NetworkError(f"error response with malformed payload: {payload!r}")

    def _handle_request(self, message: Message) -> None:
        handler = self._handlers.get(message.method)
        if handler is None:
            self._respond(message, UnknownRpcMethod(message.method), is_error=True)
            return
        try:
            outcome = handler(**(message.payload or {}))
        except Exception as exc:  # noqa: BLE001 - forwarded to the caller
            self._respond(message, normalize_backend_error(exc), is_error=True)
            return
        if inspect.isgenerator(outcome):
            process = self.runtime.process(outcome, name=f"{self.address}:{message.method}")
            process.add_callback(lambda event: self._respond_from_event(message, event))
        else:
            self._respond(message, outcome)

    def _handle_oneway(self, message: Message) -> None:
        handler = self._handlers.get(message.method)
        if handler is None:
            return
        try:
            outcome = handler(**(message.payload or {}))
        except Exception:  # noqa: BLE001 - one-way failures are dropped
            return
        if inspect.isgenerator(outcome):
            self.runtime.process(outcome, name=f"{self.address}:{message.method}")

    def _respond_from_event(self, request: Message, event: Any) -> None:
        if event.ok:
            self._respond(request, event.value)
        else:
            self._respond(request, normalize_backend_error(event.value), is_error=True)

    def _respond(self, request: Message, payload: Any, *, is_error: bool = False) -> None:
        if not self._online:
            return
        if is_error and isinstance(payload, BaseException):
            # Exceptions never cross the wire as live objects: flatten to a
            # typed envelope here, reconstructed in _error_from_payload.
            payload = envelope_from_exception(payload)
        response = request.reply(payload, is_error=is_error, sent_at=self.runtime.now)
        self.network.send(response)
