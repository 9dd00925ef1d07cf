"""Real-socket transport: the wire codec over TCP or Unix-domain streams.

:class:`WireNetwork` extends the in-process :class:`~repro.net.transport.Network`
with a *routes table* mapping peer names to the processes hosting them.  A
message whose destination lives in this process takes the inherited
in-memory path (latency model, partitions, fidelity copy — byte-identical
semantics to a single-process run); a message routed to another process is
serialized through :mod:`repro.net.codec`, length-prefix framed and written
to a lazily opened stream connection.

Transport semantics are deliberately datagram-like, mirroring the simulated
network's contract: a message that cannot be delivered (peer not yet
listening, connection reset, codec rejection on the receiving side) is
*dropped*, and the RPC layer's timeout/retry machinery — the same machinery
the P2P-LTR failure procedures are built on — is what notices.  Connections
carry a version-checked hello frame first; a peer speaking a different wire
version drops the connection instead of guessing.

The class requires a runtime with a real asyncio event loop
(:class:`~repro.runtime.AsyncioRuntime`); constructing it over the
deterministic simulation backend raises
:class:`~repro.errors.ConfigurationError`, which is what keeps the
simulator's byte-identical artifacts out of reach of socket nondeterminism.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

from ..errors import CodecError, ConfigurationError
from .address import Address
from .codec import FrameDecoder, decode_any, encode_hello, encode_message, frame
from .latency import LatencyModel
from .message import Message
from .transport import Network

#: Per-link cap on queued outbound frames; beyond it new frames are dropped
#: (backpressure degrades to loss, which RPC timeouts absorb).
MAX_OUTBOUND_QUEUE = 4096

#: How often a link retries connecting before dropping the frame that
#: triggered the attempt.  Cluster startup races (the founder not listening
#: yet) resolve within the first few retries.
CONNECT_ATTEMPTS = 5
CONNECT_BACKOFF = 0.1


@dataclass(frozen=True)
class WireEndpoint:
    """Where one cluster process listens.

    Two schemes: ``tcp`` (host + port) and ``uds`` (filesystem path).
    Endpoints render to and parse from URL-style specs (``tcp://host:port``,
    ``uds:///run/peer0.sock``) so they can travel through config files and
    CLI flags unchanged.
    """

    scheme: str
    host: str = ""
    port: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.scheme not in ("tcp", "uds"):
            raise ConfigurationError(f"unknown wire scheme {self.scheme!r}")
        if self.scheme == "tcp" and not self.host:
            raise ConfigurationError("tcp endpoints need a host")
        if self.scheme == "uds" and not self.path:
            raise ConfigurationError("uds endpoints need a path")

    @classmethod
    def parse(cls, spec: Union[str, "WireEndpoint"]) -> "WireEndpoint":
        """Parse ``tcp://host:port`` or ``uds:///path`` (idempotent)."""
        if isinstance(spec, WireEndpoint):
            return spec
        if spec.startswith("tcp://"):
            rest = spec[len("tcp://"):]
            host, separator, port = rest.rpartition(":")
            if not separator or not port.isdigit():
                raise ConfigurationError(f"malformed tcp endpoint {spec!r}")
            return cls("tcp", host=host, port=int(port))
        if spec.startswith("uds://"):
            return cls("uds", path=spec[len("uds://"):])
        raise ConfigurationError(f"malformed wire endpoint {spec!r}")

    def render(self) -> str:
        """The URL-style spec this endpoint parses back from."""
        if self.scheme == "tcp":
            return f"tcp://{self.host}:{self.port}"
        return f"uds://{self.path}"

    def __str__(self) -> str:
        return self.render()


class _OutboundLink:
    """One lazily connected, queue-fed stream to a remote process."""

    def __init__(self, network: "WireNetwork", endpoint: WireEndpoint) -> None:
        self.network = network
        self.endpoint = endpoint
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_OUTBOUND_QUEUE)
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task = network.runtime.spawn(self._run(), name=f"wire-out:{endpoint}")

    def send(self, data: bytes) -> bool:
        """Enqueue one frame; ``False`` when the queue is saturated."""
        try:
            self.queue.put_nowait(data)
            return True
        except asyncio.QueueFull:
            return False

    async def _run(self) -> None:
        while True:
            data = await self.queue.get()
            writer = await self._ensure_connected()
            if writer is None:
                self.network.wire_stats["frames_dropped_out"] += 1
                continue
            try:
                writer.write(data)
                await writer.drain()
                self.network.wire_stats["frames_out"] += 1
            except (ConnectionError, OSError):
                self._disconnect()
                self.network.wire_stats["frames_dropped_out"] += 1

    async def _ensure_connected(self) -> Optional[asyncio.StreamWriter]:
        if self.writer is not None and not self.writer.is_closing():
            return self.writer
        self.writer = None
        for attempt in range(CONNECT_ATTEMPTS):
            try:
                if self.endpoint.scheme == "uds":
                    _reader, writer = await asyncio.open_unix_connection(self.endpoint.path)
                else:
                    _reader, writer = await asyncio.open_connection(
                        self.endpoint.host, self.endpoint.port
                    )
                writer.write(frame(encode_hello(self.network.process_name)))
                await writer.drain()
                self.writer = writer
                return writer
            except (ConnectionError, OSError):
                self.network.wire_stats["connect_failures"] += 1
                await asyncio.sleep(CONNECT_BACKOFF * (attempt + 1))
        return None

    def _disconnect(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    def close(self) -> None:
        self.task.cancel()
        self._disconnect()


class WireNetwork(Network):
    """A :class:`Network` whose remote legs are real stream sockets.

    Parameters
    ----------
    runtime:
        Must expose a live asyncio loop (``AsyncioRuntime``).
    process_name:
        This process's identity, announced in connection hello frames.
    listen:
        The endpoint this process serves (spec string or
        :class:`WireEndpoint`).
    routes:
        Peer name -> endpoint of the process hosting it.  Names routing to
        ``listen`` (and names absent from the table) are local.
    """

    def __init__(
        self,
        runtime,
        *,
        process_name: str,
        listen: Union[str, WireEndpoint],
        routes: Optional[Mapping[str, Union[str, WireEndpoint]]] = None,
        latency: Optional[LatencyModel] = None,
        default_timeout: Optional[float] = None,
    ) -> None:
        if getattr(runtime, "loop", None) is None:
            raise ConfigurationError(
                "WireNetwork needs a runtime with a real event loop "
                "(AsyncioRuntime); the deterministic SimRuntime stays on the "
                "in-memory transport"
            )
        super().__init__(runtime, latency=latency, default_timeout=default_timeout)
        self.process_name = process_name
        self.listen_endpoint = WireEndpoint.parse(listen)
        self.routes: Dict[str, WireEndpoint] = {
            name: WireEndpoint.parse(spec) for name, spec in (routes or {}).items()
        }
        self.wire_stats = {
            "frames_in": 0,
            "frames_out": 0,
            "frames_dropped_out": 0,
            "connect_failures": 0,
            "decode_errors": 0,
            "connections_in": 0,
        }
        self._links: Dict[WireEndpoint, _OutboundLink] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._inbound: set[asyncio.StreamWriter] = set()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind and serve :attr:`listen_endpoint` (blocking until bound)."""
        self.runtime.run_until_complete(self._start_server())

    async def _start_server(self) -> None:
        if self._server is not None:
            return
        if self.listen_endpoint.scheme == "uds":
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.listen_endpoint.path
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.listen_endpoint.host,
                port=self.listen_endpoint.port,
            )
            if self.listen_endpoint.port == 0:
                # The OS picked the port; publish it so route tables built
                # from this endpoint point somewhere real.
                actual = self._server.sockets[0].getsockname()[1]
                self.listen_endpoint = WireEndpoint(
                    "tcp", host=self.listen_endpoint.host, port=actual
                )

    def stop(self) -> None:
        """Close the server and every outbound link."""
        self.runtime.run_until_complete(self._stop())

    async def _stop(self) -> None:
        for link in self._links.values():
            link.close()
        self._links.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Established inbound connections outlive server.close(); close
        # them explicitly so their reader tasks finish before the loop does.
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()
        await asyncio.sleep(0)

    # -- routing ------------------------------------------------------------

    def is_remote(self, name: str) -> bool:
        """``True`` when ``name`` routes to another process."""
        target = self.routes.get(name)
        return target is not None and target != self.listen_endpoint

    def is_up(self, address: Address) -> bool:
        """Liveness as far as this process can know it.

        A local peer is up while it is registered.  A peer hosted by another
        process is up until an RPC says otherwise: this process cannot see
        the other's endpoint table, and answering "down" for every remote
        name (what the inherited registry check did) disabled the route
        cache and half of stabilization across processes.  The callers act
        on the evidence instead — an unanswered RPC purges the peer from
        fingers, successor list and route cache.
        """
        return self.is_remote(address.name) or super().is_up(address)

    # -- sending ------------------------------------------------------------

    def send(self, message: Message) -> None:
        if not self.is_remote(message.destination.name):
            super().send(message)
            return
        self.stats.record_sent(message)
        if message.source not in self._endpoints:
            self.stats.record_dropped(message)
            return
        data = frame(encode_message(message))
        link = self._link(self.routes[message.destination.name])
        if not link.send(data):
            self.stats.record_dropped(message)

    def _link(self, endpoint: WireEndpoint) -> _OutboundLink:
        link = self._links.get(endpoint)
        if link is None:
            link = _OutboundLink(self, endpoint)
            self._links[endpoint] = link
        return link

    # -- receiving ----------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.wire_stats["connections_in"] += 1
        self._inbound.add(writer)
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for body in decoder.feed(data):
                    kind, decoded = decode_any(body)
                    if kind == "hello":
                        continue  # version already checked by the envelope
                    if kind == "message":
                        self.wire_stats["frames_in"] += 1
                        self._deliver_from_wire(decoded)
        except CodecError:
            # Corrupt stream or incompatible peer: drop the connection; the
            # sender's RPC timeouts turn the silence into typed errors.
            self.wire_stats["decode_errors"] += 1
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            self._inbound.discard(writer)
            if not writer.transport.is_closing():
                writer.close()

    def _deliver_from_wire(self, message: Message) -> None:
        """Hand a decoded remote message to its local endpoint.

        The codec round-trip already severed aliasing, so this skips the
        fidelity copy of the in-memory path.
        """
        endpoint = self._endpoints.get(message.destination)
        if endpoint is None:
            self.stats.record_dropped(message)
            return
        self.stats.record_delivered(message)
        endpoint.deliver(message)
