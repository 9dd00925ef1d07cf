"""The simulated message transport.

:class:`Network` is the single switchboard all peers register with.  It
models per-message latency (via a :class:`~repro.net.latency.LatencyModel`),
partitions, perturbation windows, silenced peers and peer crashes.  Delivery
is asynchronous: a sent message is handed to the destination endpoint after
the sampled latency has elapsed on the simulator clock, provided the
destination is still reachable at that moment.  :class:`TrafficStats` is the
one record of what became of each send.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol

from ..errors import NetworkError
from ..runtime import Runtime
from .address import Address
from .codec import copy_message
from .failures import PartitionManager, PerturbationWindow
from .latency import ConstantLatency, LatencyModel
from .message import Message, TrafficStats

class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    def deliver(self, message: Message) -> None:
        """Handle a message delivered by the network."""
        ...  # pragma: no cover - protocol definition


class Network:
    """Simulated network connecting all peers of an experiment.

    Parameters
    ----------
    runtime:
        The execution runtime driving the experiment (any
        :class:`~repro.runtime.Runtime` backend).
    latency:
        One-way delay model (default: 10 ms constant).
    default_timeout:
        Default RPC timeout in seconds, used by the RPC layer when the
        caller does not specify one.  It defaults to a generous multiple of
        the mean latency so that timeouts only fire for genuinely lost
        messages or crashed peers.
    """

    def __init__(
        self,
        runtime: Runtime,
        latency: Optional[LatencyModel] = None,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.runtime = runtime
        self.latency = latency if latency is not None else ConstantLatency(0.01)
        self.partitions = PartitionManager()
        #: Names of peers every message *to* is dropped while the network
        #: still lists them as up: an owner that stopped answering (a
        #: peer in another process, an unannounced crash).
        self.silenced: set[str] = set()
        self.perturbation: Optional[PerturbationWindow] = None
        self.perturb_stats = {"dropped": 0, "duplicated": 0, "jittered": 0}
        self.stats = TrafficStats()
        if default_timeout is None:
            default_timeout = max(0.5, self.latency.mean() * 50.0)
        self.default_timeout = default_timeout
        self._endpoints: Dict[Address, Endpoint] = {}
        self._crashed: set[Address] = set()
        # Resolved-stream cache for non-scope-aware RNG families (the
        # deterministic backend): ``stream(name)`` always returns the same
        # generator there, so the per-send lock/lookup is pure overhead.
        # Keyed by family identity so a swapped runtime never serves stale
        # generators; scope-aware families (asyncio) bypass the cache.
        self._stream_cache: Dict[str, Any] = {}
        self._stream_family: Any = None

    def _stream(self, name: str):
        """The named RNG stream, resolved per use.

        Resolution at draw time (not at construction) lets a scope-aware
        RNG family (the asyncio backend) hand each concurrent process its
        own sub-stream, so draws never interleave within one named stream.
        A non-scope-aware family returns the same generator for a name
        every time, so those resolutions are memoized (``stream()`` costs
        a lock acquisition and a dict probe on every simulated send
        otherwise).
        """
        rng = self.runtime.rng
        if rng.scope_provider is not None:
            return rng.stream(name)
        if self._stream_family is not rng:
            self._stream_family = rng
            self._stream_cache = {}
        stream = self._stream_cache.get(name)
        if stream is None:
            stream = self._stream_cache[name] = rng.stream(name)
        return stream

    # -- perturbation windows -------------------------------------------------

    def begin_perturbation(self, window: PerturbationWindow) -> None:
        """Install a transient disturbance window (nemesis burst)."""
        self.perturbation = window

    def end_perturbation(self) -> None:
        """Remove the active disturbance window; traffic is clean again."""
        self.perturbation = None

    # -- membership ---------------------------------------------------------

    def register(self, address: Address, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` to the network under ``address``.

        Re-registering a previously crashed address models a peer re-joining
        with the same identity.
        """
        self._endpoints[address] = endpoint
        self._crashed.discard(address)

    def unregister(self, address: Address) -> None:
        """Detach an endpoint (graceful departure). Unknown addresses are ignored."""
        self._endpoints.pop(address, None)

    def crash(self, address: Address) -> None:
        """Abruptly remove an endpoint; in-flight messages to it are lost."""
        self._endpoints.pop(address, None)
        self._crashed.add(address)

    def is_up(self, address: Address) -> bool:
        """``True`` if the address currently has a registered endpoint."""
        return address in self._endpoints

    def has_crashed(self, address: Address) -> bool:
        """``True`` if the address crashed and has not re-registered since."""
        return address in self._crashed

    def addresses(self) -> list[Address]:
        """Addresses of all currently registered endpoints."""
        return sorted(self._endpoints)

    def __len__(self) -> int:
        return len(self._endpoints)

    # -- sending --------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send ``message``; :attr:`stats` records what became of it.

        A message is dropped (never delivered) when the sender is not
        registered, a partition separates the endpoints, or the destination
        is :attr:`silenced`.  Messages to unknown/crashed destinations are
        accepted and silently lost — exactly like UDP datagrams to a dead
        host — so that the RPC layer's timeout logic is exercised, which is
        what the P2P-LTR failure-handling procedures react to.
        """
        self.stats.record_sent(message)

        if (
            message.source not in self._endpoints
            or not self.partitions.allows(message.source, message.destination)
            or message.destination.name in self.silenced
        ):
            self.stats.record_dropped(message)
            return

        delay = self.latency.sample(
            self._stream("net.latency"), message.source, message.destination
        )
        if delay < 0:
            raise NetworkError(f"latency model produced negative delay {delay}")
        window = self.perturbation
        if window is not None and not window.quiet:
            # Drawn from only while a window is active, so fault-free runs
            # keep their historical RNG sequences.
            rng = self._stream("net.perturb")
            if window.drop_probability > 0.0 and rng.random() < window.drop_probability:
                self.perturb_stats["dropped"] += 1
                self.stats.record_dropped(message)
                return
            if (
                window.duplicate_probability > 0.0
                and rng.random() < window.duplicate_probability
            ):
                # The copy pays its own latency draw, so it usually arrives
                # out of order with the original — duplication and reordering
                # in one mechanism, exactly what retransmission storms do.
                # Sampled from the perturbation stream: the base latency
                # stream must see the same draw sequence with or without a
                # window installed (two plans differing only in a duplicate
                # burst stay comparable).
                copy_delay = self.latency.sample(
                    rng, message.source, message.destination
                )
                self.perturb_stats["duplicated"] += 1
                self.runtime.call_later(max(copy_delay, 0.0), self._deliver, message)
            if window.reorder_jitter > 0.0:
                self.perturb_stats["jittered"] += 1
                delay += rng.random() * window.reorder_jitter
        self.runtime.call_later(delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        endpoint = self._endpoints.get(message.destination)
        if endpoint is None:
            # Destination crashed or left while the message was in flight.
            self.stats.record_dropped(message)
            return
        # Aliasing is severed per *delivery*, not per send: a perturbation
        # window's duplicate and its original must hand the receiver two
        # independent payloads, exactly as two datagrams would.
        message = copy_message(message)
        self.stats.record_delivered(message)
        endpoint.deliver(message)
