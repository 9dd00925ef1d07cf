"""Cluster configuration: one declarative object shared by every process.

A :class:`ClusterConfig` fully determines a multi-process deployment — how
many host processes, how many peers each hosts, the transport (Unix-domain
sockets or TCP) and the seed.  The launcher serializes the *resolved* config
as JSON onto each child's command line, so every process derives the
identical peer naming and endpoint table from the same source of truth;
nothing about the topology is negotiated at runtime.  The protocol tuning is
not configured at all: every process runs :data:`CLUSTER_CHORD_CONFIG` and
:data:`CLUSTER_LTR_CONFIG`, which is what makes the hash family, and so
every log placement, agree across the wire.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Optional

from ..core import DEFAULT_CHORD_CONFIG, LtrConfig
from ..errors import ClusterError

#: The launcher's own peer (it joins the ring like any other node, so the
#: commit driver exercises the same lookup/validation path as a real user).
CLIENT_NAME = "client"

#: The Chord tuning every process runs: the interactive defaults with
#: maintenance periods in wall-clock seconds, sized for a live ring (compare
#: E13's single-process ``LIVE_CHORD_CONFIG``).
CLUSTER_CHORD_CONFIG = replace(
    DEFAULT_CHORD_CONFIG,
    stabilize_interval=0.05,
    fix_fingers_interval=0.1,
    check_predecessor_interval=0.1,
)

#: The P2P-LTR tuning every process runs.  ``log_replication_factor`` is
#: ``|Hr|`` (paper §2): it sizes the shared hash family, so it must be the
#: same in every process.  The validation retries let a user peer re-route
#: while a Master-key peer is dead and its successor has not yet taken over.
#: The checkpoint interval is the default, so checkpoint addresses agree too.
CLUSTER_LTR_CONFIG = LtrConfig(
    log_replication_factor=2,
    validation_retries=12,
    validation_retry_delay=0.25,
    runtime_backend="asyncio",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one multi-process P2P-LTR deployment.

    Attributes
    ----------
    processes:
        Number of *host* processes (the launcher's client process is extra).
    peers_per_process:
        Chord peers hosted by each process.
    transport:
        ``"uds"`` (default; endpoints are socket files under
        :attr:`socket_dir`) or ``"tcp"`` (endpoints are
        ``host:base_port+index``).
    socket_dir:
        Directory for UDS sockets and per-process log files.  Empty means
        "launcher picks a short temporary directory" (UDS paths are limited
        to ~107 bytes, so the launcher resolves this *before* spawning and
        ships the resolved path to the children).
    host, base_port:
        TCP listen address; process ``i`` listens on ``base_port + i`` and
        the client on ``base_port + processes``.
    seed:
        Master seed; process ``i`` runs on ``seed + 1 + i``, the client on
        ``seed``.  Hash placement (which is what cross-process agreement
        needs) depends only on names, not on these seeds.
    """

    processes: int = 3
    peers_per_process: int = 2
    transport: str = "uds"
    socket_dir: str = ""
    host: str = "127.0.0.1"
    base_port: int = 0
    seed: int = 0

    #: Post-bootstrap stabilization wait (wall-clock seconds) before the
    #: ring is considered usable.  A constant, not a field: readable here
    #: for callers that take it out of a measured start-up time.
    settle_time: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ClusterError(f"need at least one host process, got {self.processes}")
        if self.peers_per_process < 1:
            raise ClusterError(
                f"need at least one peer per process, got {self.peers_per_process}"
            )
        if self.transport not in ("uds", "tcp"):
            raise ClusterError(f"unknown transport {self.transport!r} (uds or tcp)")
        if self.transport == "tcp" and self.base_port <= 0:
            raise ClusterError("tcp transport needs an explicit base_port > 0")

    # -- naming ---------------------------------------------------------------

    def peer_name(self, process: int, slot: int) -> str:
        """Name of peer ``slot`` hosted by process ``process``."""
        return f"p{process}n{slot}"

    def process_peers(self, process: int) -> list[str]:
        """Names of every peer hosted by ``process``."""
        return [self.peer_name(process, slot) for slot in range(self.peers_per_process)]

    def all_host_peers(self) -> list[str]:
        """Every hosted peer name, grouped by process."""
        return [
            name
            for process in range(self.processes)
            for name in self.process_peers(process)
        ]

    def all_peers(self) -> list[str]:
        """Every ring member, including the launcher's client peer."""
        return self.all_host_peers() + [CLIENT_NAME]

    @property
    def founder(self) -> str:
        """The peer that creates the ring (first peer of process 0)."""
        return self.peer_name(0, 0)

    def process_of(self, peer: str) -> Optional[int]:
        """Index of the process hosting ``peer`` (``None`` for the client)."""
        if peer == CLIENT_NAME:
            return None
        for process in range(self.processes):
            if peer in self.process_peers(process):
                return process
        raise ClusterError(f"unknown peer {peer!r}")

    # -- endpoints ------------------------------------------------------------

    def endpoint_for(self, process: int) -> str:
        """Listen endpoint spec of host process ``process``."""
        if self.transport == "uds":
            if not self.socket_dir:
                raise ClusterError(
                    "socket_dir is unresolved; the launcher must resolve it "
                    "before endpoints can be computed"
                )
            return f"uds://{Path(self.socket_dir) / f'h{process}.sock'}"
        return f"tcp://{self.host}:{self.base_port + process}"

    def client_endpoint(self) -> str:
        """Listen endpoint spec of the launcher's client process."""
        if self.transport == "uds":
            if not self.socket_dir:
                raise ClusterError("socket_dir is unresolved")
            return f"uds://{Path(self.socket_dir) / 'client.sock'}"
        return f"tcp://{self.host}:{self.base_port + self.processes}"

    def routes(self) -> dict[str, str]:
        """The complete peer-name -> endpoint table (identical everywhere)."""
        table = {
            name: self.endpoint_for(process)
            for process in range(self.processes)
            for name in self.process_peers(process)
        }
        table[CLIENT_NAME] = self.client_endpoint()
        return table

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """JSON form, shipped to child processes on their command line."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, data: str) -> "ClusterConfig":
        return cls(**json.loads(data))
