"""Cluster configuration: one declarative object shared by every process.

A :class:`ClusterConfig` fully determines a multi-process deployment — how
many host processes, how many peers each hosts, the transport (Unix-domain
sockets or TCP), the seeds and the protocol tuning.  The launcher serializes
the *resolved* config as JSON onto each child's command line, so every
process derives the identical peer naming, endpoint table and hash family
from the same source of truth; nothing about the topology is negotiated at
runtime.

Values are layered, weakest first: built-in defaults, then a JSON config
file, then ``REPRO_CLUSTER_*`` environment variables, then explicit
overrides (CLI flags).  :func:`load_cluster_config` applies the layering.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from ..chord import ChordConfig
from ..core import LtrConfig
from ..errors import ClusterError

#: Environment prefix for the env layer, e.g. ``REPRO_CLUSTER_PROCESSES=5``.
ENV_PREFIX = "REPRO_CLUSTER_"

#: The launcher's own peer (it joins the ring like any other node, so the
#: commit driver exercises the same lookup/validation path as a real user).
CLIENT_NAME = "client"


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
    log_replication_factor:
        ``|Hr|`` — independent P2P-Log placements per patch (paper §2).
        Must be identical in every process: it sizes the shared hash family.
    rpc_timeout:
        The network's default RPC timeout (wall-clock seconds), the one
        timeout every Chord and DHT call uses.  Sized for a live ring:
        long enough to absorb a connect retry, short enough that a killed
        process is detected within the stabilization budget.
    stabilize_interval, fix_fingers_interval, check_predecessor_interval:
        Chord maintenance periods (wall-clock seconds; live-tuned, compare
        the E13 single-process live config).
    validation_retries, validation_retry_delay:
        User-peer re-routing behaviour while a Master-key peer is dead and
        its successor has not yet taken over.
    join_retries, join_retry_delay:
        How long a starting process keeps trying to join through the
        founder before giving up (startup races resolve here).
    startup_timeout:
        Wall-clock budget the launcher grants each child to report READY.
    settle_time:
        Post-bootstrap stabilization wait before the ring is considered
        usable.
    run_guard:
        Hard wall-clock bound on any single driver step, so a wedged
        cluster fails loudly instead of hanging CI.
    """

    processes: int = 3
    peers_per_process: int = 2
    transport: str = "uds"
    socket_dir: str = ""
    host: str = "127.0.0.1"
    base_port: int = 0
    seed: int = 0
    log_replication_factor: int = 2
    rpc_timeout: float = 1.0
    stabilize_interval: float = 0.05
    fix_fingers_interval: float = 0.1
    check_predecessor_interval: float = 0.1
    validation_retries: int = 12
    validation_retry_delay: float = 0.25
    join_retries: int = 20
    join_retry_delay: float = 0.25
    startup_timeout: float = 30.0
    settle_time: float = 1.0
    run_guard: float = 120.0
    bits: int = 32

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

    # -- derived protocol configs --------------------------------------------

    def chord_config(self) -> ChordConfig:
        """The Chord tuning every process runs (live-cluster intervals)."""
        return ChordConfig(
            bits=self.bits,
            successor_list_size=4,
            replication_factor=2,
            stabilize_interval=self.stabilize_interval,
            fix_fingers_interval=self.fix_fingers_interval,
            check_predecessor_interval=self.check_predecessor_interval,
        )

    def ltr_config(self) -> LtrConfig:
        """The P2P-LTR tuning every process runs.

        Identical in every process by construction — it sizes the shared
        hash family, which is what makes log placements agree across the
        wire.  The checkpoint interval is left at its default, the same in
        every process, so checkpoint addresses agree too.
        """
        return LtrConfig(
            log_replication_factor=self.log_replication_factor,
            validation_retries=self.validation_retries,
            validation_retry_delay=self.validation_retry_delay,
            runtime_backend="asyncio",
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """JSON form, shipped to child processes on their command line."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, data: str) -> "ClusterConfig":
        return cls(**json.loads(data))


def _coerce(name: str, raw: Any, target_type: type) -> Any:
    """Coerce a string layer value (file/env) onto the field's type."""
    if isinstance(raw, target_type) and not (
        target_type is int and isinstance(raw, bool)
    ):
        return raw
    try:
        if target_type is bool:
            if isinstance(raw, str):
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return bool(raw)
        return target_type(raw)
    except (TypeError, ValueError) as error:
        raise ClusterError(f"bad value for {name}: {raw!r} ({error})") from None


def load_cluster_config(
    path: Optional[str | Path] = None,
    *,
    env: Optional[Mapping[str, str]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> ClusterConfig:
    """Build a :class:`ClusterConfig` from layered sources.

    Precedence, weakest first: dataclass defaults < JSON config file at
    ``path`` < ``REPRO_CLUSTER_<FIELD>`` environment variables < explicit
    ``overrides`` (CLI flags).  Unknown keys in any layer are rejected —
    a typo must not silently fall back to a default.
    """
    fields = {f.name: f.type for f in dataclasses.fields(ClusterConfig)}
    types = {
        name: {"int": int, "float": float, "str": str, "bool": bool}.get(
            str(annotation).replace("builtins.", ""), str
        )
        for name, annotation in fields.items()
    }
    values: dict[str, Any] = {}

    if path is not None:
        try:
            file_values = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ClusterError(f"cannot read cluster config {path}: {error}") from None
        for name, raw in file_values.items():
            if name not in fields:
                raise ClusterError(f"unknown key {name!r} in config file {path}")
            values[name] = _coerce(name, raw, types[name])

    environment = env if env is not None else os.environ
    for name in fields:
        env_key = ENV_PREFIX + name.upper()
        if env_key in environment:
            values[name] = _coerce(name, environment[env_key], types[name])

    for name, raw in (overrides or {}).items():
        if name not in fields:
            raise ClusterError(f"unknown cluster config override {name!r}")
        if raw is not None:
            values[name] = _coerce(name, raw, types[name])

    return ClusterConfig(**values)
