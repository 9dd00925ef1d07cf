"""Host process: runs one process's slice of a multi-process ring.

``python -m repro.cluster host --index I --config <json>`` is what the
launcher spawns.  The process builds an :class:`~repro.runtime.AsyncioRuntime`
plus a :class:`~repro.net.WireNetwork` (serving its endpoint from the shared
routes table), wires a full :class:`~repro.core.LtrSystem` on top, creates
its local peers (process 0's first peer founds the ring; everyone else joins
through it, retrying across startup races), then reports ``READY`` on stdout
and serves until its stdin reaches EOF or a SIGTERM arrives.

The LtrSystem here is the same object the simulation uses — same Chord
node code, same Master/KTS services, same P2P-Log — only the runtime and
the network substrate differ.  That symmetry is the point: a protocol bug
observed in the cluster reproduces under the deterministic simulator.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from typing import TextIO

from ..core import LtrSystem
from ..errors import ClusterError, ReproError
from ..net import Address, ConstantLatency, WireNetwork
from ..runtime import AsyncioRuntime
from .config import CLUSTER_CHORD_CONFIG, CLUSTER_LTR_CONFIG, ClusterConfig

#: Printed (with the process index) once the local peers have joined;
#: the launcher blocks on this line before spawning the next process.
READY_BANNER = "CLUSTER-HOST-READY"

#: The network's default RPC timeout (wall-clock seconds), the one timeout
#: every Chord and DHT call uses: long enough to absorb a connect retry,
#: short enough that a killed process is detected within the stabilization
#: budget.
RPC_TIMEOUT = 1.0

#: How long a starting peer keeps trying to join through the founder before
#: giving up (startup races resolve here).
JOIN_RETRIES = 20
JOIN_RETRY_DELAY = 0.25


def build_host_system(
    config: ClusterConfig, index: int, *, process_name: str
) -> tuple[AsyncioRuntime, WireNetwork, LtrSystem]:
    """The runtime/network/system stack one cluster process runs on.

    Shared by the child processes (their whole world) and the launcher
    (its client leg), so both sides derive the identical hash family and
    protocol tuning (:data:`~repro.cluster.config.CLUSTER_LTR_CONFIG`,
    :data:`~repro.cluster.config.CLUSTER_CHORD_CONFIG`).
    """
    runtime = AsyncioRuntime(seed=config.seed + 1 + index if index >= 0 else config.seed)
    listen = config.endpoint_for(index) if index >= 0 else config.client_endpoint()
    network = WireNetwork(
        runtime,
        process_name=process_name,
        listen=listen,
        routes=config.routes(),
        latency=ConstantLatency(0.0005),
        default_timeout=RPC_TIMEOUT,
    )
    system = LtrSystem(
        ltr_config=CLUSTER_LTR_CONFIG,
        chord_config=CLUSTER_CHORD_CONFIG,
        runtime=runtime,
        network=network,
    )
    return runtime, network, system


def join_with_retries(system: LtrSystem, name: str, gateway: Address) -> None:
    """Create peer ``name`` and join it through ``gateway``, retrying.

    Startup is racy by construction — the founder's process may not be
    listening yet when a later process boots — so join failures back off
    and retry on the runtime's own clock before giving up.
    """
    node = system.ring.create_node(name)
    runtime = system.runtime
    last_error: Exception | None = None
    for _attempt in range(JOIN_RETRIES + 1):
        try:
            runtime.run(until=runtime.process(node.join(gateway)))
            return
        except ReproError as error:
            last_error = error
            if node.alive:
                return  # joined; only the best-effort key hand-off failed
            runtime.run(until=runtime.timeout(JOIN_RETRY_DELAY))
    raise ClusterError(f"{name} could not join via {gateway}: {last_error}")


async def _serve_until_shutdown(loop: asyncio.AbstractEventLoop,
                                stdin: TextIO) -> None:
    """Block (servicing the ring) until stdin EOF or SIGTERM."""
    stop = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - platform
        pass
    fd = stdin.fileno()

    def on_stdin() -> None:
        try:
            data = os.read(fd, 4096)
        except OSError:
            data = b""
        if not data:  # EOF: the launcher closed our stdin — shut down
            stop.set()

    loop.add_reader(fd, on_stdin)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(fd)


def run_host(config: ClusterConfig, index: int, *,
             stdout: TextIO | None = None) -> int:
    """Entry point of one host process (blocks until shutdown)."""
    if not 0 <= index < config.processes:
        raise ClusterError(f"host index {index} out of range 0..{config.processes - 1}")
    out = stdout if stdout is not None else sys.stdout
    runtime, network, system = build_host_system(
        config, index, process_name=f"host-{index}"
    )
    try:
        network.start()
        names = config.process_peers(index)
        if index == 0:
            founder = system.ring.create_node(names[0])
            founder.create()
            to_join = names[1:]
        else:
            to_join = names
        gateway = Address(config.founder, "default")
        for name in to_join:
            join_with_retries(system, name, gateway)
        print(f"{READY_BANNER} {index}", file=out, flush=True)
        runtime.run_until_complete(_serve_until_shutdown(runtime.loop, sys.stdin))
        return 0
    finally:
        network.stop()
        system.shutdown()
