"""Multi-process cluster mode: the paper's deployment model, for real.

The original P2P-LTR prototype ran each peer as a separate JVM speaking
Java RMI; everything in this repository up to here ran the whole ring
inside one process (deterministic simulation or single-process asyncio).
This package closes that gap: a launcher spawns N host processes, each
running a slice of the ring on its own :class:`~repro.runtime.AsyncioRuntime`
behind a :class:`~repro.net.WireNetwork`, and every cross-process RPC
travels the versioned wire codec over TCP or Unix-domain sockets.

Entry points: ``python -m repro.cluster run`` (CLI) or::

    from repro.cluster import ClusterConfig, Cluster

    with Cluster(ClusterConfig(processes=3)) as cluster:
        cluster.commit("doc-1", "hello from another process")

The host side (``build_host_system``, ``run_host``) and the socket transport
are loaded on first use, so a process that only simulates imports no asyncio.
"""

from .config import CLIENT_NAME, CLUSTER_CHORD_CONFIG, CLUSTER_LTR_CONFIG, ClusterConfig
from .launcher import Cluster
from .placement import Placement, find_killable_placement, placement_of
from .scenario import run_live_cluster

__all__ = [
    "CLIENT_NAME",
    "CLUSTER_CHORD_CONFIG",
    "CLUSTER_LTR_CONFIG",
    "Cluster",
    "ClusterConfig",
    "Placement",
    "build_host_system",
    "find_killable_placement",
    "placement_of",
    "run_host",
    "run_live_cluster",
]


def __getattr__(name: str):
    if name in ("build_host_system", "run_host"):
        from . import host

        return getattr(host, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
