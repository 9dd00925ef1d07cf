"""Offline placement math for a cluster (who is Master of what, and where).

Chord placement is pure hashing — ``node_id = hash(name)``, Master of a
key = successor of ``Ht(key)`` — so a launcher that knows every peer name
can compute, *without asking the ring*, which process hosts the Master-key
peer of any document and which peer holds that Master's replicas (its ring
successor carries the replicated last-ts / KTS counter).  The fault
scenarios use this to pick a kill target that is guaranteed interesting:
the process hosting the Master dies, while the successor that must take
over survives in a different process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..chord import hash_to_id, timestamp_hash
from ..errors import ClusterError
from .config import CLUSTER_CHORD_CONFIG, ClusterConfig


def ring_ids(names: Sequence[str], bits: int) -> dict[str, int]:
    """Each peer's Chord identifier (same derivation as ``ChordNode``)."""
    return {name: hash_to_id(name, bits) for name in names}


def successor_name(ids: dict[str, int], identifier: int) -> str:
    """The peer owning ``identifier``: first node id >= it, wrapping."""
    ordered = sorted(ids.items(), key=lambda item: item[1])
    for name, node_id in ordered:
        if node_id >= identifier:
            return name
    return ordered[0][0]


def next_on_ring(ids: dict[str, int], name: str) -> str:
    """The ring successor of peer ``name`` (holder of its replicas)."""
    ordered = sorted(ids.items(), key=lambda item: item[1])
    names = [entry[0] for entry in ordered]
    return names[(names.index(name) + 1) % len(names)]


@dataclass(frozen=True)
class Placement:
    """Where one document's responsibility lands in a cluster."""

    key: str
    master: str
    master_process: Optional[int]
    successor: str
    successor_process: Optional[int]

    @property
    def kill_target(self) -> int:
        """The process whose death dethrones the Master but not its backup."""
        assert self.master_process is not None
        return self.master_process


def placement_of(config: ClusterConfig, key: str) -> Placement:
    """Compute ``key``'s Master peer and replica holder for ``config``."""
    bits = CLUSTER_CHORD_CONFIG.bits
    ids = ring_ids(config.all_peers(), bits)
    ht = timestamp_hash(bits)
    master = successor_name(ids, ht(key))
    successor = next_on_ring(ids, master)
    return Placement(
        key=key,
        master=master,
        master_process=config.process_of(master),
        successor=successor,
        successor_process=config.process_of(successor),
    )


def find_killable_placement(
    config: ClusterConfig, *, prefix: str = "doc", limit: int = 10_000
) -> Placement:
    """A document key whose Master's process can be killed meaningfully.

    Scans ``{prefix}-0``, ``{prefix}-1``, ... for a key whose Master-key
    peer is hosted by a child process (not the launcher's client) while the
    Master's ring successor — the peer holding the replicated last-ts and
    KTS counter that the takeover depends on — lives in a *different*
    process.  Killing ``placement.kill_target`` then exercises the paper's
    Master-failure procedure across a real process boundary.
    """
    if config.processes < 2:
        raise ClusterError("a killable placement needs at least two host processes")
    for index in range(limit):
        placement = placement_of(config, f"{prefix}-{index}")
        if placement.master_process is None:
            continue  # master would be the launcher itself: not killable
        if placement.successor_process == placement.master_process:
            continue  # backup dies with the master: kill proves nothing
        return placement
    raise ClusterError(
        f"no killable placement among {limit} candidate keys (prefix {prefix!r})"
    )
