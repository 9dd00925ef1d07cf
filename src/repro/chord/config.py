"""Configuration of the Chord layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from .hashing import DEFAULT_ID_BITS


@dataclass(frozen=True)
class ChordConfig:
    """Tunable parameters of the Chord DHT.

    The defaults favour small simulated rings (tests, examples).  The
    benchmarks override the intervals and sizes to match each experiment.

    Attributes
    ----------
    bits:
        Width of the identifier space (2**bits identifiers).  The original
        protocol uses 160 (SHA-1); tests use smaller spaces for readable
        identifiers — collisions are still essentially impossible for the
        node counts used.
    successor_list_size:
        Number of successors each node tracks for fault tolerance.  The
        second entry plays the role of the paper's Master-key-Succ /
        Log-Peer-Succ backup.
    replication_factor:
        Number of copies of each stored item (1 = no replication; 2 = owner
        plus one successor replica, matching the paper's "replicate last-ts
        at the Master-Succ peer").
    stabilize_interval, fix_fingers_interval, check_predecessor_interval:
        Periods (simulated seconds) of the three maintenance tasks.
    rpc_timeout:
        Per-call timeout; ``None`` uses the network default.
    route_cache_ttl:
        Lifetime of a route in the node's
        :class:`~repro.chord.routecache.RouteCache` (every node memoizes
        recently resolved responsibility intervals so repeated lookups
        towards the same Master-key peer skip the O(log N) hop chain), in
        simulated seconds, counted from the authoritative answer however
        many caches relayed it since; it should stay a small multiple of
        ``stabilize_interval`` so stale routes die out at the same pace the
        ring repairs itself.
    maintenance_stagger:
        Fraction of each maintenance interval used to spread the *first*
        firing of a node's maintenance timers, by a deterministic per-node
        phase derived from the ring identifier.  ``0.0`` (the default)
        fires every node's timers in lock-step — the historical behaviour,
        kept for byte-identical seeded artifacts; ``1.0`` spreads first
        firings across a full interval so a 10^5-peer ring does not dump
        every stabilize round into one simulated instant.
    fingers_per_round:
        Number of finger-table entries repaired per ``fix_fingers`` round.
        The classic protocol fixes one per round; large rings raise this so
        routing tables converge in ``bits / fingers_per_round`` rounds
        without shortening the interval (which would multiply timer load).
    """

    bits: int = DEFAULT_ID_BITS
    successor_list_size: int = 4
    replication_factor: int = 2
    stabilize_interval: float = 0.25
    fix_fingers_interval: float = 0.5
    check_predecessor_interval: float = 0.5
    rpc_timeout: Optional[float] = None
    route_cache_ttl: float = 1.0
    maintenance_stagger: float = 0.0
    fingers_per_round: int = 1

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {self.bits}")
        if self.successor_list_size < 1:
            raise ConfigurationError(
                f"successor_list_size must be >= 1, got {self.successor_list_size}"
            )
        if self.replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.replication_factor > self.successor_list_size + 1:
            raise ConfigurationError(
                "replication_factor cannot exceed successor_list_size + 1 "
                f"({self.replication_factor} > {self.successor_list_size + 1})"
            )
        for name in ("stabilize_interval", "fix_fingers_interval", "check_predecessor_interval"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.route_cache_ttl <= 0:
            raise ConfigurationError("route_cache_ttl must be positive")
        if self.maintenance_stagger < 0:
            raise ConfigurationError(
                f"maintenance_stagger must be >= 0, got {self.maintenance_stagger}"
            )
        if self.fingers_per_round < 1:
            raise ConfigurationError(
                f"fingers_per_round must be >= 1, got {self.fingers_per_round}"
            )
