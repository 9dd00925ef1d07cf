"""Ring orchestration: building, churning and inspecting a whole Chord DHT.

:class:`ChordRing` is the experiment-facing wrapper around a set of
:class:`~repro.chord.node.ChordNode` instances sharing one simulator and one
network.  It offers synchronous driver methods (``bootstrap``, ``add_node``,
``leave``, ``crash``, ``put``, ``get``) that advance the simulation until
the requested operation has completed, which keeps tests, examples and
benchmarks readable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional

from ..errors import DhtError, LookupFailed
from ..net import Address, ConstantLatency, LatencyModel, Network
from ..runtime import Runtime, resolve_runtime
from ..storage import StorageBackend
from .config import ChordConfig
from .hashing import hash_to_id
from .node import REPLICATION_FACTOR, ChordNode
from .refs import NodeRef
from .services import NodeService
from .successors import SUCCESSOR_LIST_SIZE

ServiceFactory = Callable[[Address], list[NodeService]]
StorageFactory = Callable[[str], Optional[StorageBackend]]


class ChordRing:
    """A complete Chord DHT under simulation."""

    def __init__(
        self,
        runtime: Optional[Runtime | str] = None,
        network: Optional[Network] = None,
        config: Optional[ChordConfig] = None,
        *,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        service_factory: Optional[ServiceFactory] = None,
        storage_factory: Optional[StorageFactory] = None,
    ) -> None:
        # ``runtime`` also accepts a backend name ("sim" / "asyncio").
        self.runtime = resolve_runtime(runtime, seed=seed)
        if network is not None:
            self.network = network
        else:
            self.network = Network(
                self.runtime,
                latency=latency if latency is not None else ConstantLatency(0.005),
            )
        self.config = config if config is not None else ChordConfig()
        self.service_factory = service_factory
        self.storage_factory = storage_factory
        self.nodes: dict[str, ChordNode] = {}
        # Names whose successor/predecessor pointers may disagree with the
        # ideal ring; the incremental stability check only re-examines these.
        self._dirty: set[str] = set()

    # ------------------------------------------------------------- creation --

    def create_node(self, name: str, site: str = "default") -> ChordNode:
        """Instantiate a node object (not yet part of the ring)."""
        if name in self.nodes:
            raise DhtError(f"a node named {name!r} already exists")
        address = Address(name, site)
        services = self.service_factory(address) if self.service_factory else []
        backend = self.storage_factory(name) if self.storage_factory else None
        node = ChordNode(
            self.runtime,
            self.network,
            address,
            self.config,
            services=services,
            storage_backend=backend,
        )
        self.nodes[name] = node
        return node

    def _refuse_shared_identifiers(self, names: list[str]) -> None:
        """Raise :class:`~repro.errors.DhtError`, naming the peers, when one
        of ``names`` hashes to the ring identifier of a live node or of
        another of ``names`` (a ``ChordConfig.bits`` too narrow for the
        ring).  Runs before any node is created: each of two peers at one
        identifier would own an ``(a, a]`` arc that claims the whole ring,
        so no ring holding both can stabilize."""
        bits = self.config.bits
        holders = {node.node_id: node.address.name
                   for node in self.nodes.values() if node.alive}
        clashes = []
        for name in names:
            identifier = hash_to_id(name, bits)
            holder = holders.setdefault(identifier, name)
            if holder != name:
                clashes.append(f"{holder} and {name} at {identifier}")
        if clashes:
            raise DhtError(f"peers share a ring identifier ({'; '.join(clashes)}); "
                           "widen ChordConfig.bits or rename them")

    def bootstrap(self, names: Iterable[str] | int, *, stabilize_time: Optional[float] = None) -> list[ChordNode]:
        """Create a ring from scratch with the given node names (or a count).

        The first node creates the ring; the others join through it one by
        one.  The simulation is then run long enough for stabilization to
        converge (or ``stabilize_time`` simulated seconds if given).
        Raises :class:`~repro.errors.DhtError`, naming the peers, before any
        node is created when two of them, or one of them and a live node,
        share a ring identifier.
        """
        if isinstance(names, int):
            names = [f"peer-{index}" for index in range(names)]
        names = list(names)
        if not names:
            raise DhtError("bootstrap requires at least one node name")
        self._refuse_shared_identifiers(names)

        first = self.create_node(names[0])
        first.create()
        bootstrap_address = first.address
        for name in names[1:]:
            node = self.create_node(name)
            self.runtime.run(until=self.runtime.process(node.join(bootstrap_address)))
        self.clear_route_caches()  # routes learned mid-bootstrap are stale
        self._dirty.update(names)
        self.wait_until_stable(max_time=stabilize_time)
        return [self.nodes[name] for name in names]

    def bootstrap_warm(self, names: Iterable[str] | int) -> list[ChordNode]:
        """Construct an already-stabilized ring directly, in O(N log N).

        :meth:`bootstrap` joins nodes one by one and then simulates
        stabilization rounds until the pointers converge — faithful to the
        protocol, but O(N^2) messages and far too slow as a *starting point*
        for 10^4-10^5-peer scale experiments.  This constructor instead
        computes the converged state a stabilized ring provably reaches and
        wires it in place: nodes sorted by ring identifier, each node's
        predecessor the previous node, its successor list the next ``k``
        distinct nodes, and finger ``i`` the first node at or after
        ``node_id + 2**i`` (cyclically).  Maintenance loops are started
        exactly as a natural join would, so the ring is indistinguishable
        from one that converged by stabilization — the equivalence test
        suite pins that claim — and churn after the warm build behaves
        normally.  No simulated time passes and no messages are sent.

        Raises :class:`~repro.errors.DhtError` as :meth:`bootstrap` does
        when peers share a ring identifier.
        """
        if isinstance(names, int):
            names = [f"peer-{index}" for index in range(names)]
        names = list(names)
        if not names:
            raise DhtError("bootstrap requires at least one node name")
        self._refuse_shared_identifiers(names)

        nodes = [self.create_node(name) for name in names]
        if len(nodes) == 1:
            nodes[0].create()
            return nodes

        ordered = sorted(nodes, key=lambda node: node.node_id)
        identifiers = [node.node_id for node in ordered]
        refs = [node.ref for node in ordered]
        count = len(ordered)
        list_size = min(SUCCESSOR_LIST_SIZE, count - 1)
        bits = self.config.bits
        mask = (1 << bits) - 1
        for index, node in enumerate(ordered):
            node_id = node.node_id
            node.predecessor = refs[index - 1]
            node.successors.replace(
                [refs[(index + offset) % count] for offset in range(1, list_size + 1)]
            )
            # One pass along the ring: finger ``i`` starts ``2**i`` past
            # the node, and the owner found for one start keeps every
            # later start up to its own identifier.  ``reach`` is that
            # owner's clockwise distance from the node (the whole ring
            # when the owner is the node itself).
            position = (index + 1) % count
            reach = ((identifiers[position] - node_id - 1) & mask) + 1
            entries = []
            for finger_index in range(bits):
                step = 1 << finger_index
                if step > reach:
                    position = bisect_left(identifiers, (node_id + step) & mask) % count
                    reach = ((identifiers[position] - node_id - 1) & mask) + 1
                entries.append(refs[position])
            node.fingers.replace(entries)
            node.alive = True
            node._start_maintenance()
        return [self.nodes[name] for name in names]

    def add_node(self, name: str, *, via: Optional[str] = None, stabilize: bool = True) -> ChordNode:
        """Add one node to a running ring and (optionally) wait for stability.

        Raises :class:`~repro.errors.DhtError` as :meth:`bootstrap` does
        when a live node holds the new name's ring identifier.
        """
        self._refuse_shared_identifiers([name])
        live = self.live_nodes()
        if not live:
            node = self.create_node(name)
            node.create()
            return node
        gateway = self.nodes[via] if via is not None else live[0]
        node = self.create_node(name)
        self.runtime.run(until=self.runtime.process(node.join(gateway.address)))
        self.clear_route_caches()
        self._mark_unstable_near(node.node_id)
        if stabilize:
            self.wait_until_stable()
        return node

    # ---------------------------------------------------------------- churn --

    def leave(self, name: str, *, stabilize: bool = True) -> None:
        """Gracefully remove ``name`` from the ring."""
        node = self._existing(name)
        self.runtime.run(until=self.runtime.process(node.leave()))
        self.clear_route_caches()
        self._mark_unstable_near(node.node_id)
        if stabilize:
            self.wait_until_stable()

    def crash(self, name: str, *, stabilize: bool = True) -> None:
        """Crash ``name`` without warning (failure scenario)."""
        node = self._existing(name)
        node.fail()
        self.clear_route_caches()
        self._mark_unstable_near(node.node_id)
        if stabilize:
            self.wait_until_stable()

    def clear_route_caches(self) -> None:
        """Drop every node's cached routes (called around membership changes).

        Individual nodes already invalidate their caches on the membership
        events they *observe*; the driver-level clear covers the window in
        which a remote change has not yet propagated to every peer, keeping
        orchestrated churn scenarios deterministic.
        """
        for node in self.nodes.values():
            node.route_cache.clear()

    # ---------------------------------------------------------------- access --

    def node(self, name: str) -> ChordNode:
        """The node object registered under ``name``."""
        return self._existing(name)

    def live_nodes(self) -> list[ChordNode]:
        """All nodes currently alive, sorted by ring identifier."""
        return sorted(
            (node for node in self.nodes.values() if node.alive),
            key=lambda node: node.node_id,
        )

    def ring_order(self) -> list[str]:
        """Names of live nodes in clockwise ring order."""
        return [node.address.name for node in self.live_nodes()]

    def gateway(self) -> ChordNode:
        """An arbitrary live node usable as the entry point for requests."""
        live = self.live_nodes()
        if not live:
            raise DhtError("no live nodes in the ring")
        return live[0]

    def responsible_node(self, key: str, salt: str = "") -> ChordNode:
        """The live node that *should* own ``key`` according to identifiers.

        Computed from global knowledge (all live node identifiers), so it is
        the ground truth the routed lookups are compared against in tests.
        """
        identifier = hash_to_id(key, self.config.bits, salt=salt)
        return self.responsible_node_for_id(identifier)

    def responsible_node_for_id(self, identifier: int) -> ChordNode:
        """Ground-truth responsible node for a raw identifier."""
        live = self.live_nodes()
        if not live:
            raise DhtError("no live nodes in the ring")
        # First node whose id >= identifier, wrapping to the ring's start —
        # binary search instead of a linear scan (this is called per commit
        # by the system drivers, at 10^4+ peers the scan dominated).
        index = bisect_left(live, identifier, key=lambda node: node.node_id)
        return live[index] if index < len(live) else live[0]

    # ------------------------------------------------------------ operations --

    def put(self, key: str, value: Any, *, via: Optional[str] = None) -> dict[str, Any]:
        """Store ``value`` under ``key`` through a gateway node (synchronous)."""
        gateway = self.nodes[via] if via is not None else self.gateway()
        return self.runtime.run(until=self.runtime.process(gateway.put(key, value)))

    def get(self, key: str, *, via: Optional[str] = None) -> dict[str, Any]:
        """Fetch ``key`` through a gateway node (synchronous)."""
        gateway = self.nodes[via] if via is not None else self.gateway()
        return self.runtime.run(until=self.runtime.process(gateway.get(key)))

    def lookup(self, key: str, *, via: Optional[str] = None) -> dict[str, Any]:
        """Resolve the node responsible for ``key`` through routed lookups."""
        gateway = self.nodes[via] if via is not None else self.gateway()
        return self.runtime.run(until=self.runtime.process(gateway.lookup(key)))

    # ------------------------------------------------------------- stability --

    def is_stable(self) -> bool:
        """``True`` when successor/predecessor pointers match the ideal ring."""
        live = self.live_nodes()
        if not live:
            return True
        count = len(live)
        for index, node in enumerate(live):
            expected_successor = live[(index + 1) % count].ref
            expected_predecessor = live[(index - 1) % count].ref
            if node.successors.head != expected_successor:
                return False
            if count > 1 and node.predecessor != expected_predecessor:
                return False
        return True

    def _mark_unstable_near(self, node_id: int) -> None:
        """Mark the arc around ``node_id`` dirty after a membership change.

        A join, leave or crash at one position only changes the *ideal*
        successor/predecessor of its ring neighbours (and the node itself),
        so the incremental stability check need not re-examine the rest of
        the ring.  Any pointer churn the change causes elsewhere is caught
        by the full verification pass that arbitrates a drained dirty set.
        """
        live = self.live_nodes()
        if not live:
            self._dirty.clear()
            return
        identifiers = [node.node_id for node in live]
        position = bisect_left(identifiers, node_id)
        count = len(live)
        for offset in (position - 1, position, position + 1):
            self._dirty.add(live[offset % count].address.name)

    def _stability_poll(self) -> bool:
        """One stability check, re-examining only dirty nodes.

        Returns exactly what :meth:`is_stable` would — the dirty set is an
        accelerator, not a separate source of truth: when it drains, one
        full scan arbitrates (and re-seeds the set if in-flight maintenance
        disturbed a node nobody marked).  ``wait_until_stable`` therefore
        runs the simulation for precisely the same polls as the historical
        full-scan-per-poll loop, keeping seeded experiments byte-identical,
        while convergence polls on an N-node ring check O(dirty) pointers
        instead of O(N).
        """
        live = self.live_nodes()
        if not live:
            self._dirty.clear()
            return True
        count = len(live)
        position_of = {node.address.name: index for index, node in enumerate(live)}
        still_dirty: set[str] = set()
        for name in self._dirty:
            position = position_of.get(name)
            if position is None:
                continue  # no longer live: drop from the dirty set
            node = live[position]
            expected_successor = live[(position + 1) % count].ref
            expected_predecessor = live[(position - 1) % count].ref
            if node.successors.head != expected_successor or (
                count > 1 and node.predecessor != expected_predecessor
            ):
                still_dirty.add(name)
        self._dirty = still_dirty
        if still_dirty:
            return False
        if self.is_stable():
            return True
        self._dirty.update(node.address.name for node in live)
        return False

    def wait_until_stable(
        self,
        *,
        max_time: Optional[float] = None,
        check_interval: Optional[float] = None,
    ) -> bool:
        """Run the simulation until the ring stabilizes (or ``max_time`` elapses).

        Returns ``True`` if stability was reached.  The default time budget
        scales with the ring size and the stabilization interval so both
        tiny test rings and the 256-peer benchmark rings converge.
        """
        interval = (
            check_interval
            if check_interval is not None
            else self.config.stabilize_interval
        )
        budget = (
            max_time
            if max_time is not None
            else max(30.0, 8.0 * self.config.stabilize_interval * max(len(self.nodes), 4))
        )
        deadline = self.runtime.now + budget
        while not self._stability_poll():
            if self.runtime.now >= deadline:
                return False
            self.runtime.run(until=min(self.runtime.now + interval, deadline))
        return True

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` simulated seconds."""
        self.runtime.run(until=self.runtime.now + duration)

    # ------------------------------------------------------------ diagnostics --

    def summary(self) -> list[dict[str, Any]]:
        """Per-node routing snapshots (live nodes only), in ring order."""
        return [node.summary() for node in self.live_nodes()]

    def total_stored_items(self) -> int:
        """Total number of stored items across live nodes (owned + replicas)."""
        return sum(len(node.storage) for node in self.live_nodes())

    def replica_custody_violations(self) -> list[dict[str, Any]]:
        """Replica copies held by nodes with no custodial role for the key.

        A replica of key ``k`` is *in custody* when its holder is the
        ground-truth owner of ``k`` (a pending promotion) or one of the
        owner's first ``REPLICATION_FACTOR - 1`` live successors (a backup).
        Anything else is a stale copy that no refresh will ever touch —
        exactly what graceless hand-offs used to leave behind.  Computed
        from global knowledge, so tests can assert the invariant after
        churn settles.
        """
        live = self.live_nodes()
        violations: list[dict[str, Any]] = []
        if len(live) <= 1:
            return violations
        for index, node in enumerate(live):
            backup_of = {
                live[(index - offset) % len(live)].address.name
                for offset in range(1, REPLICATION_FACTOR)
            }
            for item in node.storage.replica_items():
                owner = self.responsible_node_for_id(item.key_id)
                if owner.address.name == node.address.name:
                    continue  # promotion pending: the holder owns the arc now
                if owner.address.name in backup_of:
                    continue  # legitimate backup for a predecessor
                violations.append(
                    {
                        "holder": node.address.name,
                        "key": item.key,
                        "owner": owner.address.name,
                    }
                )
        return violations

    def route_cache_stats(self) -> dict[str, float]:
        """Aggregated route-cache counters over all live nodes."""
        totals = {"entries": 0, "hits": 0, "misses": 0, "invalidations": 0}
        for node in self.live_nodes():
            stats = node.route_cache.stats()
            for key in totals:
                totals[key] += stats[key]
        lookups = totals["hits"] + totals["misses"]
        totals["hit_fraction"] = (totals["hits"] / lookups) if lookups else 0.0
        return totals

    def find_owner(self, key: str) -> Optional[NodeRef]:
        """Routed lookup of ``key``'s owner; ``None`` if the lookup fails."""
        try:
            return self.lookup(key)["node"]
        except (LookupFailed, DhtError):
            return None

    def _existing(self, name: str) -> ChordNode:
        node = self.nodes.get(name)
        if node is None:
            raise DhtError(f"unknown node {name!r}")
        return node
