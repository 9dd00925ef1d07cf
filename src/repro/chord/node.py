"""A single Chord node: routing, stabilization, storage and churn handling.

The node implements the protocol of Stoica et al. (ref [9] of the P2P-LTR
report) with the extensions the P2P-LTR prototype added on top of Open
Chord: successor lists sized for the *-Succ* backup roles, explicit key
hand-off on graceful departure, replica promotion after a predecessor crash
and one ownership transition (:meth:`ChordNode._take` /
:meth:`ChordNode._release`) whose service hook tells the timestamping layer
about every ownership change.

All long-running behaviour (joining, lookups, maintenance) is written as
simulation processes; RPC handlers that need to contact other peers are
generator handlers executed asynchronously by the RPC agent.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..errors import (
    PLACEMENT_FAILURES,
    KeyNotFound,
    LookupFailed,
    NodeNotJoined,
    NodeUnreachable,
    RequestTimeout,
)
from ..net import Address, Network, RpcAgent
from ..runtime import Process, Runtime
from ..storage import StorageBackend
from .config import ChordConfig
from .finger import FingerTable
from .hashing import hash_to_id
from .idspace import in_interval_open, in_interval_open_closed
from .refs import NodeRef
from .routecache import RouteCache
from .services import NodeService
from .storage import NodeStorage, StoredItem
from .successors import SuccessorList

_UNREACHABLE_ERRORS = (RequestTimeout, NodeUnreachable)

#: Retries of the ``find_successor`` request a (re)joining node sends its
#: bootstrap peer.
RPC_RETRIES = 1

#: Safety bound on routing recursion: a broken ring raises
#: :class:`~repro.errors.LookupFailed` instead of looping forever.
MAX_LOOKUP_HOPS = 64

#: Copies of each stored item: the owner's and a replica on its first live
#: successor, the paper's "replicate last-ts at the Master-Succ peer".
REPLICATION_FACTOR = 2


class ChordNode:
    """One peer of the Chord ring.

    Parameters
    ----------
    runtime, network:
        The shared execution runtime and network of the experiment.
    address:
        This peer's network identity; the ring identifier is the SHA-1 hash
        of the address name truncated to ``config.bits``.
    config:
        Chord tuning parameters.
    services:
        Application services hosted by this node (e.g. the P2P-LTR master
        service); see :class:`~repro.chord.services.NodeService`.
    storage_backend:
        Persistence for this node's stored items; defaults to the volatile
        in-memory backend.  A durable backend makes :meth:`restart` with
        ``recover=True`` meaningful (the peer reloads its data from disk).
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        address: Address,
        config: Optional[ChordConfig] = None,
        services: Optional[Iterable[NodeService]] = None,
        storage_backend: Optional[StorageBackend] = None,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.config = config if config is not None else ChordConfig()
        self.address = address
        self.node_id = hash_to_id(address.name, self.config.bits)
        self.ref = NodeRef(self.node_id, address)

        self.rpc = RpcAgent(runtime, network, address)
        self.storage = NodeStorage(self.config.bits, backend=storage_backend)
        self.fingers = FingerTable(self.node_id, self.config.bits)
        self.successors = SuccessorList(self.node_id)
        self.predecessor: Optional[NodeRef] = None

        self.alive = False
        # Set once :meth:`leave` begins: from then on ownership is refused.
        self._leaving = False
        self._next_finger = 0
        self._maintenance_epoch = 0
        self._replica_targets: tuple[NodeRef, ...] = ()
        self.lookups_served = 0
        self.route_cache = RouteCache(ttl=self.config.route_cache_ttl)
        # Identifier -> the background lookup :meth:`warm_route` started for
        # it, while that lookup is in flight.
        self._warming: dict[int, Process] = {}

        self.services: list[NodeService] = list(services or [])
        self.rpc.expose_object(self)
        for service in self.services:
            service.attach(self)

    # ------------------------------------------------------------------ api --

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChordNode {self.address.name} id={self.node_id} alive={self.alive}>"

    @property
    def successor(self) -> Optional[NodeRef]:
        """The node's current immediate successor."""
        return self.successors.head

    def service(self, name: str) -> Optional[NodeService]:
        """Find an attached service by its ``name`` attribute."""
        for candidate in self.services:
            if candidate.name == name:
                return candidate
        return None

    # ------------------------------------------------------- ring membership --

    def create(self) -> None:
        """Bootstrap a brand new ring containing only this node."""
        self.predecessor = None
        self.successors.replace([self.ref])
        self.fingers.fill_with(self.ref)
        self.alive = True
        self._leaving = False
        self._start_maintenance()

    def join(self, bootstrap: Address):
        """Join an existing ring through the peer at ``bootstrap``.

        Simulation process: yields until the node has located its successor
        and received the keys it is now responsible for.
        """
        answer = yield from self.rpc.request(
            bootstrap,
            "find_successor",
            target_id=self.node_id,
            hops=0,
            retries=RPC_RETRIES,
        )
        successor: NodeRef = answer["node"]
        self.predecessor = None
        self.successors.replace([successor])
        self.fingers.fill_with(successor)
        self.route_cache.clear()  # entries from a previous incarnation
        self.alive = True
        self._leaving = False
        self._start_maintenance()

        # Ask the successor for the keys that now belong to us.
        yield from self._reclaim_keys_from(successor)
        return self.ref

    def _reclaim_keys_from(self, successor: NodeRef):
        """Ask ``successor`` for the keys we are now responsible for (process).

        The hand-off tail shared by :meth:`join` and :meth:`rejoin`: best
        effort — an unreachable successor just means stabilization and the
        misplacement repair restore the data later.
        """
        try:
            items = yield self.rpc.call(
                successor.address,
                "handoff_keys",
                requester=self.ref,
            )
        except _UNREACHABLE_ERRORS:
            items = []
        if items:
            self._absorb_items(items, as_replica=False)

    def leave(self):
        """Gracefully leave the ring, handing keys to the successor.

        Simulation process.  This is the paper's "Master-key peer leaves the
        system normally" path: all owned keys (including timestamp counters
        and log entries) are pushed to the successor before departure.
        """
        if not self.alive:
            return None
        self._leaving = True
        successor = self.successors.head
        owned = self.storage.owned_items()
        replicas = self.storage.replica_items()
        if successor is not None and successor != self.ref and (owned or replicas):
            try:
                if owned:
                    # ``from_owner`` lets the successor accept the ownership
                    # transfer even though its predecessor pointer still
                    # names us (we only notify it below, after the data is
                    # safe).
                    yield self.rpc.call(
                        successor.address,
                        "receive_items",
                        items=owned,
                        as_replica=False,
                        from_owner=self.ref,
                    )
                if replicas:
                    # Keep the replication degree of our predecessors' data:
                    # the successor inherits our role as their backup.
                    yield self.rpc.call(
                        successor.address,
                        "receive_items",
                        items=replicas,
                        as_replica=True,
                    )
                if owned:
                    # The records as held now: a write may have replaced one
                    # while the calls were out.
                    handed = {item.key for item in owned}
                    self._release([item for item in self.storage.owned_items()
                                   if item.key in handed])
            except _UNREACHABLE_ERRORS:
                pass
        # Link predecessor and successor to each other so stabilization
        # converges faster than by timeout detection alone.
        if successor is not None and self.predecessor is not None and successor != self.ref:
            self.rpc.notify(successor.address, "notify", candidate=self.predecessor)
            self.rpc.notify(
                self.predecessor.address,
                "successor_leaving",
                leaving=self.ref,
                replacement=successor,
            )
        self.alive = False
        self.rpc.go_offline(crash=False)
        return successor

    def fail(self) -> None:
        """Crash abruptly: no hand-off, no notifications (paper's failure case)."""
        self.alive = False
        self.rpc.go_offline(crash=True)

    def restart(self, *, amnesia: bool = False, recover: bool = False) -> None:
        """Re-register with the network after :meth:`fail` (same identity).

        The node must re-join a ring explicitly (:meth:`join` or
        :meth:`rejoin`).  Three flavours:

        * default — state-preserving: only the network endpoint was down;
        * ``amnesia=True`` — the peer comes back on fresh hardware: storage
          (including any on-disk database), routing tables and predecessor
          are all gone;
        * ``recover=True`` — the peer restarts *as a new process on the
          same disk*: routing state (in-memory by nature) is gone, but the
          storage backend is reopened and reloads whatever it persisted.
          With the volatile default backend this degenerates to amnesia,
          which is the honest outcome.
        """
        if amnesia and recover:
            raise ValueError("restart cannot be both amnesiac and recovering")
        if amnesia or recover:
            if amnesia:
                self.storage.backend.clear()
            else:
                self.storage.reopen()
            self.fingers = FingerTable(self.node_id, self.config.bits)
            self.successors = SuccessorList(self.node_id)
            self.predecessor = None
            self._replica_targets = ()
            self.route_cache.clear()
        self.rpc.go_online()

    def rejoin(self, bootstrap: Address):
        """Re-enter a ring after a restart or an islanding event.

        Simulation process.  Two situations end with a live peer outside the
        ring: a crash + :meth:`restart` (the ring routed around us), and a
        healed partition that left us a singleton (our side timed everyone
        out and we collapsed to ``successor == self``).  A dead node takes
        the full :meth:`join` path; an alive-but-islanded node only re-runs
        the successor handshake — respawning the maintenance loops would
        double them.
        """
        if not self.alive:
            result = yield from self.join(bootstrap)
            return result
        answer = yield from self.rpc.request(
            bootstrap,
            "find_successor",
            target_id=self.node_id,
            hops=0,
            retries=RPC_RETRIES,
        )
        successor: NodeRef = answer["node"]
        if successor == self.ref:
            return self.ref  # the gateway still routes to us: nothing to repair
        self.predecessor = None
        self.successors.replace([successor])
        self.fingers.fill_with(successor)
        self.route_cache.clear()
        self.rpc.notify(successor.address, "notify", candidate=self.ref)
        # While we were islanded the ring routed our arc to the successor;
        # reclaim the keys it stood in for (same hand-off a fresh join gets),
        # otherwise lookups that now resolve to us again would miss them.
        yield from self._reclaim_keys_from(successor)
        return self.ref

    # ------------------------------------------------------------- lookups --

    def find_successor(self, target_id: int):
        """Locate the node responsible for ``target_id``.

        Simulation process returning a ``{"node": NodeRef, "hops": int}``
        mapping.  This is the client-side entry point; the recursive work is
        done by the ``find_successor`` RPC handler.
        """
        if not self.alive:
            raise NodeNotJoined(f"{self.address.name} is not part of a ring")
        warming = self._warming.get(target_id)
        if warming is not None:
            # A warm-up of this very identifier is on its way: wait for it
            # instead of walking the same fingers twice, then read its
            # answer from the cache like any later lookup would.
            yield warming
        result = yield from self._find_successor_local(target_id, 0)
        return result

    def lookup(self, key: str):
        """Find the node responsible for the string ``key`` (hashes then routes)."""
        result = yield from self.find_successor(hash_to_id(key, self.config.bits))
        return result

    def call_owner(self, target_id: int, method: str, **arguments: Any):
        """Route to the peer responsible for ``target_id``, then invoke
        ``method`` on it (process).

        The one routed-call path: when the owner does not answer, the
        routes naming it are dropped before the error propagates, so the
        next call routes afresh instead of riding a dead route until its
        TTL.  Returns ``{"owner": NodeRef, "hops": int, "result": Any}``.
        """
        answer = yield from self.find_successor(target_id)
        owner: NodeRef = answer["node"]
        try:
            result = yield self.rpc.call(owner.address, method, **arguments)
        except _UNREACHABLE_ERRORS:
            self.forget_routes_to(owner)
            raise
        return {"owner": owner, "hops": answer["hops"], "result": result}

    def put(self, key: str, value: Any, *, key_id: Optional[int] = None):
        """Store ``value`` under ``key`` at the responsible node (process)."""
        identifier = key_id if key_id is not None else hash_to_id(key, self.config.bits)
        answer = yield from self.call_owner(
            identifier, "store", key=key, value=value, key_id=identifier,
        )
        return {"owner": answer["owner"], "hops": answer["hops"], "stored": answer["result"]}

    def get(self, key: str, *, key_id: Optional[int] = None):
        """Fetch the value stored under ``key`` (process); raises KeyNotFound."""
        identifier = key_id if key_id is not None else hash_to_id(key, self.config.bits)
        answer = yield from self.call_owner(
            identifier, "fetch", key=key
        )
        return {"owner": answer["owner"], "hops": answer["hops"], "value": answer["result"]}

    def remove(self, key: str, *, key_id: Optional[int] = None):
        """Delete ``key`` from the responsible node (process)."""
        identifier = key_id if key_id is not None else hash_to_id(key, self.config.bits)
        answer = yield from self.call_owner(
            identifier, "delete", key=key
        )
        return {"owner": answer["owner"], "hops": answer["hops"], "removed": answer["result"]}

    def _find_successor_local(self, target_id: int, hops: int):
        """Shared routing logic used both locally and by the RPC handler."""
        if hops > MAX_LOOKUP_HOPS:
            raise LookupFailed(f"lookup of {target_id} exceeded {MAX_LOOKUP_HOPS} hops")
        successor = self.successors.head or self.ref
        if successor == self.ref or in_interval_open_closed(
            target_id, self.node_id, successor.node_id
        ):
            answer = {"node": successor, "hops": hops}
            if successor != self.ref:
                # Don't advertise the degenerate (self, self] interval: it
                # covers the whole ring, so caching it (e.g. after a
                # transient successor-list collapse) would misroute every
                # key towards this node for a full TTL.
                answer["interval"] = (self.node_id, successor.node_id)
            return answer

        cached = self._cached_route(target_id)
        if cached is not None:
            interval, owner, stamp = cached
            return {
                "node": owner, "hops": hops, "interval": interval,
                "cached": True, "age": self.runtime.now - stamp,
            }

        # The exclusion set tracks refs found unresponsive during *this*
        # lookup; allocated lazily because the overwhelmingly common lookup
        # never loses a candidate.
        excluded: Optional[set[NodeRef]] = None
        while True:
            candidate = self.fingers.closest_preceding(target_id, exclude=excluded)
            if candidate is None or candidate == self.ref:
                candidate = self._first_live_successor_candidate(excluded)
            if candidate is None:
                raise LookupFailed(f"no route towards {target_id} from {self.address.name}")
            try:
                answer = yield self.rpc.call(
                    candidate.address,
                    "find_successor",
                    target_id=target_id,
                    hops=hops + 1,
                )
                self._remember_route(answer)
                return answer
            except _UNREACHABLE_ERRORS:
                if excluded is None:
                    excluded = set()
                excluded.add(candidate)
                self.fingers.remove_node(candidate)
                self.successors.remove(candidate)
                self.route_cache.invalidate_node(candidate)

    def _cached_route(
        self, target_id: int
    ) -> Optional[tuple[tuple[int, int], NodeRef, float]]:
        """A fresh cached ``(interval, owner, stamp)`` for ``target_id``, if usable.

        A hit is only served while the owner is still registered with the
        network; an entry pointing at a crashed/departed peer is purged
        instead of returned, so routing falls back to the finger chain.
        """
        cached = self.route_cache.lookup(target_id, self.runtime.now)
        if cached is None:
            return None
        owner = cached[1]
        if not self.network.is_up(owner.address):
            self.route_cache.invalidate_node(owner)
            return None
        if not self.network.partitions.allows(self.address, owner.address):
            # The owner is unreachable inside an active partition window.
            # Our side of the partition reorganizes responsibility while the
            # entry sits in the cache, so the route must not survive into
            # the healed network either: purge it now instead of serving a
            # pre-partition claim after the heal.
            self.route_cache.invalidate_node(owner)
            return None
        return cached

    # The route cache seen from outside ``repro.chord``: three verbs.

    def forget_route(self, target_id: int) -> None:
        """Drop the cached routes covering ``target_id`` (its owner answered wrongly)."""
        self.route_cache.forget(target_id)

    def forget_routes_to(self, owner: NodeRef) -> None:
        """Drop the cached routes naming ``owner``: an RPC to it went unanswered.

        The cache itself only refuses an owner the network *knows* to be
        down; a peer hosted by another process (or a crash nobody announced)
        is found out by the caller whose RPC got no answer — without the
        purge every retry would be routed to the same dead peer until the
        entry's TTL.
        """
        self.route_cache.invalidate_node(owner)

    def warm_route(self, target_id: int) -> None:
        """Learn the route to ``target_id`` before the operation that needs it.

        Fire and forget, for a caller that knows an identifier it is about
        to look up (the Master: the placements of the timestamps it hands
        out next; a reader: its next window).  A synchronous probe first —
        when this node's own arc or a fresh cache entry would already answer
        the lookup, nothing happens at all: no process, timer or message.
        Only a miss starts a background lookup; it sends ``find_successor``
        and nothing else, stores nothing but the route (an ordinary cache
        entry, stale by the same rules as any other), never raises, and a
        :meth:`find_successor` that needs the identifier meanwhile joins it.
        """
        if not self.alive or target_id in self._warming:
            return
        successor = self.successors.head or self.ref
        if (
            successor == self.ref
            or in_interval_open_closed(target_id, self.node_id, successor.node_id)
            or self.route_cache.covers(target_id, self.runtime.now)
        ):
            return
        self._warming[target_id] = self.runtime.process(
            self._warm_lookup(target_id), name=f"warm:{target_id}"
        )

    def _warm_lookup(self, target_id: int):
        """The background lookup of :meth:`warm_route`; failing is not an error."""
        try:
            yield from self._find_successor_local(target_id, 0)
        except PLACEMENT_FAILURES:
            pass  # the operation that needs the route will look it up itself
        finally:
            del self._warming[target_id]

    def _remember_route(self, answer: dict) -> None:
        """Cache the routes a lookup answer carries, the asked-for one last.

        An answer that crossed the network carries the answering peer's
        fresh routes (:meth:`_carried_routes`), each with its age; they are
        learned first, so the route the lookup asked for is stored last and
        a bulk learn never evicts it.

        Only an authoritative base-case answer (re)starts the TTL clock.  An
        answer served from another node's cache (``cached`` flag) is learned
        too — otherwise every node behind a finger would relay through that
        finger for the whole TTL — but *back-dated* by the ``age`` the
        serving node reported (``now - stamp`` on its own clock, so the
        figure survives process boundaries); so is every carried route.  A
        route therefore still dies at the authoritative stamp plus TTL
        however many caches it travelled through; re-stamping it with the
        arrival time instead would let a stale route circulate between nodes
        forever.
        """
        for interval, owner, age in answer.get("routes", ()):
            self._learn_route(interval, owner, age)
        interval = answer.get("interval")
        if interval is not None:
            age = answer.get("age") if answer.get("cached") else 0.0
            self._learn_route(interval, answer["node"], age)

    def _learn_route(self, interval, owner: NodeRef, age: Any) -> None:
        """Store one route back-dated by ``age``.

        An age that is missing, not a number or not below the TTL is not
        stored; a negative age counts as zero.
        """
        # ``age < ttl`` is also False for NaN.
        if not isinstance(age, (int, float)) or not age < self.route_cache.ttl:
            return
        self.route_cache.store(tuple(interval), owner, self.runtime.now - max(age, 0.0))

    def _carried_routes(self) -> tuple:
        """The routes a ``find_successor`` answer leaving this node carries.

        Every fresh route-cache entry with its age, and this node's own
        ``(self, successor]`` arc at age zero — the arc the base case
        vouches for.  Nothing else: not the predecessor arc (a predecessor
        pointer left too wide by a fault would advertise another peer's
        arc) and not the rest of the successor list (a stale list entry
        would be vouched for as fresh).  A tuple of immutables, so the
        simulated network shares it instead of copying it.
        """
        routes = self.route_cache.fresh_routes(self.runtime.now)
        successor = self.successors.head
        if successor is not None and successor != self.ref:
            routes.append(((self.node_id, successor.node_id), successor, 0.0))
        return tuple(routes)

    def _first_live_successor_candidate(
        self, excluded: Optional[set[NodeRef]]
    ) -> Optional[NodeRef]:
        for entry in self.successors.entries():
            if (excluded is None or entry not in excluded) and entry != self.ref:
                return entry
        return None

    # -------------------------------------------------------------- handlers --

    def rpc_ping(self) -> bool:
        """Liveness probe."""
        return True

    def rpc_find_successor(self, target_id: int, hops: int = 0):
        """Recursive lookup handler (generator: may forward to other peers).

        The answer teaches the asker what the answering peer knows: it
        carries that peer's :meth:`_carried_routes`, which every node on the
        way back learns.
        """
        self.lookups_served += 1
        result = yield from self._find_successor_local(target_id, hops)
        # Only answers that leave the node carry routes (a local lookup
        # never builds them), and they are the routes of the peer that
        # answered: a relayed answer carries them on unchanged.
        if "routes" not in result:
            result["routes"] = self._carried_routes()
        return result

    def rpc_get_predecessor(self) -> Optional[NodeRef]:
        """Return the node's current predecessor (may be ``None``)."""
        return self.predecessor

    def rpc_get_successor_list(self) -> list[NodeRef]:
        """Return the node's successor list, nearest first."""
        return self.successors.entries()

    def rpc_notify(self, candidate: NodeRef) -> None:
        """Chord ``notify``: ``candidate`` believes it is our predecessor."""
        if (
            self.predecessor is None
            or not self.network.is_up(self.predecessor.address)
            or in_interval_open(candidate.node_id, self.predecessor.node_id, self.node_id)
        ):
            if self.predecessor is not None and self.predecessor != candidate:
                # A peer slotted in between our old predecessor and us: any
                # cached claim about who owns that arc is now suspect.
                self.route_cache.clear()
            self.predecessor = candidate

    def rpc_successor_leaving(self, leaving: NodeRef, replacement: NodeRef) -> None:
        """A departing successor tells us to link to its own successor."""
        if self.successors.head == leaving:
            self.successors.remove(leaving)
            if replacement != self.ref and replacement not in self.successors:
                self.successors.replace([replacement] + self.successors.entries())
            elif len(self.successors) == 0:
                self.successors.replace([replacement])
        self.fingers.remove_node(leaving)
        self.route_cache.invalidate_node(leaving)

    def rpc_store(self, key: str, value: Any, key_id: Optional[int] = None,
                  is_replica: bool = False) -> bool:
        """Store an item locally and push replicas to the successors."""
        item = self.storage.put(
            key, value, is_replica=is_replica, now=self.runtime.now, key_id=key_id
        )
        if not is_replica:
            self._push_replicas([item])
        return True

    def rpc_store_many(self, items: list[dict], is_replica: bool = False) -> int:
        """Store a batch of items locally with one replication push.

        ``items`` is a list of ``{"key", "value", "key_id"}`` mappings.  This
        is the server side of the commit pipeline: a whole commit
        batch headed for this node lands in one RPC, and the successor
        replicas receive one ``receive_items`` notification instead of one
        per item.
        """
        now = self.runtime.now  # one clock read; no yields between the puts
        stored = [
            self.storage.put(
                entry["key"],
                entry["value"],
                is_replica=is_replica,
                now=now,
                key_id=entry.get("key_id"),
            )
            for entry in items
        ]
        if not is_replica and stored:
            self._push_replicas(stored)
        return len(stored)

    def rpc_fetch(self, key: str) -> Any:
        """Return the locally stored value for ``key`` or raise KeyNotFound."""
        item = self.storage.get(key)
        if item is None:
            raise KeyNotFound(key)
        return item.value

    def rpc_fetch_many(self, keys: list[str]) -> dict[str, Any]:
        """Return the locally stored values for every held key of ``keys``.

        The server side of grouped range reads (``ChordDhtClient.get_many`` /
        the P2P-Log's ``fetch_range``): a whole span of entries headed for
        this Log-Peer is answered in one RPC.  Keys not held here are
        simply absent from the answer — the caller falls back per key.
        """
        found: dict[str, Any] = {}
        for key in keys:
            item = self.storage.get(key)
            if item is not None:
                found[key] = item.value
        return found

    def rpc_delete(self, key: str) -> bool:
        """Delete ``key`` locally; returns whether it existed."""
        return self.storage.remove(key)

    def rpc_delete_value(self, key: str, expected: Any) -> bool:
        """Delete ``key`` only if it still holds ``expected`` (atomic here).

        A compare-and-delete for retractions: the caller may be racing a
        writer that legitimately re-used the storage key (e.g. a new
        Master-key peer publishing the same ``key + ts`` placement), and
        must never remove that writer's value.
        """
        item = self.storage.get(key)
        if item is None or item.value != expected:
            return False
        return self.storage.remove(key)

    def rpc_handoff_keys(self, requester: NodeRef) -> list[StoredItem]:
        """Hand over the keys a joining predecessor is now responsible for.

        The requester sits between our (old) predecessor and us, so it takes
        every owned key outside our new responsibility interval
        ``(requester, self]``.  We keep a replica copy because we are the
        first successor of those keys; the copies go to the back of the
        store, as they are taken out of it first.
        """
        start = self.predecessor.node_id if self.predecessor is not None else self.node_id
        moving = self.storage.extract_interval(start, requester.node_id)
        if not moving:
            # Fall back to "everything outside (requester, self]" when the
            # predecessor pointer is stale (e.g. it crashed silently).
            start = self.node_id
            moving = self.storage.extract_interval(start, requester.node_id)
        self._release(moving)
        # The requester took over part of our old interval; any cached claim
        # naming us for that arc is stale.
        self.route_cache.clear()
        return moving

    def rpc_receive_items(
        self,
        items: list[StoredItem],
        as_replica: bool = False,
        from_owner: Optional[NodeRef] = None,
    ) -> int:
        """Accept items pushed by another node (leave hand-off or replication).

        ``from_owner`` identifies a departing predecessor handing its keys
        over; see :meth:`_take` for how it gates replica promotion.  Answers
        how many of the items this node owns afterwards for an ownership
        transfer, how many were newer for a replica push.

        A peer that has begun :meth:`leave` refuses ownership as if it were
        gone already.  Its successor holds the keys it just handed over, but
        until our ``notify`` lands the successor's predecessor pointer still
        names us, so its misplacement repair would send them straight back
        to depart with us; refused, the repair keeps its copy.
        """
        if self._leaving and not as_replica:
            raise NodeUnreachable(f"{self.address.name} is leaving the ring")
        return self._absorb_items(items, as_replica=as_replica, from_owner=from_owner)

    # ----------------------------------------------------------- maintenance --

    def _start_maintenance(self) -> None:
        # A crash + restart within one maintenance interval would otherwise
        # leave the pre-crash loops runnable next to the fresh ones (they
        # only observe ``alive`` when their timers fire); bumping the epoch
        # retires every older generation deterministically.
        self._maintenance_epoch += 1
        epoch = self._maintenance_epoch
        self.runtime.process(
            self._stabilize_loop(epoch), name=f"{self.address.name}.stabilize"
        )
        self.runtime.process(
            self._fix_fingers_loop(epoch), name=f"{self.address.name}.fix_fingers"
        )
        self.runtime.process(
            self._check_predecessor_loop(epoch), name=f"{self.address.name}.check_pred"
        )

    def _maintenance_active(self, epoch: int) -> bool:
        return self.alive and self._maintenance_epoch == epoch

    def _maintenance_phase(self) -> float:
        """Deterministic per-node phase in ``[0, 1)`` staggering maintenance.

        Derived from the ring identifier (uniform by construction), so two
        seeded runs stagger identically and no RNG stream is consumed.
        """
        return (self.node_id % 8192) / 8192.0

    def _first_delay(self, interval: float) -> float:
        """Delay before a maintenance loop's first firing.

        With ``maintenance_stagger == 0`` this is exactly ``interval`` —
        the historical lock-step behaviour, preserved so seeded artifacts
        stay byte-identical.  With a positive stagger the first firing
        shifts by up to ``stagger * phase`` intervals, de-synchronizing the
        per-node loops; subsequent firings keep the plain interval.
        """
        stagger = self.config.maintenance_stagger
        if stagger <= 0.0:
            return interval
        return interval * (1.0 + stagger * self._maintenance_phase())

    def _stabilize_loop(self, epoch: int):
        interval = self.config.stabilize_interval
        delay = self._first_delay(interval)
        while self._maintenance_active(epoch):
            yield self.runtime.timeout(delay)
            delay = interval
            if not self._maintenance_active(epoch):
                break
            yield from self._stabilize_once()

    def _fix_fingers_loop(self, epoch: int):
        interval = self.config.fix_fingers_interval
        delay = self._first_delay(interval)
        while self._maintenance_active(epoch):
            yield self.runtime.timeout(delay)
            delay = interval
            if not self._maintenance_active(epoch):
                break
            yield from self._fix_fingers_round()

    def _check_predecessor_loop(self, epoch: int):
        interval = self.config.check_predecessor_interval
        delay = self._first_delay(interval)
        while self._maintenance_active(epoch):
            yield self.runtime.timeout(delay)
            delay = interval
            if not self._maintenance_active(epoch):
                break
            yield from self._check_predecessor_once()

    def _stabilize_once(self):
        head_before = self.successors.head
        successor = self.successors.head
        if successor is None:
            self.successors.replace([self.ref])
            successor = self.ref
        if successor == self.ref:
            # Single-node ring (or temporarily islanded): adopt the
            # predecessor as successor if one announced itself.
            if self.predecessor is not None and self.predecessor != self.ref:
                self.successors.replace([self.predecessor])
            return

        try:
            their_predecessor = yield self.rpc.call(
                successor.address,
                "get_predecessor",
            )
            if their_predecessor is not None and in_interval_open(
                their_predecessor.node_id, self.node_id, successor.node_id
            ):
                if self.network.is_up(their_predecessor.address):
                    successor = their_predecessor
            their_list = yield self.rpc.call(
                successor.address,
                "get_successor_list",
            )
            self.successors.adopt(successor, their_list)
            self.rpc.notify(successor.address, "notify", candidate=self.ref)
            self._refresh_replicas_if_targets_changed()
            yield from self._repair_misplaced_items()
            if self.successors.head != head_before:
                # Our immediate successor changed (join or repair): our own
                # base-case interval moved, so cached routes are suspect.
                self.route_cache.clear()
        except _UNREACHABLE_ERRORS:
            self._handle_successor_failure(successor)

    def _handle_successor_failure(self, failed: NodeRef) -> None:
        self.fingers.remove_node(failed)
        self.successors.remove(failed)
        self.route_cache.invalidate_node(failed)
        if self.successors.head is None:
            fallback = [ref for ref in self.fingers.known_nodes() if ref != failed]
            if fallback:
                self.successors.replace(fallback)
            else:
                self.successors.replace([self.ref])

    def _fix_fingers_round(self):
        """Repair ``fingers_per_round`` finger entries (simulation process).

        With the default of one per round this is exactly the classic
        protocol; batched repair lets scale configurations converge the
        whole table in ``bits / fingers_per_round`` rounds at unchanged
        timer frequency.
        """
        for _ in range(self.config.fingers_per_round):
            yield from self._fix_one_finger()
            if self.successors.head is None or self.successors.head == self.ref:
                break  # degenerate ring: one fill_with was enough

    def _fix_one_finger(self):
        if self.successors.head is None or self.successors.head == self.ref:
            self.fingers.fill_with(self.ref)
            return
        index = self._next_finger
        self._next_finger = (self._next_finger + 1) % self.config.bits
        target = self.fingers.start(index)
        try:
            answer = yield from self._find_successor_local(target, 0)
        except LookupFailed:
            return
        self.fingers.update(index, answer["node"])

    def _check_predecessor_once(self):
        predecessor = self.predecessor
        if predecessor is None or predecessor == self.ref:
            return
        try:
            yield self.rpc.call(
                predecessor.address,
                "ping",
            )
        except _UNREACHABLE_ERRORS:
            # With no predecessor our arc is the whole ring: every replica
            # held here is taken.
            self.predecessor = None
            self._take(self.storage.replica_items())

    #: How many misplaced items one stabilize round repairs (bounds the
    #: extra traffic a heavily disturbed node generates per interval).
    REPAIR_BATCH = 8

    def _repair_misplaced_items(self):
        """Forward owned items that do not belong to us any more (process).

        Degraded routing — message-loss windows, transient partitions —
        can land a write on a stand-in peer: the lookup excluded the real
        owner as unreachable, so the item was stored *owned* outside the
        stand-in's responsibility interval.  Nothing ever moves it back
        (hand-off only covers joins and departures), leaving the item
        invisible to every correctly routed read.  Each stabilize round
        therefore re-routes up to :data:`REPAIR_BATCH` misplaced owned
        items to their current owner, and releases its own copy — keeping
        it as a replica, a backup — only once the owner answers that it
        took the item.  On a stable ring with correctly placed data this
        scan finds nothing and costs no messages — seeded fault-free runs
        stay byte-identical.
        """
        if self.predecessor is None or self.predecessor == self.ref:
            return
        start, end = self.responsibility_interval()
        if start == end:
            return  # single-node interval covers the whole ring
        misplaced = [
            item for item in self.storage.owned_items()
            if item.key_id is not None
            and not in_interval_open_closed(item.key_id, start, end)
        ][:self.REPAIR_BATCH]
        for item in misplaced:
            try:
                answer = yield from self._find_successor_local(item.key_id, 0)
            except LookupFailed:
                continue
            owner: NodeRef = answer["node"]
            if owner == self.ref:
                continue  # our view says it is ours after all
            try:
                taken = yield self.rpc.call(
                    owner.address,
                    "receive_items",
                    items=[item],
                    as_replica=False,
                )
            except _UNREACHABLE_ERRORS:
                continue
            if not taken:
                # The receiver kept its copy a replica (by its own
                # predecessor pointer it is not responsible): releasing ours
                # would leave no owner.  A later round routes it again.
                continue
            held = self.storage.get(item.key)
            if held is not None and not held.is_replica:
                self._release([held])

    # ----------------------------------------------------------- replication --

    def _refresh_replicas_if_targets_changed(self) -> None:
        """Re-push replicas of owned items when the replica-holding successors change.

        Write-time replication alone is not enough under churn: a successor
        that held our replicas may leave or crash, or a new successor may
        slot in between us and the old replica holder.  Refreshing on every
        successor-list change keeps the paper's *-Succ* backups populated.
        """
        targets = self._backups()
        if targets == self._replica_targets:
            return
        self._replica_targets = targets
        owned = self.storage.owned_items()
        if owned and targets:
            self._push_replicas(owned)

    def _backups(self) -> tuple[NodeRef, ...]:
        """The successors that hold replica copies of this node's items."""
        return tuple(
            entry for entry in self.successors.entries() if entry != self.ref
        )[:REPLICATION_FACTOR - 1]

    def _push_replicas(self, items: list[StoredItem]) -> None:
        if not items:
            return
        for target in self._backups():
            # The receiver builds its own replica records (``absorb``).
            self.rpc.notify(target.address, "receive_items", items=items, as_replica=True)

    def _absorb_items(
        self,
        items: list[StoredItem],
        *,
        as_replica: bool,
        from_owner: Optional[NodeRef] = None,
    ) -> int:
        absorbed = self.storage.absorb(items, as_replica=as_replica, now=self.runtime.now)
        if as_replica:
            return absorbed
        # An ownership transfer (join hand-off, a departing predecessor's
        # hand-over, a misplaced item forwarded here).
        return len(self._take(
            [held for item in items if (held := self.storage.get(item.key)) is not None],
            sender=from_owner,
        ))

    # ------------------------------------------------------------- ownership --

    def _take(self, items: list[StoredItem], *,
              sender: Optional[NodeRef] = None) -> list[StoredItem]:
        """Make this node the owner of ``items``, records of its store.

        One half of the ownership transition (:meth:`_release` is the
        other).  A replica copy is taken only if this node's arc covers it,
        or if ``sender`` is the predecessor gracefully handing its arc over
        (it tells us *before* updating our predecessor pointer): a replayed
        transfer arriving after a concurrent takeover moved the arc
        elsewhere must not mint a second owner.  The flag is written
        through, replication is restored at the successors right away (a
        second failure would otherwise lose items that just lost their only
        other copy), and the services hear of the items taken.  Returns
        them.
        """
        taken = [
            item for item in items
            if not item.is_replica
            or self.is_responsible_for(item.key_id)
            or (sender is not None and sender == self.predecessor)
        ]
        for item in taken:
            if item.is_replica:
                item.is_replica = False
                self.storage.write(item)
        self._push_replicas(taken)
        if taken:
            for service in self.services:
                service.on_ownership_moved(taken)
        return taken

    def _release(self, items: list[StoredItem]) -> None:
        """End this node's ownership of ``items``, its owned records.

        The other half of the ownership transition.  Each record is written
        back as a replica copy (in place, or at the back of the store for
        one the caller took out of it).  The services hear of the items
        released.
        """
        for item in items:
            item.is_replica = True
            self.storage.write(item)
        if items:
            for service in self.services:
                service.on_ownership_moved(items)

    # ----------------------------------------------------------- diagnostics --

    def responsibility_interval(self) -> tuple[int, int]:
        """The ``(predecessor, self]`` interval this node currently owns."""
        start = self.predecessor.node_id if self.predecessor is not None else self.node_id
        return (start, self.node_id)

    def is_responsible_for(self, key_id: int) -> bool:
        """``True`` if ``key_id`` falls in this node's responsibility interval."""
        start, end = self.responsibility_interval()
        return in_interval_open_closed(key_id, start, end)

    def summary(self) -> dict[str, Any]:
        """A snapshot of the node's routing state for reports and debugging."""
        return {
            "name": self.address.name,
            "id": self.node_id,
            "alive": self.alive,
            "successor": str(self.successors.head) if self.successors.head else None,
            "predecessor": str(self.predecessor) if self.predecessor else None,
            "successor_list": [str(entry) for entry in self.successors],
            "stored_keys": len(self.storage),
            "owned_keys": len(self.storage.owned_items()),
            "lookups_served": self.lookups_served,
            "route_cache": self.route_cache.stats(),
        }
