"""System wiring: a complete P2P-LTR deployment under simulation.

:class:`LtrSystem` assembles everything the paper's prototype assembles —
the Chord DHT, the timestamp authorities, the Master-key services, the
P2P-Log and the user peers — behind a synchronous driver API that tests,
examples and benchmarks use to script scenarios ("issue several
simultaneous updates coming from different peers", "provoke failures",
"add/remove peers to/from the system").
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Iterable, Optional

from ..chord import ChordConfig, ChordRing, HashFunctionFamily, timestamp_hash
from ..dht import ChordDhtClient
from ..errors import DhtError
from ..kts import TimestampAuthority
from ..net import Address, ConstantLatency, LatencyModel, Network
from ..p2plog import P2PLogClient
from ..runtime import Runtime, backend_name, resolve_runtime
from ..storage import StorageBackend, create_backend
from .config import LtrConfig
from .consistency import ConsistencyReport, build_report, verify_log_continuity
from .master import MasterService
from .protocol import CommitResult
from .user_peer import UserPeer

#: Chord parameters sized for interactive experiments (small rings, fast churn).
DEFAULT_CHORD_CONFIG = ChordConfig(
    bits=32,
    stabilize_interval=0.25,
    fix_fingers_interval=0.5,
    check_predecessor_interval=0.5,
)


class LtrSystem:
    """A running P2P-LTR system: DHT ring + services + user peers."""

    def __init__(
        self,
        *,
        ltr_config: Optional[LtrConfig] = None,
        chord_config: Optional[ChordConfig] = None,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        runtime: Optional[Runtime | str] = None,
        network: Optional[Network] = None,
    ) -> None:
        self.ltr_config = ltr_config if ltr_config is not None else LtrConfig()
        self.chord_config = chord_config if chord_config is not None else DEFAULT_CHORD_CONFIG
        # Runtime selection: an explicit instance or backend name wins,
        # otherwise the config's ``runtime_backend`` picks the backend.
        self.runtime = resolve_runtime(
            runtime if runtime is not None else self.ltr_config.runtime_backend,
            seed=seed,
        )
        self.network = network if network is not None else Network(
            self.runtime, latency=latency if latency is not None else ConstantLatency(0.005)
        )
        self.hash_family = HashFunctionFamily.create(
            self.ltr_config.log_replication_factor, bits=self.chord_config.bits
        )
        self.ht = timestamp_hash(self.chord_config.bits)
        # Durable storage: the sqlite backend needs a directory for its
        # per-node database files.  A config without one gets a private
        # temporary directory, removed again on shutdown().
        self._storage_dir: Optional[Path] = None
        self._auto_storage_dir = False
        if self.ltr_config.storage_backend != "memory":
            if self.ltr_config.storage_dir is not None:
                self._storage_dir = Path(self.ltr_config.storage_dir)
            else:
                self._storage_dir = Path(
                    tempfile.mkdtemp(prefix="repro-ltr-storage-")
                )
                self._auto_storage_dir = True
        self.ring = ChordRing(
            runtime=self.runtime,
            network=self.network,
            config=self.chord_config,
            service_factory=self._make_services,
            storage_factory=self._node_storage_backend,
        )
        self._users: dict[str, UserPeer] = {}
        self._observers: list[Any] = []

    @property
    def runtime_backend(self) -> str:
        """Name of the execution backend this system runs on."""
        return backend_name(self.runtime)

    @property
    def storage_dir(self) -> Optional[Path]:
        """Directory holding per-node database files (``None`` for memory)."""
        return self._storage_dir

    def _node_storage_backend(self, name: str) -> Optional[StorageBackend]:
        """The storage backend for one peer (``None`` = default in-memory)."""
        if self.ltr_config.storage_backend == "memory":
            return None
        assert self._storage_dir is not None
        return create_backend(
            self.ltr_config.storage_backend,
            path=self._storage_dir / f"{name}.sqlite",
        )

    def shutdown(self) -> None:
        """Release backend resources: node storage, the runtime's loop, and
        (when this system created it) the temporary storage directory."""
        for node in self.ring.nodes.values():
            node.storage.close()
        close = getattr(self.runtime, "close", None)
        if callable(close):
            close()
        if self._auto_storage_dir and self._storage_dir is not None:
            shutil.rmtree(self._storage_dir, ignore_errors=True)
            self._auto_storage_dir = False

    # -------------------------------------------------------------- observers --

    def add_observer(self, observer: Any) -> None:
        """Attach a fault observer (opt-in; e.g. a convergence checker).

        Observers expose ``on_fault(system, label, details)`` and are called
        at every fault boundary the nemesis (:mod:`repro.faults`) crosses.
        The hook runs inside a timer callback, so observers must only read
        state — never drive the runtime.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: Any) -> None:
        """Detach a previously attached fault observer (unknown ones ignored)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def notify_fault(self, label: str, details: Optional[dict] = None) -> None:
        """Tell every attached observer that a fault action just applied."""
        for observer in list(self._observers):
            observer.on_fault(self, label, details or {})

    def forget_user(self, name: str) -> None:
        """Drop the user peer hosted on ``name`` (its node is going away)."""
        self._users.pop(name, None)

    def _make_services(self, address: Address):
        return [
            TimestampAuthority(),
            MasterService(self.ltr_config, hash_family=self.hash_family),
        ]

    # -------------------------------------------------------------- membership --

    def bootstrap(self, peers: Iterable[str] | int,
                  *, stabilize_time: Optional[float] = None,
                  warm: bool = False) -> list[str]:
        """Create the DHT ring with the given peers (names or a count).

        ``stabilize_time`` bounds the post-join stabilization budget (the
        asyncio backend pays it in wall-clock seconds, so live deployments
        pass a tight bound).  ``warm=True`` wires the converged ring
        directly (:meth:`~repro.chord.ring.ChordRing.bootstrap_warm`) —
        the O(N log N) starting point for scale experiments.
        """
        if warm:
            nodes = self.ring.bootstrap_warm(peers)
        else:
            nodes = self.ring.bootstrap(peers, stabilize_time=stabilize_time)
        return [node.address.name for node in nodes]

    def peer_names(self) -> list[str]:
        """Names of all currently live peers, in ring order."""
        return self.ring.ring_order()

    def add_peer(self, name: str) -> str:
        """A new peer joins the running system (scenario E4)."""
        self.ring.add_node(name)
        return name

    def leave(self, name: str) -> None:
        """A peer leaves gracefully (scenario E3, normal departure)."""
        self._users.pop(name, None)
        self.ring.leave(name)

    def crash(self, name: str) -> None:
        """A peer fails abruptly (scenario E3, failure case)."""
        self._users.pop(name, None)
        self.ring.crash(name)
        self.ring.wait_until_stable(max_time=120)

    def prepare_restart(self, name: str, *, amnesia: bool = False,
                        recover: bool = False, via: Optional[str] = None):
        """Restart a crashed peer and return its re-join generator.

        The shared restart primitive: picks a gateway (first live peer in
        ring order, or ``via``), re-registers the node's endpoint
        (``amnesia`` wipes its durable state first; ``recover`` reopens the
        storage backend and reloads what it persisted — a new process on
        the same disk) and hands back the ``rejoin`` process generator
        *unspawned* — the synchronous :meth:`restart_peer` driver runs it
        to completion, while the fault-injection layer spawns it supervised
        in the background.
        """
        node = self.ring.node(name)
        if via is not None:
            gateway = self.ring.node(via)
        else:
            gateway = next(
                (peer for peer in self.ring.live_nodes()
                 if peer.address.name != name),
                None,
            )
            if gateway is None:
                raise DhtError(f"cannot restart {name!r}: no live gateway remains")
        node.restart(amnesia=amnesia, recover=recover)
        return node.rejoin(gateway.address)

    def restart_peer(self, name: str, *, amnesia: bool = False,
                     recover: bool = False, via: Optional[str] = None) -> None:
        """Bring a crashed peer back and re-join it (synchronous driver).

        The fault-injection layer performs the same steps asynchronously
        through plan events; this driver is for tests and examples that want
        the restart completed (including re-stabilization) before returning.
        """
        rejoin = self.prepare_restart(name, amnesia=amnesia, recover=recover, via=via)
        self.runtime.run(until=self.runtime.process(rejoin))
        self.ring.clear_route_caches()
        self.ring.wait_until_stable(max_time=120)

    def run_for(self, duration: float) -> None:
        """Advance simulated time (lets maintenance and replication settle)."""
        self.ring.run_for(duration)

    # -------------------------------------------------------------------- users --

    def user(self, name: str) -> UserPeer:
        """The user application running on peer ``name`` (created on demand)."""
        peer = self._users.get(name)
        if peer is None:
            node = self.ring.node(name)
            if not node.alive:
                raise DhtError(f"peer {name!r} is not alive")
            peer = UserPeer(node, self.ltr_config, hash_family=self.hash_family)
            self._users[name] = peer
        return peer

    def users(self) -> list[UserPeer]:
        """All user peers instantiated so far."""
        return list(self._users.values())

    # ----------------------------------------------------------- editing drivers --

    def edit(self, peer: str, key: str, text: str, *, comment: str = "") -> None:
        """Edit the working copy of ``key`` at ``peer`` (no network activity)."""
        self.user(peer).edit(key, text, comment=comment)

    def commit(self, peer: str, key: str) -> Optional[CommitResult]:
        """Run the validation/publication procedure on ``peer``'s chain of ``key``."""
        return self.runtime.run(until=self.runtime.process(self.user(peer).commit(key)))

    flush = commit

    def edit_and_commit(self, peer: str, key: str, text: str,
                        *, comment: str = "") -> Optional[CommitResult]:
        """Convenience: edit then commit in one call."""
        self.edit(peer, key, text, comment=comment)
        return self.commit(peer, key)

    def stage(self, peer: str, key: str, text: str,
              *, comment: str = "") -> Optional[CommitResult]:
        """Stage an edit into ``peer``'s chain; commit it when that filled it.

        Returns the commit outcome when the staged edit filled the chain,
        ``None`` otherwise.
        """
        batch = self.user(peer).stage(key, text, comment=comment)
        if batch.full:
            return self.commit(peer, key)
        return None

    def flush_due(self, peer: Optional[str] = None) -> list[CommitResult]:
        """Commit every chain past its deadline (for one peer or all users)."""
        users = [self.user(peer)] if peer is not None else self.users()
        results = []
        for user in users:
            for key in [key for key, batch in user.batches.items()
                        if batch.due(self.runtime.now)]:
                outcome = self.commit(user.author, key)
                if outcome is not None:
                    results.append(outcome)
        return results

    def run_concurrent_flushes(
        self, commits: Iterable[tuple[str, str]]
    ) -> list[CommitResult]:
        """Commit several peers' chains at the same simulated instant.

        ``commits`` is a sequence of ``(peer, key)``; the call returns when
        all of them have completed.
        """
        processes = [
            self.runtime.process(self.user(peer).commit(key), name=f"commit:{peer}:{key}")
            for peer, key in commits
        ]
        results = [self.runtime.run(until=process) for process in processes]
        return [outcome for outcome in results if outcome is not None]

    def run_concurrent_commits(
        self, edits: Iterable[tuple[str, str, str]]
    ) -> list[CommitResult]:
        """Issue simultaneous updates from different peers (scenario E2).

        ``edits`` is a sequence of ``(peer, key, text)``.  All edits are
        registered first, then every commit starts at the same simulated
        instant (:meth:`run_concurrent_flushes`).
        """
        edits = list(edits)
        for peer, key, text in edits:
            self.edit(peer, key, text)
        return self.run_concurrent_flushes((peer, key) for peer, key, _text in edits)

    def sync(self, peer: str, key: str):
        """Bring ``peer``'s replica of ``key`` up to date."""
        return self.runtime.run(until=self.runtime.process(self.user(peer).sync(key)))

    def sync_all(self, key: str, peers: Optional[Iterable[str]] = None) -> None:
        """Synchronise every given peer (default: all instantiated users)."""
        names = list(peers) if peers is not None else [user.author for user in self.users()]
        for name in names:
            if name in self.ring.nodes and self.ring.node(name).alive:
                self.sync(name, key)

    # --------------------------------------------------------------- inspection --

    def master_of(self, key: str) -> str:
        """Name of the peer currently acting as Master-key peer for ``key``."""
        return self.ring.responsible_node_for_id(self.ht(key)).address.name

    def master_service(self, key: str) -> MasterService:
        """The :class:`MasterService` instance currently responsible for ``key``."""
        node = self.ring.responsible_node_for_id(self.ht(key))
        service = node.service("ltr-master")
        assert isinstance(service, MasterService)
        return service

    def last_ts(self, key: str) -> int:
        """Current ``last-ts`` of ``key`` according to its Master-key peer."""
        return self.master_service(key).handle_last_ts(key)

    def log_client(self, via: Optional[str] = None) -> P2PLogClient:
        """A P2P-Log client bound to ``via`` (or an arbitrary live peer)."""
        node = self.ring.node(via) if via is not None else self.ring.gateway()
        return P2PLogClient(ChordDhtClient(node), self.hash_family)

    def fetch_log(self, key: str, from_ts: int, to_ts: int):
        """Retrieve log entries ``from_ts .. to_ts`` (synchronous driver)."""
        client = self.log_client()
        return self.runtime.run(until=self.runtime.process(client.fetch_range(key, from_ts, to_ts)))

    # ------------------------------------------------------------- checkpoints --

    def checkpoint_now(self, key: str) -> Optional[int]:
        """Force the Master-key peer of ``key`` to rewrite the checkpoint at
        the newest boundary at or below ``last-ts``.

        Synchronous driver around
        :meth:`~repro.core.master.MasterService.force_checkpoint`; returns
        the boundary, or ``None`` when no boundary was reached yet or the
        write could not complete.
        """
        service = self.master_service(key)
        return self.runtime.run(until=self.runtime.process(service.force_checkpoint(key)))

    def latest_checkpoint(self, key: str):
        """The newest reachable checkpoint of ``key`` (driver; may be ``None``)."""
        client = self.log_client()
        probe = client.latest_checkpoint(
            key, self.last_ts(key), self.ltr_config.checkpoint_interval
        )
        return self.runtime.run(until=self.runtime.process(probe))

    # -------------------------------------------------------------- consistency --

    def check_consistency(self, key: str, *, sync_first: bool = True) -> ConsistencyReport:
        """Verify eventual consistency of ``key`` across all user replicas.

        When ``sync_first`` is true every live user peer first runs the
        retrieval procedure (that is what "eventual" means: consistency
        holds once every peer has integrated all validated patches).
        """
        if sync_first:
            self.sync_all(key)
        last_ts = self.last_ts(key)
        client = self.log_client()
        entries = self.runtime.run(
            until=self.runtime.process(verify_log_continuity(client, key, last_ts))
        )
        replicas = [
            user.document(key)
            for user in self.users()
            if key in user.documents and self.ring.node(user.node.address.name).alive
        ]
        return build_report(key, last_ts, entries, replicas)

    def statistics(self) -> dict[str, Any]:
        """Aggregate statistics over the whole system (for reports)."""
        master_stats = [
            node.service("ltr-master").statistics()
            for node in self.ring.live_nodes()
            if node.service("ltr-master") is not None
        ]
        return {
            "peers": len(self.ring.live_nodes()),
            "network": self.network.stats.snapshot(),
            **{
                counter: sum(stats[counter] for stats in master_stats)
                for counter in ("publishes", "proposals_ok", "proposals_rebased",
                                "proposals_deduplicated", "proposals_behind")
            },
            "users": [user.statistics() for user in self.users()],
        }
