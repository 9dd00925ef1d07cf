"""The fault-plan grammar: timed, composable fault actions.

A :class:`FaultPlan` is a sorted list of :class:`FaultEvent` entries, each
pairing a time offset with one :class:`FaultAction`.  Actions are plain
frozen dataclasses describing *what* to disturb — network partitions,
message-level perturbation bursts, peer crashes and restarts, KTS replica
lag, whole churn storms — and the :class:`~repro.faults.nemesis.Nemesis`
injector decides *when* by scheduling them through the runtime's timer
facility, so the same plan replays deterministically on the simulation
backend and best-effort on the asyncio backend.

Plans are built fluently; every builder returns the plan::

    plan = (
        FaultPlan()
        .partition(at=5.0, groups=[["peer-3", "peer-4"]], heal_after=4.0,
                   rejoin_after=1.0)
        .loss_burst(at=2.0, duration=3.0, probability=0.2)
        .crash(at=12.0, peer="peer-1", restart_after=3.0, amnesia=True)
    )

Paired builders (``heal_after``, ``restart_after``, burst durations)
schedule the closing action automatically, which keeps a plan readable as a
list of *fault windows* rather than raw begin/end events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..errors import ConfigurationError
from ..net import PerturbationWindow


class FaultAction:
    """Base class of every fault action.

    Subclasses are frozen dataclasses implementing :meth:`apply` against the
    :class:`~repro.faults.nemesis.Nemesis` helper surface and a
    :meth:`describe` label used by injection records and checker snapshots.
    """

    kind = "fault"

    def apply(self, nemesis) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class PartitionNetwork(FaultAction):
    """Split the network into the given groups of peer names.

    Peers not named in any group form the implicit remainder component
    (see :class:`~repro.net.failures.PartitionManager`).
    """

    groups: tuple[tuple[str, ...], ...]
    kind = "partition"

    def apply(self, nemesis) -> None:
        address_groups = [
            [nemesis.node(name).address for name in group] for group in self.groups
        ]
        nemesis.network.partitions.split(address_groups)
        # Same policy as the ring's orchestrated churn: a membership-shaped
        # event makes every cached route suspect.
        nemesis.clear_route_caches()

    def describe(self) -> str:
        rendered = "|".join(",".join(group) for group in self.groups)
        return f"partition[{rendered}]"


@dataclass(frozen=True)
class HealPartition(FaultAction):
    """Remove the active partition; all traffic flows again."""

    kind = "heal"

    def apply(self, nemesis) -> None:
        nemesis.network.partitions.heal()
        # Routes learned during the fault window point at whatever each side
        # improvised; drop them so post-heal lookups re-resolve.
        nemesis.clear_route_caches()

    def describe(self) -> str:
        return "heal"


@dataclass(frozen=True)
class BeginPerturbation(FaultAction):
    """Install a message-level disturbance window (loss/duplication/reorder)."""

    window: PerturbationWindow
    kind = "perturb-begin"

    def apply(self, nemesis) -> None:
        nemesis.network.begin_perturbation(self.window)

    def describe(self) -> str:
        return (
            f"perturb-begin[drop={self.window.drop_probability}"
            f",dup={self.window.duplicate_probability}"
            f",jitter={self.window.reorder_jitter}]"
        )


@dataclass(frozen=True)
class EndPerturbation(FaultAction):
    """Remove the active disturbance window."""

    kind = "perturb-end"

    def apply(self, nemesis) -> None:
        nemesis.network.end_perturbation()

    def describe(self) -> str:
        return "perturb-end"


@dataclass(frozen=True)
class CrashPeer(FaultAction):
    """Crash a peer abruptly: no hand-off, no notifications."""

    peer: str
    kind = "crash"

    def apply(self, nemesis) -> None:
        nemesis.forget_user(self.peer)
        nemesis.node(self.peer).fail()
        nemesis.clear_route_caches()

    def describe(self) -> str:
        return f"crash[{self.peer}]"


@dataclass(frozen=True)
class KillProcess(FaultAction):
    """SIGKILL one host process of a live multi-process cluster.

    The process-level analogue of :class:`CrashPeer`: every peer hosted by
    process ``index`` disappears at once, with no hand-off — the OS reclaims
    the sockets and the survivors only learn about it through RPC timeouts.
    Requires a system exposing ``kill_process(index)``
    (:class:`repro.cluster.Cluster`); a single-process system rejects the
    action with :class:`~repro.errors.ConfigurationError`.
    """

    index: int
    kind = "kill-process"

    def apply(self, nemesis) -> None:
        kill = getattr(nemesis.system, "kill_process", None)
        if kill is None:
            raise ConfigurationError(
                "kill-process needs a cluster system exposing kill_process()"
            )
        kill(self.index)

    def describe(self) -> str:
        return f"kill-process[{self.index}]"


@dataclass(frozen=True)
class RestartPeer(FaultAction):
    """Restart a previously crashed peer and re-join it to the ring.

    ``amnesia=False`` (the default) models a reboot: the peer keeps its
    durable storage and offers it back to the ring.  ``amnesia=True`` models
    replacement hardware: storage and routing state are lost and the peer
    re-enters empty-handed.  The re-join runs as a background process; the
    ring absorbs the peer as the run advances.
    """

    peer: str
    amnesia: bool = False
    kind = "restart"

    def apply(self, nemesis) -> None:
        # The system owns the restart primitive (gateway choice + endpoint
        # re-registration); the nemesis only supervises the re-join.
        rejoin = nemesis.system.prepare_restart(self.peer, amnesia=self.amnesia)
        nemesis.spawn(rejoin, name=f"restart:{self.peer}")

    def describe(self) -> str:
        mode = "amnesiac" if self.amnesia else "preserving"
        return f"restart[{self.peer},{mode}]"


@dataclass(frozen=True)
class DurableRestartPeer(FaultAction):
    """Restart a crashed peer as a new process on the same disk.

    The peer's in-memory state (routing tables, predecessor) is gone, but
    its storage backend is reopened and reloads whatever it had persisted —
    with the sqlite backend the peer re-enters holding its data and its
    P2P-Log shard, so recovery costs a hand-off handshake instead of a full
    re-replication.  With the volatile default backend nothing was
    persisted and this degenerates to an amnesiac restart.
    """

    peer: str
    kind = "durable-restart"

    def apply(self, nemesis) -> None:
        rejoin = nemesis.system.prepare_restart(self.peer, recover=True)
        nemesis.spawn(rejoin, name=f"durable-restart:{self.peer}")

    def describe(self) -> str:
        return f"durable-restart[{self.peer}]"


@dataclass(frozen=True)
class RejoinPeer(FaultAction):
    """Re-attach an alive-but-islanded peer to the main ring.

    After a long partition the minority side collapses to singleton rings;
    Chord has no gossip that re-merges them, so a heal is followed by
    explicit re-joins (the real-world operator action).  A peer the gateway
    still routes to is left untouched.
    """

    peer: str
    kind = "rejoin"

    def apply(self, nemesis) -> None:
        node = nemesis.node(self.peer)
        gateway = nemesis.live_gateway(exclude={self.peer})
        if gateway is None:
            raise ConfigurationError(
                f"cannot rejoin {self.peer!r}: no live gateway remains"
            )
        nemesis.spawn(node.rejoin(gateway.address), name=f"rejoin:{self.peer}")

    def describe(self) -> str:
        return f"rejoin[{self.peer}]"


@dataclass(frozen=True)
class LeavePeer(FaultAction):
    """Graceful departure: keys are handed to the successor first."""

    peer: str
    kind = "leave"

    def apply(self, nemesis) -> None:
        nemesis.forget_user(self.peer)
        node = nemesis.node(self.peer)
        nemesis.spawn(node.leave(), name=f"leave:{self.peer}")
        nemesis.clear_route_caches()

    def describe(self) -> str:
        return f"leave[{self.peer}]"


@dataclass(frozen=True)
class JoinPeer(FaultAction):
    """A peer joins the running ring: a fresh name, or a returning one.

    A name that crashed or left earlier re-enters with the same identity
    (its endpoint is re-registered first); churn storms produce both forms.
    """

    peer: str
    kind = "join"

    def apply(self, nemesis) -> None:
        ring = nemesis.ring
        node = ring.nodes.get(self.peer)
        if node is None:
            # A fresh name at a live node's identifier would leave a ring
            # that never stabilizes: refused, as ``ChordRing.add_node`` does.
            ring._refuse_shared_identifiers([self.peer])
            node = ring.create_node(self.peer)
        elif node.alive:
            return  # already part of the ring
        gateway = nemesis.live_gateway(exclude={self.peer})
        if gateway is None:
            raise ConfigurationError(
                f"cannot join {self.peer!r}: no live gateway remains"
            )
        if not nemesis.network.is_up(node.address):
            node.restart()  # returning after a crash/leave: endpoint first
        nemesis.spawn(node.rejoin(gateway.address), name=f"join:{self.peer}")
        nemesis.clear_route_caches()

    def describe(self) -> str:
        return f"join[{self.peer}]"


@dataclass(frozen=True)
class KtsReplicaLag(FaultAction):
    """Delay every Master's counter-replica push by ``delay`` seconds.

    ``delay=0`` restores immediate replication (the paired end action).
    The lag widens the window in which a Master crash loses timestamps —
    exactly the hazard the Master-key-Succ backup is meant to close.
    """

    delay: float
    kind = "kts-lag"

    def apply(self, nemesis) -> None:
        # Every node, live or not: a peer that is down when the window
        # opens or closes must still carry the correct lag once it
        # restarts (services survive crash + restart).
        for node in nemesis.ring.nodes.values():
            authority = node.service("kts")
            if authority is not None:
                authority.replica_lag = self.delay

    def describe(self) -> str:
        return f"kts-lag[{self.delay}]"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``action`` fires ``at`` seconds into the plan."""

    at: float
    action: FaultAction

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.at}")


@dataclass
class FaultPlan:
    """A declarative, composable schedule of fault actions."""

    events: list[FaultEvent] = field(default_factory=list)
    #: ``[start, end)`` spans of the perturbation bursts added so far.  The
    #: transport holds a *single* active window, so overlapping bursts would
    #: silently clobber each other; the builder refuses them instead.
    _burst_spans: list[tuple[float, float]] = field(
        default_factory=list, repr=False, compare=False
    )

    # ------------------------------------------------------------- basics --

    def add(self, at: float, action: FaultAction) -> "FaultPlan":
        """Schedule ``action`` at offset ``at``; keeps events time-sorted.

        Events at equal times keep their insertion order (stable sort), so a
        plan's effect order is exactly its construction order.
        """
        if not isinstance(action, FaultAction):
            raise ConfigurationError(
                f"expected a FaultAction, got {type(action).__name__}"
            )
        self.events.append(FaultEvent(at, action))
        self.events.sort(key=lambda event: event.at)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def last_time(self) -> Optional[float]:
        """Offset of the last scheduled action, or ``None`` for an empty plan."""
        if not self.events:
            return None
        return self.events[-1].at

    def describe(self) -> list[dict[str, Any]]:
        """Deterministic, serializable rendering of the whole plan."""
        return [
            {"at": event.at, "kind": event.action.kind,
             "label": event.action.describe()}
            for event in self.events
        ]

    # ----------------------------------------------------------- builders --

    def partition(
        self,
        at: float,
        groups: Iterable[Iterable[str]],
        *,
        heal_after: Optional[float] = None,
        rejoin_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Install a partition; optionally heal it and re-join the cut peers.

        ``heal_after`` schedules the heal that many seconds after the split;
        ``rejoin_after`` additionally schedules a :class:`RejoinPeer` for
        every named peer that many seconds after the heal (islanded minority
        components do not re-merge on their own).
        """
        normalized = tuple(tuple(group) for group in groups)
        if not normalized or not any(normalized):
            raise ConfigurationError("partition requires at least one named group")
        self.add(at, PartitionNetwork(normalized))
        if heal_after is not None:
            if heal_after <= 0:
                raise ConfigurationError(
                    f"heal_after must be positive, got {heal_after}"
                )
            heal_at = at + heal_after
            self.add(heal_at, HealPartition())
            if rejoin_after is not None:
                if rejoin_after <= 0:
                    raise ConfigurationError(
                        f"rejoin_after must be positive, got {rejoin_after}"
                    )
                for group in normalized:
                    for peer in group:
                        self.add(heal_at + rejoin_after, RejoinPeer(peer))
        elif rejoin_after is not None:
            raise ConfigurationError("rejoin_after requires heal_after")
        return self

    def heal(self, at: float) -> "FaultPlan":
        """Heal whatever partition is active at ``at``."""
        return self.add(at, HealPartition())

    def perturb(
        self, at: float, duration: float, window: PerturbationWindow
    ) -> "FaultPlan":
        """Apply a message-perturbation window for ``duration`` seconds.

        Bursts must not overlap: the transport holds one active window, so
        a second ``begin`` would replace the first and the first ``end``
        would clear whatever is installed — the plan would silently not do
        what it declares.  Combine effects in one
        :class:`~repro.net.PerturbationWindow` instead.
        """
        if duration <= 0:
            raise ConfigurationError(f"burst duration must be positive, got {duration}")
        span = (at, at + duration)
        for start, end in self._burst_spans:
            if span[0] < end and start < span[1]:
                raise ConfigurationError(
                    f"perturbation burst {span} overlaps an existing burst "
                    f"({start}, {end}); combine them into one window"
                )
        self._burst_spans.append(span)
        self.add(at, BeginPerturbation(window))
        self.add(at + duration, EndPerturbation())
        return self

    def loss_burst(self, at: float, duration: float, probability: float) -> "FaultPlan":
        """Drop each message with ``probability`` during the burst."""
        return self.perturb(
            at, duration, PerturbationWindow(drop_probability=probability)
        )

    def duplicate_burst(
        self, at: float, duration: float, probability: float
    ) -> "FaultPlan":
        """Duplicate each message with ``probability`` during the burst."""
        return self.perturb(
            at, duration, PerturbationWindow(duplicate_probability=probability)
        )

    def reorder_burst(self, at: float, duration: float, jitter: float) -> "FaultPlan":
        """Add uniform extra delay in ``[0, jitter]`` to every message."""
        return self.perturb(at, duration, PerturbationWindow(reorder_jitter=jitter))

    def crash(
        self,
        at: float,
        peer: str,
        *,
        restart_after: Optional[float] = None,
        amnesia: bool = False,
        recover: bool = False,
    ) -> "FaultPlan":
        """Crash ``peer``; optionally restart (and re-join) it later.

        ``recover=True`` schedules a durable restart (reload persisted
        storage) instead of the endpoint-only restart; it cannot be
        combined with ``amnesia``.
        """
        if amnesia and recover:
            raise ConfigurationError(
                "a restart cannot be both amnesiac and recovering"
            )
        self.add(at, CrashPeer(peer))
        if restart_after is not None:
            if restart_after <= 0:
                raise ConfigurationError(
                    f"restart_after must be positive, got {restart_after}"
                )
            if recover:
                self.add(at + restart_after, DurableRestartPeer(peer))
            else:
                self.add(at + restart_after, RestartPeer(peer, amnesia=amnesia))
        return self

    def restart(self, at: float, peer: str, *, amnesia: bool = False) -> "FaultPlan":
        """Restart (and re-join) a previously crashed peer."""
        return self.add(at, RestartPeer(peer, amnesia=amnesia))

    def durable_restart(self, at: float, peer: str) -> "FaultPlan":
        """Restart a crashed peer from its persisted storage (same disk)."""
        return self.add(at, DurableRestartPeer(peer))

    def leave(self, at: float, peer: str) -> "FaultPlan":
        """Graceful departure of ``peer``."""
        return self.add(at, LeavePeer(peer))

    def join(self, at: float, peer: str) -> "FaultPlan":
        """A (possibly brand new) peer joins the ring."""
        return self.add(at, JoinPeer(peer))

    def kill_process(self, at: float, index: int) -> "FaultPlan":
        """SIGKILL host process ``index`` of a multi-process cluster."""
        if index < 0:
            raise ConfigurationError(f"process index must be >= 0, got {index}")
        return self.add(at, KillProcess(index))

    def kts_lag(self, at: float, duration: float, delay: float) -> "FaultPlan":
        """Lag every Master's counter-replica push by ``delay`` for a window."""
        if duration <= 0:
            raise ConfigurationError(f"lag duration must be positive, got {duration}")
        if delay <= 0:
            raise ConfigurationError(f"lag delay must be positive, got {delay}")
        self.add(at, KtsReplicaLag(delay))
        self.add(at + duration, KtsReplicaLag(0.0))
        return self

    def byzantine(
        self,
        at: float,
        peer: str,
        *,
        mode: str = "corrupt",
        rate: float = 1.0,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Make ``peer``'s storage misbehave (drop/corrupt/replay log writes).

        ``duration`` schedules the paired restore that many seconds later;
        without it the peer stays byzantine for the rest of the run.
        """
        from .byzantine import ByzantinePeer, RestoreStorage

        self.add(at, ByzantinePeer(peer, mode=mode, rate=rate))
        if duration is not None:
            if duration <= 0:
                raise ConfigurationError(
                    f"byzantine duration must be positive, got {duration}"
                )
            self.add(at + duration, RestoreStorage(peer))
        return self

    def master_equivocation(self, at: float, peer: str, *, count: int = 1) -> "FaultPlan":
        """Arm ``peer``'s Master service to fork its next ``count`` validations."""
        from .byzantine import MasterEquivocation

        return self.add(at, MasterEquivocation(peer, count=count))

    def churn_storm(
        self, at: float, schedule: Iterable[tuple[float, str, str]]
    ) -> "FaultPlan":
        """Expand a scripted churn schedule into timed fault actions.

        ``schedule`` holds ``(time, action, peer)`` entries, ``action`` one
        of ``"crash"``, ``"leave"`` or ``"join"`` — what
        :func:`repro.workloads.generate_churn_schedule` produces; its
        entries are offset by ``at``.  This turns the E10-style driver loop
        into plan events, so churn composes with partitions and bursts
        inside one nemesis run.
        """
        actions = {"crash": CrashPeer, "leave": LeavePeer, "join": JoinPeer}
        for when, action, peer in schedule:
            if action not in actions:
                raise ConfigurationError(f"unknown churn action {action!r}")
            self.add(at + when, actions[action](peer))
        return self


#: Actions a :class:`FaultPlan` can carry, exported for plan introspection.
ALL_ACTION_KINDS: Sequence[str] = (
    "partition", "heal", "perturb-begin", "perturb-end", "crash", "restart",
    "durable-restart", "rejoin", "leave", "join", "kts-lag", "kill-process",
    "byzantine", "byzantine-end", "equivocate",
)
