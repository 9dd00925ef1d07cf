"""Byzantine fault actions: peers that lie instead of dying.

The rest of :mod:`repro.faults` injects *fail-stop* faults — crashes,
partitions, lost messages.  This module injects *wrong* behaviour:

* :class:`MisbehavingStore` — a proxy wrapped around one peer's
  :class:`~repro.chord.storage.NodeStorage` that acknowledges log-entry
  and checkpoint writes while actually dropping, corrupting or replaying
  them.  The Log-Peer keeps routing, answering and replicating normally;
  only the payloads it custodies are wrong.
* :class:`ByzantinePeer` / :class:`RestoreStorage` — the paired plan
  actions installing and removing that proxy.
* :class:`MasterEquivocation` — arms a Master-key peer to fork the
  timestamp sequence it serves: the next validations additionally
  overwrite the entry's secondary log placements with diverging content,
  so disjoint reader sets observe different histories.

Per the layering contract this package sees only ``errors``/``runtime``/
``net``, so everything here is duck-typed: log entries and checkpoints are
recognized by shape (``document_key``/``ts`` plus ``patch`` or ``lines``),
mutated through :func:`dataclasses.replace`, and the Master is reached via
the node's ``service("ltr-master")`` lookup — the same idiom as
:class:`~repro.faults.plan.KtsReplicaLag`.

Misbehaviour is deterministic: a store configured with ``every=k`` wrongs
every *k*-th qualifying write (no RNG), so a plan plus a seed replays the
identical byzantine interleaving run after run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..errors import ConfigurationError
from .plan import FaultAction

#: Misbehaviour modes a :class:`MisbehavingStore` supports.
BYZANTINE_MODES = ("drop", "corrupt", "replay")


def _is_log_entry(value: Any) -> bool:
    return (
        hasattr(value, "document_key")
        and hasattr(value, "ts")
        and hasattr(value, "patch")
    )


def _is_checkpoint(value: Any) -> bool:
    return (
        hasattr(value, "document_key")
        and hasattr(value, "ts")
        and hasattr(value, "lines")
        and not hasattr(value, "patch")
    )


def _corrupt_entry(value: Any) -> Any:
    """A copy of a log entry whose content no longer matches its signature."""
    operations = tuple(value.patch.operations)
    if operations:
        return replace(value, patch=value.patch.with_operations(operations[:-1]))
    # An empty patch has nothing to truncate; forging the author changes
    # the signed payload just the same.
    return replace(value, author=value.author + "?")


def _corrupt_checkpoint(value: Any) -> Any:
    """A copy of a checkpoint with a line smuggled into the snapshot."""
    return replace(value, lines=tuple(value.lines) + ("<corrupted by byzantine store>",))


class MisbehavingStore:
    """Storage proxy that wrongs every ``every``-th log/checkpoint write.

    Wraps a :class:`~repro.chord.storage.NodeStorage`; every attribute and
    operation passes through untouched except :meth:`put` of log-entry- or
    checkpoint-shaped values, which misbehaves according to ``mode``:

    ``drop``
        Acknowledge the write, then silently discard it (the classic
        ack-then-drop lie).
    ``corrupt``
        Store a copy whose patch lost its last operation (checkpoints gain
        a forged line) — content no longer matching the carried signature.
    ``replay``
        Store the *previous* entry of the same document re-stamped at the
        new timestamp (falls back to ``corrupt`` before one is cached).

    Everything else — gets, removes, hand-offs, replication — behaves
    honestly, which is exactly what makes the lies hard to see.
    """

    def __init__(self, inner: Any, *, mode: str = "corrupt", every: int = 1) -> None:
        if mode not in BYZANTINE_MODES:
            raise ConfigurationError(
                f"byzantine mode must be one of {BYZANTINE_MODES}, got {mode!r}"
            )
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self._inner = inner
        self.mode = mode
        self.every = every
        self._qualifying = 0
        self._last_entry: dict[str, Any] = {}
        self.misbehaved = 0

    # Everything but put passes straight through.  The container dunders
    # are delegated explicitly: special-method lookup happens on the type,
    # bypassing __getattr__.

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def put(self, key: str, value: Any, **kwargs: Any) -> Any:
        if _is_log_entry(value):
            previous = self._last_entry.get(value.document_key)
            self._last_entry[value.document_key] = value
            if not self._tick():
                return self._inner.put(key, value, **kwargs)
            if self.mode == "drop":
                item = self._inner.put(key, value, **kwargs)
                self._inner.remove(key)
                return item
            if self.mode == "replay" and previous is not None:
                return self._inner.put(key, replace(previous, ts=value.ts), **kwargs)
            return self._inner.put(key, _corrupt_entry(value), **kwargs)
        if _is_checkpoint(value):
            if not self._tick():
                return self._inner.put(key, value, **kwargs)
            if self.mode == "drop":
                item = self._inner.put(key, value, **kwargs)
                self._inner.remove(key)
                return item
            return self._inner.put(key, _corrupt_checkpoint(value), **kwargs)
        return self._inner.put(key, value, **kwargs)

    def _tick(self) -> bool:
        self._qualifying += 1
        if self._qualifying % self.every == 0:
            self.misbehaved += 1
            return True
        return False


@dataclass(frozen=True)
class ByzantinePeer(FaultAction):
    """Turn one peer's storage byzantine (drop/corrupt/replay log writes).

    ``rate`` is the fraction of qualifying writes that misbehave,
    discretized to every ``round(1/rate)``-th write so replays stay
    deterministic; ``rate=1.0`` wrongs every one.
    """

    peer: str
    mode: str = "corrupt"
    rate: float = 1.0
    kind = "byzantine"

    def apply(self, nemesis) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(
                f"byzantine rate must be in (0, 1], got {self.rate}"
            )
        node = nemesis.node(self.peer)
        store = node.storage
        if isinstance(store, MisbehavingStore):
            store = store._inner  # re-arming replaces the previous wrapper
        node.storage = MisbehavingStore(
            store, mode=self.mode, every=max(1, round(1.0 / self.rate))
        )

    def describe(self) -> str:
        return f"byzantine[{self.peer},{self.mode},rate={self.rate}]"


@dataclass(frozen=True)
class RestoreStorage(FaultAction):
    """Remove a peer's :class:`MisbehavingStore` wrapper (paired end action)."""

    peer: str
    kind = "byzantine-end"

    def apply(self, nemesis) -> None:
        node = nemesis.node(self.peer)
        store = node.storage
        if isinstance(store, MisbehavingStore):
            node.storage = store._inner

    def describe(self) -> str:
        return f"byzantine-end[{self.peer}]"


@dataclass(frozen=True)
class MasterEquivocation(FaultAction):
    """Arm ``peer``'s Master service to fork the next ``count`` entries it publishes.

    Each armed entry is published genuine at the primary
    placement and a diverging copy at the secondary placements (see
    ``MasterService._equivocate``), so the peer sets reading ``h1`` and
    ``h2..hn`` observe different timestamp sequences for the same key.
    """

    peer: str
    count: int = 1
    kind = "equivocate"

    def apply(self, nemesis) -> None:
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        service = nemesis.node(self.peer).service("ltr-master")
        if service is None:
            raise ConfigurationError(
                f"cannot equivocate: {self.peer!r} hosts no 'ltr-master' service"
            )
        service.equivocate_next += self.count

    def describe(self) -> str:
        return f"equivocate[{self.peer},count={self.count}]"
