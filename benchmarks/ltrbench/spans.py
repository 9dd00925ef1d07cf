"""Benchmark-side spans around each layer's public functions.

A traced round installs wrappers around the functions listed in
:data:`TARGETS`, runs the workload, and removes them again; end-to-end
numbers never come from a traced round.  Nothing in ``src/`` knows about
this file: the wrappers replace attributes on classes and modules for the
duration of one round.

* Synchronous functions get a call count, wall time and wall *self* time
  (their wall minus the wall of wrapped functions they called).
* Generator-based operations get a span on the runtime clock (first resume
  to ``StopIteration``) plus *busy* time: wall summed over their resume
  steps, which is the CPU they and their callees burned, waiting excluded.
* ``RpcAgent.call`` returns a future; its span runs from the call to the
  future's dispatch.

Spans are kept in memory and written out by the caller when the run ends.
Linking a Master-side span to the client commit that caused it needs a
trace id on ``Message``; that is the ``repro.obs`` issue, not this file.

A module-level function is patched under every name a caller resolves: all
``repro.*`` modules holding a reference to it (``from .codec import
copy_message`` makes one) are patched, not only the defining module.  A
target that no longer exists is skipped with a warning, never a crash.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

_perf = time.perf_counter

#: How many inputs per replayed function a traced round keeps.
CAPTURE_LIMIT = 2000

Hook = Callable[["Recorder", tuple, dict, Any], Optional[dict]]


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it lives and how it behaves."""

    op: str        # "<layer>.<operation>", the span / counter name
    where: str     # "package.module:Class.attr" or "package.module:function"
    kind: str      # "sync" | "gen" | "future" | "count"
    hook: Optional[Hook] = None
    #: Runs before the call (sync wrappers only): captures inputs the call
    #: is about to mutate.
    before: Optional[Callable[["Recorder", tuple, dict], None]] = None
    #: Leave the defining module's own global alone (a recursive function
    #: would otherwise pay the wrapper on every level of its recursion).
    outside_only: bool = False

    @property
    def layer(self) -> str:
        return self.op.split(".", 1)[0]


class Recorder:
    """Counters, per-operation timings and spans of one traced round."""

    def __init__(self, seed: int = 0) -> None:
        self.clock: Callable[[], float] = lambda: 0.0
        self.phase = "setup"
        #: op -> [calls, wall seconds, self wall seconds]
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        #: (layer, op, phase, clock start, clock end, busy s, key, ts, ok, note)
        self.spans: list[tuple] = []
        self.captures: dict[str, list[Any]] = {}
        self._seen: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._stack: list[float] = []
        self._marks: list[tuple[str, dict[str, tuple], dict[str, float]]] = []

    # -- phases ---------------------------------------------------------------

    def begin_phase(self, name: str) -> None:
        """Close the current phase and start ``name`` (snapshot boundary)."""
        self._marks.append((
            self.phase,
            {op: tuple(stat) for op, stat in self.stats.items()},
            dict(self.counters),
        ))
        self.phase = name

    def phases(self, *names: str) -> "PhaseView":
        """Counters and timings accumulated while one of ``names`` was current."""
        boundaries = self._marks + [(
            self.phase,
            {op: tuple(stat) for op, stat in self.stats.items()},
            dict(self.counters),
        )]
        stats: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        previous_stats: dict[str, tuple] = {}
        previous_counters: dict[str, float] = {}
        for phase, stat_snapshot, counter_snapshot in boundaries:
            if phase in names:
                for op, values in stat_snapshot.items():
                    before = previous_stats.get(op, (0, 0.0, 0.0))
                    total = stats.setdefault(op, [0, 0.0, 0.0])
                    for slot in range(3):
                        total[slot] += values[slot] - before[slot]
                for name, value in counter_snapshot.items():
                    counters[name] = (counters.get(name, 0.0) + value
                                      - previous_counters.get(name, 0.0))
            previous_stats, previous_counters = stat_snapshot, counter_snapshot
        spans = [span for span in self.spans if span[2] in names]
        return PhaseView(stats, counters, spans)

    # -- recording ------------------------------------------------------------

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def capture(self, name: str, make: Callable[[], Any]) -> None:
        """Keep a uniform sample of at most ``CAPTURE_LIMIT`` inputs.

        ``make`` builds the kept value and runs only when the sample takes
        it, so a capture that has to copy its input stays cheap.
        """
        seen = self._seen[name] = self._seen.get(name, 0) + 1
        kept = self.captures.setdefault(name, [])
        if len(kept) < CAPTURE_LIMIT:
            kept.append(make())
        else:
            slot = self._rng.randrange(seen)
            if slot < CAPTURE_LIMIT:
                kept[slot] = make()

    def write_spans(self, path) -> int:
        """One JSON object per span; returns how many were written."""
        names = ("layer", "op", "phase", "clock_start", "clock_end", "busy_s",
                 "key", "ts", "ok", "note")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(names, span))) + "\n")
        return len(self.spans)


@dataclass
class PhaseView:
    """What a recorder saw during some phases (see :meth:`Recorder.phases`)."""

    stats: dict[str, list[float]]
    counters: dict[str, float]
    spans: list[tuple]

    def calls(self, *ops: str) -> float:
        return sum(self.stats.get(op, (0, 0.0, 0.0))[0] for op in ops)

    def wall(self, *ops: str) -> float:
        return sum(self.stats.get(op, (0, 0.0, 0.0))[1] for op in ops)

    def self_wall(self, *ops: str) -> float:
        return sum(self.stats.get(op, (0, 0.0, 0.0))[2] for op in ops)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def durations(self, *ops: str) -> list[float]:
        """Runtime-clock durations of the spans of ``ops``."""
        return [span[4] - span[3] for span in self.spans if span[1] in ops]

    def busy(self, *ops: str) -> float:
        return sum(span[5] for span in self.spans if span[1] in ops)


# --------------------------------------------------------------------------
# Wrappers
# --------------------------------------------------------------------------


def _wrap_sync(recorder: Recorder, target: Target, original: Callable) -> Callable:
    stat = recorder.stats.setdefault(target.op, [0, 0.0, 0.0])
    stack = recorder._stack
    hook, before = target.hook, target.before

    def traced(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(recorder, args, kwargs)
        stack.append(0.0)
        started = _perf()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = _perf() - started
            inner = stack.pop()
            if stack:
                stack[-1] += elapsed
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - inner
        if hook is not None:
            hook(recorder, args, kwargs, result)
        return result

    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


def _wrap_count(recorder: Recorder, target: Target, original: Callable) -> Callable:
    stat = recorder.stats.setdefault(target.op, [0, 0.0, 0.0])

    def counted(*args: Any, **kwargs: Any) -> Any:
        stat[0] += 1
        return original(*args, **kwargs)

    counted.__wrapped__ = original  # type: ignore[attr-defined]
    return counted


def _wrap_gen(recorder: Recorder, target: Target, original: Callable) -> Callable:
    stat = recorder.stats.setdefault(target.op, [0, 0.0, 0.0])
    stack = recorder._stack
    hook = target.hook
    layer, op = target.layer, target.op

    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        generator = original(*args, **kwargs)
        clock_start = recorder.clock()
        busy = own = 0.0
        value: Any = None
        error: Optional[BaseException] = None
        result: Any = None
        ok = True
        try:
            while True:
                stack.append(0.0)
                started = _perf()
                try:
                    if error is not None:
                        pending, error = error, None
                        event = generator.throw(pending)
                    else:
                        event = generator.send(value)
                except StopIteration as stop:
                    result = stop.value
                    return result
                except BaseException:
                    ok = False
                    raise
                finally:
                    elapsed = _perf() - started
                    inner = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    busy += elapsed
                    own += elapsed - inner
                try:
                    value = yield event
                except GeneratorExit:
                    ok = False
                    generator.close()
                    raise
                except BaseException as raised:  # handed on to the callee
                    error = raised
        finally:
            stat[0] += 1
            stat[1] += busy
            stat[2] += own
            note = hook(recorder, args, kwargs, result) if hook and ok else None
            note = note or {}
            recorder.spans.append((
                layer, op, recorder.phase, clock_start, recorder.clock(), busy,
                note.get("key"), note.get("ts"), ok, note.get("note"),
            ))

    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


def _wrap_future(recorder: Recorder, target: Target, original: Callable) -> Callable:
    sync = _wrap_sync(recorder, Target(target.op, target.where, "sync"), original)
    layer, op = target.layer, target.op

    def traced(*args: Any, **kwargs: Any) -> Any:
        clock_start = recorder.clock()
        phase = recorder.phase
        future = sync(*args, **kwargs)
        method = args[2] if len(args) > 2 else kwargs.get("method")

        def done(event: Any) -> None:
            ok = bool(event.ok)
            if not ok and type(event.value).__name__ in (
                    "RequestTimeout", "NodeUnreachable"):
                recorder.bump("net.rpc_failed")
            recorder.spans.append((
                layer, op, phase, clock_start, recorder.clock(), 0.0,
                None, None, ok, method,
            ))

        future.add_callback(done)
        return future

    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


_WRAPPERS = {"sync": _wrap_sync, "count": _wrap_count, "gen": _wrap_gen,
             "future": _wrap_future}


# --------------------------------------------------------------------------
# Hooks: counts and (key, ts) where arguments or results expose them
# --------------------------------------------------------------------------


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _hook_integrate(recorder, args, kwargs, result):
    remote = _argument(args, kwargs, 1, "remote_patches")
    recorder.bump("ot.remote_patches", len(remote))


def _before_integrate(recorder, args, kwargs):
    # The call advances the replica in place: keep what a replay needs to
    # rebuild it (key, lines, applied ts) next to the other two arguments.
    if not args[1]:
        return
    document = args[0]
    recorder.capture("integrate", lambda: (
        document.key, list(document.lines), document.applied_ts,
        list(args[1]), args[2] if len(args) > 2 else None,
    ))


def _hook_alloc(recorder, args, kwargs, result):
    recorder.bump("kts.timestamps", _argument(args, kwargs, 2, "count") or 1)


def _hook_gen_ts(recorder, args, kwargs, result):
    recorder.bump("kts.unit_timestamps")


def _hook_commit(recorder, args, kwargs, result):
    key = _argument(args, kwargs, 1, "key")
    ts = getattr(result, "ts", getattr(result, "last_ts", None))
    return {"key": key, "ts": ts}


def _hook_validate(recorder, args, kwargs, result):
    status = result.get("status") if isinstance(result, dict) else None
    if status == "behind":
        recorder.bump("master.behind")
    return {"key": _argument(args, kwargs, 1, "key"),
            "ts": _argument(args, kwargs, 2, "ts"), "note": status}


def _hook_publish(recorder, args, kwargs, result):
    entry = _argument(args, kwargs, 1, "entry")
    return {"key": getattr(entry, "document_key", None),
            "ts": getattr(entry, "ts", None)}


def _hook_append_many(recorder, args, kwargs, result):
    entries = list(_argument(args, kwargs, 1, "entries") or ())
    first = entries[0] if entries else None
    return {"key": getattr(first, "document_key", None),
            "ts": getattr(first, "ts", None), "note": f"{len(entries)} entries"}


def _hook_fetch(recorder, args, kwargs, result):
    recorder.bump("p2plog.unit_fetches")
    return {"key": _argument(args, kwargs, 1, "document_key"),
            "ts": _argument(args, kwargs, 2, "ts")}


def _range_hook(counter: str) -> Hook:
    def hook(recorder, args, kwargs, result):
        entries = len(result) if result is not None else 0
        if entries:
            recorder.bump(counter, entries)
        return {"key": _argument(args, kwargs, 1, "document_key"),
                "ts": _argument(args, kwargs, 3, "to_ts"),
                "note": f"{entries} entries"}
    return hook


def _hook_checkpoint(recorder, args, kwargs, result):
    recorder.bump("p2plog.checkpoint_probes")
    if result is not None:
        recorder.bump("p2plog.checkpoint_hits")
    return {"key": _argument(args, kwargs, 1, "document_key"),
            "ts": getattr(result, "ts", None)}


def _hook_lookup(recorder, args, kwargs, result):
    if isinstance(result, dict) and "hops" in result:
        recorder.bump("chord.hops", result["hops"])
        recorder.bump("chord.lookups")


def _hook_send(recorder, args, kwargs, result):
    message = _argument(args, kwargs, 1, "message")
    recorder.capture("message", lambda: message)


def _hook_wire_send(recorder, args, kwargs, result):
    network, message = args[0], _argument(args, kwargs, 1, "message")
    if network.is_remote(message.destination.name):
        recorder.bump("wire.frames")
        recorder.capture("message", lambda: message)  # never reaches Network.send


def _hook_encode(recorder, args, kwargs, result):
    recorder.bump("codec.bytes_out", len(result))


def _hook_storage_put(recorder, args, kwargs, result):
    recorder.bump("storage.rows")
    item = _argument(args, kwargs, 1, "item")
    recorder.capture("stored_item", lambda: item)


def _hook_storage_put_many(recorder, args, kwargs, result):
    # A backend with its own put_many writes the rows without calling put.
    items = _argument(args, kwargs, 1, "items")
    if hasattr(items, "__len__"):
        recorder.bump("storage.rows", len(items))


TARGETS: tuple[Target, ...] = (
    # ot
    Target("ot.edit", "repro.core.user_peer:UserPeer.edit", "sync"),
    Target("ot.edit", "repro.core.user_peer:UserPeer.stage", "sync"),
    Target("ot.integrate", "repro.ot.merge:integrate_remote_patches", "sync",
           _hook_integrate, _before_integrate),
    Target("ot.integrate", "repro.ot.merge:integrate_remote_into_staged", "sync",
           _hook_integrate),
    # transform_sequences (the hot path) and transform_pair both transform a
    # pair of operations with two calls of transform.
    Target("ot.transform", "repro.ot.transform:transform", "count"),
    # core
    Target("user_peer.commit", "repro.core.user_peer:UserPeer.commit", "gen",
           _hook_commit),
    Target("user_peer.commit", "repro.core.user_peer:UserPeer.flush", "gen",
           _hook_commit),
    Target("user_peer.sync", "repro.core.user_peer:UserPeer.sync", "gen",
           _hook_commit),
    Target("master.validate",
           "repro.core.master:MasterService.validate_and_publish", "gen",
           _hook_validate),
    Target("master.validate",
           "repro.core.master:MasterService.validate_and_publish_batch", "gen",
           _hook_validate),
    Target("master.lock_wait", "repro.sim.sync:FifoLock.acquire", "gen"),
    # kts
    Target("kts.gen_ts", "repro.kts.authority:TimestampAuthority.gen_ts", "sync",
           _hook_gen_ts),
    Target("kts.next_timestamps",
           "repro.kts.authority:TimestampAuthority.next_timestamps", "sync",
           _hook_alloc),
    # p2plog
    Target("p2plog.publish", "repro.p2plog.log:P2PLogClient.publish", "gen",
           _hook_publish),
    Target("p2plog.publish", "repro.p2plog.log:P2PLogClient.append_many", "gen",
           _hook_append_many),
    Target("p2plog.fetch", "repro.p2plog.log:P2PLogClient.fetch", "gen",
           _hook_fetch),
    Target("p2plog.fetch_range", "repro.p2plog.log:P2PLogClient.fetch_range",
           "gen", _range_hook("p2plog.range_patches")),
    Target("p2plog.fetch_span", "repro.p2plog.log:P2PLogClient.fetch_span",
           "gen", _range_hook("p2plog.span_patches")),
    Target("p2plog.checkpoint", "repro.p2plog.log:P2PLogClient.latest_checkpoint",
           "gen", _hook_checkpoint),
    # dht / chord
    Target("dht.put", "repro.dht.chord_client:ChordDhtClient.put", "gen"),
    Target("dht.put", "repro.dht.chord_client:ChordDhtClient.put_many", "gen"),
    Target("dht.get", "repro.dht.chord_client:ChordDhtClient.get", "gen"),
    Target("dht.get", "repro.dht.chord_client:ChordDhtClient.get_many", "gen"),
    Target("dht.lookup", "repro.dht.chord_client:ChordDhtClient.lookup", "gen"),
    Target("dht.lookup", "repro.dht.chord_client:ChordDhtClient.call_owner", "gen"),
    Target("chord.lookup", "repro.chord.node:ChordNode.find_successor", "gen",
           _hook_lookup),
    # net
    Target("net.send", "repro.net.transport:Network.send", "sync", _hook_send),
    Target("net.copy", "repro.net.codec:copy_message", "sync"),
    Target("net.copy", "repro.net.codec:copy_payload", "sync", outside_only=True),
    Target("net.rpc", "repro.net.rpc:RpcAgent.call", "future"),
    # codec / wire
    Target("codec.encode", "repro.net.codec:encode_message", "sync", _hook_encode),
    Target("codec.decode", "repro.net.codec:decode_message", "sync"),
    Target("codec.decode", "repro.net.codec:decode_any", "sync"),
    Target("wire.send", "repro.net.wire:WireNetwork.send", "sync", _hook_wire_send),
    # storage: the concrete backends are added by ``storage_targets``
    # runtime
    Target("runtime.timer", "repro.sim.primitives:EventPrimitivesMixin.call_later",
           "count"),
    Target("runtime.timer", "repro.sim.primitives:EventPrimitivesMixin.timeout",
           "count"),
)


def storage_targets() -> list[Target]:
    """``put`` / ``put_many`` of every concrete storage backend."""
    storage = importlib.import_module("repro.storage")
    base = storage.StorageBackend
    targets = [Target("storage.put_many", f"{base.__module__}:StorageBackend.put_many",
                      "sync")]
    for backend in base.__subclasses__():
        where = f"{backend.__module__}:{backend.__name__}"
        if "put" in vars(backend):
            targets.append(Target("storage.put", f"{where}.put", "sync",
                                  _hook_storage_put))
        if "put_many" in vars(backend):
            targets.append(Target("storage.put_many", f"{where}.put_many", "sync",
                                  _hook_storage_put_many))
    return targets


# --------------------------------------------------------------------------
# Installation
# --------------------------------------------------------------------------


class Installation:
    """The set of attributes currently replaced; ``restore`` puts them back."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []
        self.warnings: list[str] = []
        self.installed: set[str] = set()

    def _set(self, owner: Any, name: str, replacement: Any) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.restore()


def _resolve(where: str) -> tuple[Any, str, Any]:
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, vars(owner)[name]


def install(recorder: Recorder, targets: Optional[list[Target]] = None,
            ) -> Installation:
    """Wrap every target that still exists; missing ones become warnings."""
    installation = Installation()
    if targets is None:
        targets = list(TARGETS) + storage_targets()
    try:
        for target in targets:
            try:
                owner, name, original = _resolve(target.where)
            except (ImportError, AttributeError, KeyError):
                installation.warnings.append(f"span target gone: {target.where}")
                continue
            replacement = _WRAPPERS[target.kind](recorder, target, original)
            installation.installed.add(target.where)
            if isinstance(owner, type):
                installation._set(owner, name, replacement)
                continue
            # A module-level function: patch every repro module that
            # imported it by name, so callers resolve the wrapper.
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                if module is owner and target.outside_only:
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        installation._set(module, alias, replacement)
    except BaseException:
        installation.restore()
        raise
    return installation
