"""The four ltrbench workloads and the closed-loop driver that runs them.

Every workload has the same shape (README.md, "Shape of a round"):

    set-up -> write phase -> read phase -> verify (untimed)

and is driven through the public API only: ``LtrSystem`` / ``Cluster`` to
build a deployment, ``UserPeer.edit/commit/stage/flush/sync`` to load it
and ``ConvergenceChecker`` plus a log replay to verify what it produced.
The load is a *closed loop*: an editor cannot have two commits pending on
one document, so each editor issues its next edit only after the previous
one was acknowledged.

A *round* is one complete pass over that shape on a fresh deployment.  A
run makes several rounds, each on inputs of its own, and reports medians,
see ``run.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.check import ConvergenceChecker
from repro.chord import ChordConfig
from repro.cluster import Cluster, ClusterConfig
from repro.core import LtrConfig, LtrSystem, UserPeer, replay_log
from repro.errors import ReproError
from repro.net import UniformLatency

from spans import Installation, Recorder, install

#: Zipf exponent of the document popularity (ISSUE: s = 1.1).
ZIPF_S = 1.1
#: Every inserted line is exactly this long, so patch size is stationary.
LINE_CHARS = 40
#: A document above this many lines loses one line per edit.
MAX_LINES = 64

#: Chord maintenance sized for a warm 128-peer simulated ring (the E18/E20
#: scale settings): slow maintenance, long-lived route cache.
SCALE_CHORD = dict(
    bits=32, successor_list_size=4, replication_factor=2,
    stabilize_interval=25.0, fix_fingers_interval=50.0,
    check_predecessor_interval=50.0, route_cache_ttl=50.0,
    maintenance_stagger=1.0, fingers_per_round=8,
)
#: Chord maintenance sized for wall-clock rings (the E13 live settings).
LIVE_CHORD = dict(
    bits=32, successor_list_size=4, replication_factor=2,
    stabilize_interval=0.02, fix_fingers_interval=0.04,
    check_predecessor_interval=0.05,
)
#: The batched pipeline: batch commits, grouped retrieval, checkpoints.
BATCHED_LTR = dict(
    batch_enabled=True, batch_max_edits=16, grouped_fetch=True,
    checkpoint_enabled=True, checkpoint_interval=32,
)


@dataclass(frozen=True)
class Workload:
    """One named workload: a deployment, a load and the reason it exists.

    ``commits`` is the size of one round's write phase at scale 1.0; the
    sizes were calibrated on the 2-core reference box so that a round
    takes a few seconds and a 45 s run fits five to eight rounds.
    """

    name: str
    why: str
    backend: str            # "sim" | "asyncio" | "cluster"
    peers: int              # ring size (hosted peers on "cluster")
    editors: int            # concurrent closed-loop commit lanes
    documents: int
    commits: int            # edits committed per round
    readers: int            # cold replicas that sync every document
    batch: int = 1          # edits per flush; 1 = the paper's commit path
    #: Injected one-way message delay, drawn uniformly from this range
    #: (seconds).  The simulated rings jitter it: with a constant delay every
    #: latency is a multiple of it, percentiles move in steps of several
    #: percent or not at all, and a spread says nothing.  The cluster's
    #: in-process legs use the launcher's own 0.5 ms.
    latency: tuple[float, float] = (0.002, 0.004)
    warm: bool = False      # wire the converged ring instead of joining
    ltr: dict = field(default_factory=dict)
    chord: dict = field(default_factory=dict)
    cluster: dict = field(default_factory=dict)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="sim-zipf-unbatched",
        why=("paper commit path under Zipf contention on a warm 128-peer "
             "simulated ring: CPU-bound in kernel, message and routing code"),
        backend="sim", peers=128, editors=8, documents=32, commits=1500,
        readers=4, warm=True, chord=SCALE_CHORD,
    ),
    Workload(
        name="sim-zipf-batched",
        why=("same ring, editors and documents through the batched pipeline "
             "(batch 16, grouped fetch, checkpoints): the unit-form layers "
             "are bypassed and OT staged-rebase carries the work"),
        backend="sim", peers=128, editors=8, documents=32, commits=2400,
        readers=4, batch=16, warm=True, chord=SCALE_CHORD, ltr=BATCHED_LTR,
    ),
    Workload(
        name="asyncio-sqlite",
        why=("wall-clock asyncio ring of 8 peers on SQLite storage: "
             "wait-bound, so timer churn, retry sleeps and write-through "
             "storage show and sim-kernel costs do not"),
        backend="asyncio", peers=8, editors=4, documents=16, commits=320,
        readers=2, latency=(0.0005, 0.0005), chord=LIVE_CHORD,
        ltr=dict(runtime_backend="asyncio", storage_backend="sqlite",
                 validation_retry_delay=0.02),
    ),
    Workload(
        name="wire-cluster",
        why=("2 host processes x 3 peers over Unix sockets, no contention: "
             "the only workload that crosses net.codec, net.wire and "
             "process boundaries"),
        backend="cluster", peers=6, editors=2, documents=8, commits=400,
        readers=2,
        cluster=dict(processes=2, peers_per_process=3, transport="uds"),
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: The workloads ``BENCHMARK.json`` names, which the PR driver runs and holds
#: to the bounds: the simulated ones, whose clock does not feel the host.  The
#: PR driver refused the live ones (README, "Why the PR driver runs two").
DRIVER_WORKLOADS = tuple(workload for workload in WORKLOADS
                         if workload.backend == "sim")


def tolerant(cls: type, wanted: dict[str, Any], dropped: list[str]) -> Any:
    """Build config dataclass ``cls`` from the fields it still declares.

    The configuration surface is scheduled to shrink (``batch_enabled``,
    ``grouped_fetch``, ... becoming the only path).  A PR that removes a
    knob may not edit the benchmark, so unknown names are dropped and
    listed in ``dropped`` (reported under ``warnings``) instead of raising.
    """
    known = {spec.name for spec in dataclasses.fields(cls)}
    for name in wanted:
        if name not in known:
            dropped.append(f"{cls.__name__}.{name}")
    return cls(**{name: value for name, value in wanted.items() if name in known})


# --------------------------------------------------------------------------
# Inputs: everything random derives from the seed, nothing from the program.
# --------------------------------------------------------------------------


#: One generated edit: document index, where to insert, which line to drop
#: once the document is full (both as fractions of its length), the line.
Edit = tuple[int, float, float, str]


class Schedule:
    """The seeded edit sequence shared by the lanes over one document set.

    The documents of the ``edits`` edits follow Zipf(s) *exactly*: the
    per-document counts are apportioned by largest remainder and only their
    order is drawn from the seed.  Sampling the documents instead would
    make every per-document statistic (log length, and with it the cost of
    a cold sync) wander with the seed by its Poisson noise, which at these
    sizes is wider than the regression bounds.  Positions are fractions
    resolved against the lane's working copy when the edit is issued, so
    the sequence does not depend on what the program answered.
    """

    def __init__(self, seed: int, documents: list[int], edits: int) -> None:
        rng = random.Random(f"ltrbench:{seed}:{documents}")
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(documents))]
        exact = [edits * weight / sum(weights) for weight in weights]
        counts = [int(share) for share in exact]
        by_remainder = sorted(range(len(documents)),
                              key=lambda slot: exact[slot] - counts[slot],
                              reverse=True)
        for slot in by_remainder[:edits - sum(counts)]:
            counts[slot] += 1
        picks = [document for document, count in zip(documents, counts)
                 for _ in range(count)]
        rng.shuffle(picks)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        self._edits: list[Edit] = []
        for number, document in enumerate(picks):
            stem = f"#{number} "
            line = stem + "".join(rng.choice(alphabet)
                                  for _ in range(LINE_CHARS - len(stem)))
            self._edits.append((document, rng.random(), rng.random(), line))
        self._edits.reverse()  # take() pops from the end

    def take(self) -> Optional[Edit]:
        """The next edit, or ``None`` once the write phase is fully issued."""
        return self._edits.pop() if self._edits else None


def apply_edit(lines: list[str], insert_at: float, delete_at: float,
               line: str) -> str:
    """The new document text: one line in, one out once the cap is reached."""
    lines = list(lines)
    if len(lines) >= MAX_LINES:
        del lines[int(delete_at * len(lines))]
    lines.insert(int(insert_at * (len(lines) + 1)), line)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Deployments
# --------------------------------------------------------------------------


@dataclass
class Deployment:
    """A running system plus the user peers the load is driven through."""

    runtime: Any
    network: Any
    editors: list[UserPeer]
    readers: list[UserPeer]
    #: Documents each lane may touch (disjoint on the cluster's one peer).
    lanes: list[list[int]]
    system: Optional[LtrSystem]
    close: Callable[[], None]
    storage_dir: Optional[Path] = None
    cluster: Optional[Cluster] = None
    spawn_s: Optional[float] = None


def document_key(index: int) -> str:
    return f"doc-{index:02d}"


def _build_system(workload: Workload, seed: int, scratch: Path,
                  dropped: list[str]) -> Deployment:
    ltr = dict(workload.ltr)
    storage_dir = None
    if ltr.get("storage_backend", "memory") != "memory":
        storage_dir = scratch / "storage"
        storage_dir.mkdir(parents=True)
        ltr["storage_dir"] = str(storage_dir)
    system = LtrSystem(
        ltr_config=tolerant(LtrConfig, ltr, dropped),
        chord_config=tolerant(ChordConfig, workload.chord, dropped),
        seed=seed,
        latency=UniformLatency(*workload.latency),
    )
    try:
        if workload.warm:
            names = system.bootstrap(workload.peers, warm=True)
        else:
            names = system.bootstrap(workload.peers, stabilize_time=20.0)
        # Editors and readers sit on peers spread evenly around the ring.
        stride = max(1, len(names) // (workload.editors + workload.readers))
        chosen = [names[(slot * stride) % len(names)]
                  for slot in range(workload.editors + workload.readers)]
        editors = [system.user(name) for name in chosen[:workload.editors]]
        readers = [system.user(name) for name in chosen[workload.editors:]]
    except BaseException:
        system.shutdown()
        raise
    everything = list(range(workload.documents))
    return Deployment(
        runtime=system.runtime, network=system.network, editors=editors,
        readers=readers, lanes=[everything] * workload.editors,
        system=system, close=system.shutdown, storage_dir=storage_dir,
    )


def _build_cluster(workload: Workload, seed: int, scratch: Path,
                   dropped: list[str]) -> Deployment:
    # Unix socket paths are capped near 107 bytes: keep them relative to
    # the working directory, which the host processes inherit.
    socket_dir = Path(os.path.relpath(scratch / "sock"))
    socket_dir.mkdir(parents=True)
    config = tolerant(
        ClusterConfig,
        dict(workload.cluster, socket_dir=str(socket_dir), seed=seed),
        dropped,
    )
    cluster = Cluster(config)
    started = time.perf_counter()
    cluster.start()
    spawn_s = time.perf_counter() - started - config.settle_time
    system = cluster.system
    assert system is not None
    client = system.user("client")
    node = client.node
    readers = [
        UserPeer(node, system.ltr_config, author=f"reader-{slot}",
                 hash_family=system.hash_family)
        for slot in range(workload.readers)
    ]
    lanes = [list(range(lane, workload.documents, workload.editors))
             for lane in range(workload.editors)]
    return Deployment(
        runtime=system.runtime, network=system.network,
        editors=[client] * workload.editors, readers=readers, lanes=lanes,
        system=None, close=cluster.stop, cluster=cluster, spawn_s=spawn_s,
    )


def build(workload: Workload, seed: int, scratch: Path,
          dropped: list[str]) -> Deployment:
    """Set a deployment up, to the point where the first commit could go."""
    if workload.backend == "cluster":
        return _build_cluster(workload, seed, scratch, dropped)
    return _build_system(workload, seed, scratch, dropped)


# --------------------------------------------------------------------------
# The phases of a round
# --------------------------------------------------------------------------


@dataclass
class RoundResult:
    """Raw observations of one round (all clocks in seconds)."""

    setup_s: float = 0.0
    write_wall_s: float = 0.0
    write_cpu_s: float = 0.0
    write_clock_s: float = 0.0
    read_wall_s: float = 0.0
    read_clock_s: float = 0.0
    commits: int = 0
    commit_failures: int = 0
    commit_latencies: list[float] = field(default_factory=list)
    #: Per lane, when each of its committed edits was acknowledged, on the
    #: runtime clock (the typical commit rate is read off these).
    lane_acks: list[list[float]] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)
    flush_edits: list[int] = field(default_factory=list)
    syncs: int = 0
    sync_failures: int = 0
    sync_latencies: list[float] = field(default_factory=list)
    synced_patches: int = 0
    read_messages: int = 0
    checkpoint_syncs: int = 0
    messages: int = 0
    bytes_sent: int = 0
    per_method: dict[str, int] = field(default_factory=dict)
    events: int = 0
    db_bytes: Optional[int] = None
    spawn_s: Optional[float] = None
    host_cpu_s: Optional[float] = None
    verified_documents: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return (self.commits + self.commit_failures + self.syncs
                + self.sync_failures + self.verified_documents)

    @property
    def failed(self) -> int:
        return self.commit_failures + self.sync_failures + len(self.violations)


def _commit_lane(user: UserPeer, schedule: Schedule,
                 out: RoundResult) -> Iterator[Any]:
    """One closed-loop lane on the paper path: edit, commit, wait for the ack."""
    runtime = user.node.runtime
    acks: list[float] = []
    out.lane_acks.append(acks)
    while (edit := schedule.take()) is not None:
        index, insert_at, delete_at, line = edit
        key = document_key(index)
        issued = runtime.now
        user.edit(key, apply_edit(user.working_lines(key), insert_at,
                                  delete_at, line))
        try:
            result = yield from user.commit(key)
        except ReproError:
            result = None
            user.discard_pending(key)
        if result is None:
            out.commit_failures += 1
            continue
        acked = runtime.now
        out.commits += 1
        acks.append(acked)
        out.commit_latencies.append(acked - issued)
        out.attempts.append(result.attempts)
        out.flush_edits.append(1)


def _flush(user: UserPeer, key: str, staged_at: dict[str, list[float]],
           acks: list[float], out: RoundResult) -> Iterator[Any]:
    issued = staged_at.pop(key, [])
    try:
        result = yield from user.flush(key)
    except ReproError:
        result = None
        user.discard_batch(key)
    if result is None:
        out.commit_failures += len(issued)
        return
    acked = user.node.runtime.now
    out.commits += result.edits
    acks.extend([acked] * result.edits)
    out.commit_latencies.extend(acked - moment for moment in issued)
    out.attempts.append(result.attempts)
    out.flush_edits.append(result.edits)


def _batch_lane(user: UserPeer, schedule: Schedule,
                out: RoundResult) -> Iterator[Any]:
    """One closed-loop lane on the batched path: stage, flush what is due."""
    runtime = user.node.runtime
    staged_at: dict[str, list[float]] = {}
    acks: list[float] = []
    out.lane_acks.append(acks)
    while (edit := schedule.take()) is not None:
        index, insert_at, delete_at, line = edit
        key = document_key(index)
        staged_at.setdefault(key, []).append(runtime.now)
        user.stage(key, apply_edit(user.staged_lines(key), insert_at,
                                   delete_at, line))
        for due in [name for name, batch in user.batches.items()
                    if batch.due(runtime.now)]:
            yield from _flush(user, due, staged_at, acks, out)
    for key in list(user.batches):
        yield from _flush(user, key, staged_at, acks, out)


def _reader(user: UserPeer, documents: int, out: RoundResult) -> Iterator[Any]:
    """A cold replica catches up on every document, one sync at a time."""
    runtime = user.node.runtime
    for index in range(documents):
        started = runtime.now
        try:
            result = yield from user.sync(document_key(index))
        except ReproError:
            out.sync_failures += 1
            continue
        out.syncs += 1
        out.sync_latencies.append(runtime.now - started)
        out.synced_patches += result.to_ts - result.from_ts
        if result.checkpoint_ts is not None:
            out.checkpoint_syncs += 1


def _run_all(runtime: Any, generators: list[Iterator[Any]]) -> None:
    processes = [runtime.process(generator) for generator in generators]
    runtime.run(until=runtime.all_of(processes))


def _directory_bytes(path: Optional[Path]) -> int:
    if path is None:
        return 0
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


def write_phase(workload: Workload, deployment: Deployment, seed: int,
                commits: int, out: RoundResult) -> None:
    lane = _batch_lane if workload.batch > 1 else _commit_lane
    # Lanes over the same documents share one schedule (and so finish
    # together); the cluster's disjoint lanes split the edits evenly.
    groups = sorted({tuple(documents) for documents in deployment.lanes})
    schedules = {group: Schedule(seed, list(group), commits // len(groups))
                 for group in groups}
    generators = [
        lane(user, schedules[tuple(deployment.lanes[slot])], out)
        for slot, user in enumerate(deployment.editors)
    ]
    stats = deployment.network.stats
    runtime = deployment.runtime
    sent, sent_bytes = stats.sent, stats.bytes_sent
    methods = dict(stats.per_method)
    events = runtime.processed_events
    disk = _directory_bytes(deployment.storage_dir)
    clock, cpu, wall = runtime.now, time.process_time(), time.perf_counter()
    _run_all(runtime, generators)
    out.write_wall_s = time.perf_counter() - wall
    out.write_cpu_s = time.process_time() - cpu
    out.write_clock_s = runtime.now - clock
    out.events = runtime.processed_events - events
    out.messages = stats.sent - sent
    out.bytes_sent = stats.bytes_sent - sent_bytes
    out.per_method = {
        method: count - methods.get(method, 0)
        for method, count in stats.per_method.items()
        if count != methods.get(method, 0)
    }
    if deployment.storage_dir is not None:
        for node in deployment.system.ring.nodes.values():
            node.storage.backend.flush()
        out.db_bytes = _directory_bytes(deployment.storage_dir) - disk


def read_phase(workload: Workload, deployment: Deployment,
               out: RoundResult) -> None:
    generators = [_reader(user, workload.documents, out)
                  for user in deployment.readers]
    runtime, stats = deployment.runtime, deployment.network.stats
    sent, clock, wall = stats.sent, runtime.now, time.perf_counter()
    _run_all(runtime, generators)
    out.read_wall_s = time.perf_counter() - wall
    out.read_clock_s = runtime.now - clock
    out.read_messages = stats.sent - sent


def verify(workload: Workload, deployment: Deployment, out: RoundResult) -> None:
    """Untimed: checker, log continuity ``1..last_ts``, reader == writer text.

    With a full :class:`LtrSystem` in this process the convergence checker
    runs its quiescent state pass and its end-to-end consistency report
    (every replica synced, the log fetched ``1..last_ts`` and replayed) on
    every document.  On the cluster the ring lives in other processes, so
    the log is fetched and replayed through the client's own leg instead.
    Either way every reader replica must then equal the log replay, and so
    must the replica of every writer that is caught up.
    """
    keys = [document_key(index) for index in range(workload.documents)]
    runtime = deployment.runtime
    canonical: dict[str, tuple[int, Optional[list[str]]]] = {}
    if deployment.system is not None:
        checker = ConvergenceChecker(keys, max_in_flight=workload.batch)
        final = checker.final_check(deployment.system)
        for snapshot in checker.snapshots:
            out.violations.extend(snapshot.violations)
        for key in keys:
            # "converged" says the caught-up replicas equal the log replay;
            # the loop below adds that every replica is caught up.
            canonical[key] = (final.keys.get(key, {}).get("last_ts", 0), None)
    else:
        writer = deployment.editors[0]
        for key in keys:
            last_ts = writer.document(key).applied_ts
            canonical[key] = (last_ts, None)
            try:
                entries = runtime.run(until=runtime.process(
                    deployment.readers[0].log.fetch_range(key, 1, last_ts)))
            except ReproError as error:
                out.violations.append(f"{key}: log unreadable ({error})")
                continue
            if [entry.ts for entry in entries] != list(range(1, last_ts + 1)):
                out.violations.append(f"{key}: log not continuous to {last_ts}")
                continue
            canonical[key] = (last_ts, replay_log(key, entries).lines)
    replicas = {id(user): user for user in deployment.readers + deployment.editors}
    for key in keys:
        out.verified_documents += 1
        last_ts, lines = canonical[key]
        for user in replicas.values():
            replica = user.documents.get(key)
            if replica is None:
                if user in deployment.readers and last_ts:
                    out.violations.append(f"{key}: {user.author} never synced")
                continue
            if lines is None:
                lines = replica.lines  # the checker matched it to the replay
            if replica.applied_ts != last_ts or replica.lines != lines:
                out.violations.append(
                    f"{key}: replica of {user.author} at ts "
                    f"{replica.applied_ts}/{last_ts} differs from the log")
    committed = sum(last_ts for last_ts, _lines in canonical.values())
    if committed != out.commits:
        out.violations.append(
            f"log holds {committed} timestamps, {out.commits} commits were acked")


def setup_only(workload: Workload, seed: int, scratch: Path,
               dropped: list[str]) -> float:
    """Set a deployment up and tear it down at once; the set-up's wall time.

    A round sets up once, so a run of a few rounds has a few samples of a
    set-up that takes milliseconds on a warm simulated ring; ``run.py``
    adds these probes until the run's ``setup_s`` rests on dozens.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    gc.collect()
    started = time.perf_counter()
    deployment = build(workload, seed, scratch, dropped)
    try:
        return time.perf_counter() - started
    finally:
        deployment.close()
        shutil.rmtree(scratch, ignore_errors=True)


def run_round(workload: Workload, seed: int, scale: float, scratch: Path,
              dropped: list[str], recorder: Optional[Recorder] = None,
              corrupt: Optional[Callable[[Deployment], None]] = None,
              ) -> RoundResult:
    """One round: fresh deployment, write, read, verify, tear down.

    With a ``recorder`` the round is *traced*: the span wrappers are in
    place from before set-up (RPC handlers bind their methods then) until
    the deployment is closed.  ``corrupt`` is the self-test hook: it runs
    between the read phase and the verification, so a test can prove that
    damage is detected.
    """
    out = RoundResult()
    commits = max(workload.editors * workload.batch, round(workload.commits * scale))
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    gc.collect()  # set-up should not pay for the previous round's garbage
    phase = recorder.begin_phase if recorder is not None else lambda _name: None
    with install(recorder) if recorder is not None else Installation() as spans:
        dropped.extend(spans.warnings)
        started = time.perf_counter()
        deployment = build(workload, seed, scratch, dropped)
        try:
            out.setup_s = time.perf_counter() - started
            out.spawn_s = deployment.spawn_s
            if recorder is not None:
                recorder.clock = lambda: deployment.runtime.now
            phase("write")
            write_phase(workload, deployment, seed, commits, out)
            phase("read")
            read_phase(workload, deployment, out)
            phase("verify")
            if corrupt is not None:
                corrupt(deployment)
            verify(workload, deployment, out)
        finally:
            deployment.close()
            shutil.rmtree(scratch, ignore_errors=True)
    if deployment.cluster is not None:
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.host_cpu_s = (after.ru_utime + after.ru_stime
                          - children.ru_utime - children.ru_stime)
    return out
