"""The metric catalogue of ltrbench and how each value is derived.

``BENCHMARK.json`` lists the same names, units and directions; the
self-test compares the two.  Every value is computed per *round* (one
set-up, write phase, read phase on a fresh deployment) and a run reports
the median over its rounds.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from statistics import mean, median
from typing import Optional

from spans import Recorder
from workloads import RoundResult, Workload


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str      # "lower" | "higher"
    layer: str
    moves: str       # which end-to-end metric it should move, on which workload


END_TO_END = (
    Metric("setup_s", "s", "lower", "end-to-end", ""),
    Metric("commits_per_s", "1/s", "higher", "end-to-end", ""),
    Metric("commit_p50_ms", "ms", "lower", "end-to-end", ""),
    Metric("commit_p95_ms", "ms", "lower", "end-to-end", ""),
    Metric("msgs_per_commit", "count", "lower", "end-to-end", ""),
    Metric("sync_patches_per_s", "1/s", "higher", "end-to-end", ""),
    Metric("sync_p50_ms", "ms", "lower", "end-to-end", ""),
    Metric("sync_msgs_per_patch", "count", "lower", "end-to-end", ""),
    Metric("peak_rss_mb", "MiB", "lower", "end-to-end", ""),
)

#: The ninth end-to-end quantity.  It is 0 on every healthy run, and a
#: relative bound on 0 means nothing, so the contract line carries it as
#: ``failed`` / ``attempted`` instead of as a bounded metric.
FAILED_SHARE = Metric("failed_share", "ratio", "lower", "end-to-end", "")

PER_LAYER = (
    Metric("ot.edit_us_per_commit", "us", "lower", "ot",
           "proc.commits_per_wall_s on sim-*; nothing live"),
    Metric("ot.integrate_us_per_patch", "us", "lower", "ot",
           "sync_patches_per_s live, proc.sync_patches_per_wall_s on sim-*; "
           "proc.commits_per_wall_s on sim-zipf-batched"),
    Metric("ot.transforms_per_patch", "count", "lower", "ot",
           "explains ot.integrate_us_per_patch"),
    Metric("user_peer.attempts_per_commit", "count", "lower", "core",
           "commit_p95_ms, msgs_per_commit on sim-zipf-unbatched, "
           "asyncio-sqlite; 1.0 on wire-cluster"),
    Metric("user_peer.edits_per_flush", "count", "higher", "core",
           "commits_per_s, commit_p50_ms on sim-zipf-batched only"),
    Metric("user_peer.commit_busy_us", "us", "lower", "core",
           "proc.commits_per_wall_s on sim-*"),
    Metric("user_peer.stalled_share", "ratio", "lower", "core",
           "proc.commits_per_wall_s on wire-cluster, asyncio-sqlite "
           "(commits_per_s is a median over slices and does not feel stalls)"),
    Metric("master.validate_ms_p50", "ms", "lower", "core",
           "commit_p50_ms on all"),
    Metric("master.behind_share", "ratio", "lower", "core",
           "user_peer.attempts_per_commit, then commit_p95_ms on zipf workloads"),
    Metric("master.lock_wait_ms_p95", "ms", "lower", "core",
           "commit_p95_ms on sim-zipf-*; about 0 on wire-cluster"),
    Metric("kts.alloc_us", "us", "lower", "kts",
           "proc.commits_per_wall_s on sim-* (small)"),
    Metric("kts.ts_per_alloc", "count", "higher", "kts",
           "msgs_per_commit on sim-zipf-batched; 1.0 elsewhere"),
    Metric("p2plog.publish_ms_p50", "ms", "lower", "p2plog",
           "master.validate_ms_p50, then commit_p50_ms on all"),
    Metric("p2plog.puts_per_commit", "count", "lower", "p2plog",
           "msgs_per_commit on all"),
    Metric("p2plog.fetch_ms_p50", "ms", "lower", "p2plog",
           "sync_p50_ms on all; commit_p95_ms under contention"),
    Metric("p2plog.fetch_rpcs_per_patch", "count", "lower", "p2plog",
           "sync_msgs_per_patch, sync_patches_per_s on all"),
    Metric("p2plog.checkpoint_hit_share", "ratio", "higher", "p2plog",
           "sync_p50_ms on sim-zipf-batched; not applicable elsewhere"),
    Metric("dht.lookups_per_commit", "count", "lower", "dht",
           "msgs_per_commit, commit_p50_ms on all"),
    Metric("chord.hops_per_lookup", "count", "lower", "chord",
           "chord.lookup_ms_p50 on sim-*; about 1 on small live rings"),
    Metric("chord.lookup_ms_p50", "ms", "lower", "chord",
           "commit_p50_ms, most on sim-*"),
    Metric("chord.maint_msgs_per_s", "1/s", "lower", "chord",
           "proc.commits_per_wall_s on sim-* (kernel load); msgs_per_commit live"),
    Metric("net.bytes_per_commit", "B", "lower", "net",
           "proc.commits_per_wall_s on sim-*; commits_per_s on wire-cluster"),
    Metric("net.send_us_per_msg", "us", "lower", "net",
           "proc.commits_per_wall_s on sim-*"),
    Metric("net.copy_us_per_msg", "us", "lower", "net",
           "proc.commits_per_wall_s on sim-*; nothing on asyncio-sqlite"),
    Metric("net.rpc_ms_p50", "ms", "lower", "net",
           "commit_p50_ms on all"),
    Metric("net.rpc_failed_per_commit", "count", "lower", "net",
           "failed share, commit_p95_ms live; expect 0"),
    Metric("codec.encode_us_per_frame", "us", "lower", "codec",
           "commit_p50_ms, commits_per_s on wire-cluster; not applicable elsewhere"),
    Metric("codec.decode_us_per_frame", "us", "lower", "codec",
           "commit_p50_ms, commits_per_s on wire-cluster; not applicable elsewhere"),
    Metric("codec.bytes_per_frame", "B", "lower", "codec",
           "codec.encode_us_per_frame on wire-cluster"),
    Metric("wire.frames_per_commit", "count", "lower", "wire",
           "commit_p50_ms, commits_per_s on wire-cluster"),
    Metric("wire.send_us_per_frame", "us", "lower", "wire",
           "commit_p50_ms, commits_per_s on wire-cluster"),
    Metric("cluster.spawn_s", "s", "lower", "cluster",
           "setup_s on wire-cluster"),
    Metric("cluster.host_cpu_s_per_commit", "s", "lower", "cluster",
           "commits_per_s on wire-cluster"),
    Metric("storage.put_us", "us", "lower", "storage",
           "commits_per_s on asyncio-sqlite; no move on sim-* (memory)"),
    Metric("storage.puts_per_commit", "count", "lower", "storage",
           "commits_per_s on asyncio-sqlite"),
    Metric("storage.db_bytes_per_commit", "B", "lower", "storage",
           "commits_per_s on asyncio-sqlite; not applicable on memory"),
    Metric("runtime.events_per_commit", "count", "lower", "runtime",
           "proc.commits_per_wall_s on sim-*"),
    Metric("runtime.events_per_s", "1/s", "higher", "runtime",
           "proc.commits_per_wall_s on sim-*"),
    Metric("runtime.timers_per_commit", "count", "lower", "runtime",
           "commits_per_s, commit_p50_ms on asyncio-sqlite, wire-cluster"),
    Metric("proc.cpu_s_per_commit", "s", "lower", "process",
           "cpu about wall means CPU-bound (sim-*), far below means wait-bound (live)"),
    Metric("proc.commits_per_wall_s", "1/s", "higher", "process",
           "commits / wall seconds of the whole write phase: the host speed "
           "of sim-* (their commits_per_s is simulated); stalls included live"),
    Metric("proc.sync_patches_per_wall_s", "1/s", "higher", "process",
           "host speed of the read phase on sim-* (sync_patches_per_s "
           "is simulated there); equals it live"),
    Metric("trace.overhead_share", "ratio", "lower", "trace",
           "bounds how far the us columns can be trusted"),
    Metric("replay.codec_encode_mb_per_s", "MB/s", "higher", "replay",
           "codec.encode_us_per_frame"),
    Metric("replay.codec_decode_mb_per_s", "MB/s", "higher", "replay",
           "codec.decode_us_per_frame"),
    Metric("replay.copy_payload_msgs_per_s", "1/s", "higher", "replay",
           "net.copy_us_per_msg"),
    Metric("replay.ot_integrate_patches_per_s", "1/s", "higher", "replay",
           "ot.integrate_us_per_patch"),
    Metric("replay.storage_put_memory_rows_per_s", "1/s", "higher", "replay",
           "storage.put_us on memory"),
    Metric("replay.storage_put_sqlite_rows_per_s", "1/s", "higher", "replay",
           "storage.put_us on asyncio-sqlite"),
)

#: Every name a run prints, in the order it prints them.
CATALOGUE = END_TO_END + PER_LAYER + (FAILED_SHARE,)

#: On the simulated clock these repeat exactly; a run fails if they do not.
DETERMINISTIC = (
    "commits_per_s", "commit_p50_ms", "commit_p95_ms", "msgs_per_commit",
    "sync_patches_per_s", "sync_p50_ms", "sync_msgs_per_patch",
    "user_peer.attempts_per_commit", "runtime.events_per_commit",
)

#: Slices of a lane's write phase whose median gives its rate (``lane_rate``).
RATE_SLICES = 8
#: A commit is stalled when it took this many times the round's median.
STALL_FACTOR = 10

#: Chord stabilisation traffic (stabilize, check-predecessor).
MAINTENANCE_METHODS = ("get_predecessor", "get_successor_list", "notify", "ping")

Values = dict[str, Optional[float]]


def percentile(values: list[float], fraction: float) -> Optional[float]:
    """Linearly interpolated percentile; ``None`` for an empty sample.

    Interpolated, because a cold reader makes one ``sync`` per document and
    nearest rank over a few dozen samples jumps between two documents.
    """
    if not values:
        return None
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (position - below)


def lane_rate(acks: list[float]) -> Optional[float]:
    """Typical acknowledgements per second of one closed-loop lane.

    The central 80 % of ``acks`` is cut into ``RATE_SLICES`` slices of equal
    count and the median slice gives the rate.  The first and last tenth are
    left out because the first commits on a fresh ring pay first-touch
    routing and the last ones run beside lanes already idle.  The median,
    because on the cluster about one commit in a hundred is answered by a
    peer that is not, or not yet, the Master and sleeps through one or more
    ``validation_retry_delay`` before it is re-routed: with two lanes and
    rounds of a few seconds, a handful of such stalls moves the mean rate
    of a round by a third either way.  Stalls are counted by
    ``user_peer.stalled_share`` and felt by ``proc.commits_per_wall_s``.
    """
    skip = len(acks) // 10
    central = acks[skip:len(acks) - skip]
    width = (len(central) - 1) // RATE_SLICES
    if width < 1:  # a smoke-sized lane: its plain rate
        return _ratio(len(acks) - 1, acks[-1] - acks[0]) if acks else None
    typical = median(central[(slot + 1) * width] - central[slot * width]
                     for slot in range(RATE_SLICES))
    return width / typical if typical > 0 else None


def steady_rate(lanes: list[list[float]]) -> Optional[float]:
    """Typical commits per second: the lanes' typical rates, summed."""
    rates = [lane_rate(acks) for acks in lanes]
    return sum(rate or 0.0 for rate in rates) if any(rates) else None


def stalled_share(latencies: list[float]) -> Optional[float]:
    """Share of commits slower than ``STALL_FACTOR`` times the median one."""
    if not latencies:
        return None
    limit = STALL_FACTOR * median(latencies)
    return sum(latency > limit for latency in latencies) / len(latencies)


def _ratio(numerator: float, denominator: float, scale: float = 1.0,
           ) -> Optional[float]:
    return numerator / denominator * scale if denominator else None


def _scaled(value: Optional[float], scale: float) -> Optional[float]:
    return None if value is None else value * scale


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(result: RoundResult) -> Values:
    """The per-round end-to-end values (peak RSS is per run, not per round)."""
    return {
        "setup_s": result.setup_s,
        "commits_per_s": steady_rate(result.lane_acks),
        "commit_p50_ms": _scaled(percentile(result.commit_latencies, 0.50), 1e3),
        "commit_p95_ms": _scaled(percentile(result.commit_latencies, 0.95), 1e3),
        "msgs_per_commit": _ratio(result.messages, result.commits),
        "sync_patches_per_s": _ratio(result.synced_patches, result.read_clock_s),
        "sync_p50_ms": _scaled(percentile(result.sync_latencies, 0.50), 1e3),
        "sync_msgs_per_patch": _ratio(result.read_messages, result.synced_patches),
    }


def driver_layers(workload: Workload, result: RoundResult) -> Values:
    """Per-layer values the driver can count without any wrapper installed."""
    commits = result.commits
    maintenance = sum(result.per_method.get(method, 0)
                      for method in MAINTENANCE_METHODS)
    checkpoints = bool(workload.ltr.get("checkpoint_enabled"))
    return {
        "user_peer.attempts_per_commit":
            mean(result.attempts) if result.attempts else None,
        "user_peer.edits_per_flush":
            mean(result.flush_edits) if result.flush_edits else None,
        "user_peer.stalled_share": stalled_share(result.commit_latencies),
        "p2plog.checkpoint_hit_share":
            _ratio(result.checkpoint_syncs, result.syncs) if checkpoints else None,
        "chord.maint_msgs_per_s": _ratio(maintenance, result.write_clock_s),
        "net.bytes_per_commit": _ratio(result.bytes_sent, commits),
        "cluster.spawn_s": result.spawn_s,
        "cluster.host_cpu_s_per_commit":
            None if result.host_cpu_s is None else _ratio(result.host_cpu_s, commits),
        "storage.db_bytes_per_commit":
            None if result.db_bytes is None else _ratio(result.db_bytes, commits),
        "runtime.events_per_commit": _ratio(result.events, commits),
        "runtime.events_per_s": _ratio(result.events, result.write_wall_s),
        "proc.cpu_s_per_commit": _ratio(result.write_cpu_s, commits),
        "proc.commits_per_wall_s": _ratio(commits, result.write_wall_s),
        "proc.sync_patches_per_wall_s":
            _ratio(result.synced_patches, result.read_wall_s),
    }


def span_layers(recorder: Recorder, result: RoundResult) -> Values:
    """Per-layer values that need the wrappers of a traced round."""
    write = recorder.phases("write")
    both = recorder.phases("write", "read")
    commits, messages = result.commits, result.messages
    remote = both.counter("ot.remote_patches")
    allocations = (write.calls("kts.next_timestamps")
                   or write.calls("kts.gen_ts"))
    timestamps = (write.counter("kts.timestamps")
                  or write.counter("kts.unit_timestamps"))
    # The retrieval entry point: whichever outermost form still exists.
    retrievals: list[float] = []
    for op in ("p2plog.fetch_range", "p2plog.fetch_span", "p2plog.fetch"):
        retrievals = [span[4] - span[3] for span in both.spans
                      if span[1] == op and span[9] != "0 entries"]
        if retrievals:
            break
    retrieved = (both.counter("p2plog.range_patches")
                 or both.counter("p2plog.span_patches")
                 or both.counter("p2plog.unit_fetches"))
    frames = write.counter("wire.frames")
    encodes, decodes = write.calls("codec.encode"), write.calls("codec.decode")
    rows = write.counter("storage.rows")
    lookups = write.counter("chord.lookups")
    return {
        "ot.edit_us_per_commit": _ratio(write.wall("ot.edit"), commits, 1e6),
        "ot.integrate_us_per_patch": _ratio(both.wall("ot.integrate"), remote, 1e6),
        "ot.transforms_per_patch": _ratio(both.calls("ot.transform") / 2, remote),
        "user_peer.commit_busy_us":
            _ratio(write.busy("user_peer.commit"), commits, 1e6),
        "master.validate_ms_p50":
            _scaled(percentile(write.durations("master.validate"), 0.50), 1e3),
        "master.behind_share":
            _ratio(write.counter("master.behind"), write.calls("master.validate")),
        "master.lock_wait_ms_p95":
            _scaled(percentile(write.durations("master.lock_wait"), 0.95), 1e3),
        "kts.alloc_us":
            _ratio(write.self_wall("kts.gen_ts", "kts.next_timestamps"),
                   allocations, 1e6),
        "kts.ts_per_alloc": _ratio(timestamps, allocations),
        "p2plog.publish_ms_p50":
            _scaled(percentile(write.durations("p2plog.publish"), 0.50), 1e3),
        "p2plog.puts_per_commit": _ratio(write.calls("dht.put"), commits),
        "p2plog.fetch_ms_p50": _scaled(percentile(retrievals, 0.50), 1e3),
        "p2plog.fetch_rpcs_per_patch": _ratio(both.calls("dht.get"), retrieved),
        "dht.lookups_per_commit":
            _ratio(write.calls("dht.lookup", "dht.put", "dht.get"), commits),
        "chord.hops_per_lookup": _ratio(write.counter("chord.hops"), lookups),
        "chord.lookup_ms_p50":
            _scaled(percentile(write.durations("chord.lookup"), 0.50), 1e3),
        "net.send_us_per_msg":
            _ratio(write.self_wall("net.send", "wire.send"), messages, 1e6),
        "net.copy_us_per_msg": _ratio(write.self_wall("net.copy"), messages, 1e6),
        "net.rpc_ms_p50":
            _scaled(percentile(write.durations("net.rpc"), 0.50), 1e3),
        "net.rpc_failed_per_commit":
            _ratio(write.counter("net.rpc_failed"), commits),
        "codec.encode_us_per_frame": _ratio(write.wall("codec.encode"), encodes, 1e6),
        "codec.decode_us_per_frame": _ratio(write.wall("codec.decode"), decodes, 1e6),
        "codec.bytes_per_frame": _ratio(write.counter("codec.bytes_out"), encodes),
        "wire.frames_per_commit": _ratio(frames, commits) if frames else None,
        # WireNetwork.send hands local traffic to Network.send; the rest of
        # its wall is the remote path (encode, frame, enqueue).
        "wire.send_us_per_frame":
            _ratio(write.wall("wire.send") - write.wall("net.send"), frames, 1e6),
        "storage.put_us":
            _ratio(write.self_wall("storage.put", "storage.put_many"), rows, 1e6),
        "storage.puts_per_commit": _ratio(rows, commits),
        "runtime.timers_per_commit": _ratio(write.calls("runtime.timer"), commits),
    }
