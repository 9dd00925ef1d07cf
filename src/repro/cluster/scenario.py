"""The canonical live-cluster exercise: commits, a process kill, recovery.

:func:`run_live_cluster` is the one code path behind both the CLI
(``python -m repro.cluster run``) and experiment E16: boot an N-process
ring, drive edits from the launcher's client peer across real process
boundaries, SIGKILL the process hosting the hot document's Master-key peer
mid-run (through the nemesis, so the fault is a recorded plan event), keep
committing while the ring heals, and verify that the log survived the
amputation intact.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from ..faults import FaultPlan, Nemesis
from ..metrics import summarize
from .config import ClusterConfig
from .launcher import Cluster
from .placement import Placement, find_killable_placement, placement_of


def run_live_cluster(
    config: ClusterConfig,
    *,
    commits: int = 30,
    kill: bool = True,
) -> dict[str, Any]:
    """Boot a cluster, drive ``commits`` edits, optionally kill the Master.

    With ``kill=True`` the document key is *chosen* so that its Master-key
    peer lives in a killable child process while the Master's ring successor
    (holder of the replicated last-ts and KTS counter) survives elsewhere —
    the offline placement math makes the fault deterministic.  The kill
    fires through a :class:`~repro.faults.Nemesis` after half of the
    commits.

    Returns a flat report dict (the E16 row).
    """
    kill = kill and config.processes > 1
    placement: Placement = (
        find_killable_placement(config) if kill else placement_of(config, "doc-0")
    )
    key = placement.key
    kill_point = commits // 2
    latencies: list[float] = []
    ok = failed = 0
    post_kill_ok = 0
    total_attempts = 0
    last_ts = 0
    nemesis: Optional[Nemesis] = None
    document_lines: list[str] = []

    with Cluster(config) as cluster:
        started = time.monotonic()
        for index in range(commits):
            if kill and index == kill_point:
                plan = FaultPlan().kill_process(0.0, placement.kill_target)
                nemesis = Nemesis(cluster, plan).start(at=0.0)
                cluster.run_for(0.05)  # let the kill timer fire before driving on
            document_lines.append(f"line-{index} by client")
            begin = time.monotonic()
            result, attempts = cluster.commit_with_retries(
                key, "\n".join(document_lines)
            )
            elapsed = time.monotonic() - begin
            total_attempts += attempts
            if result is None:
                failed += 1
                continue
            ok += 1
            latencies.append(elapsed)
            last_ts = max(last_ts, result.ts)
            if nemesis is not None and nemesis.applied:
                post_kill_ok += 1
        wall = time.monotonic() - started
        continuous = cluster.log_is_continuous(key, last_ts) if last_ts else False
        wire = cluster.wire_stats()
        latency = summarize(latencies)
        report: dict[str, Any] = {
            "processes": config.processes,
            "peers_per_process": config.peers_per_process,
            "ring_size": len(config.all_peers()),
            "document_key": key,
            "master_peer": placement.master,
            "commits_ok": ok,
            "commits_failed": failed,
            "mean_attempts": round(total_attempts / commits, 2) if commits else 0.0,
            "last_ts": last_ts,
            "wall_clock_s": round(wall, 3),
            "commits_per_s": round(ok / wall, 1) if wall > 0 else 0.0,
            "p50_latency_ms": round(latency.median * 1000, 1),
            "p95_latency_ms": round(latency.p95 * 1000, 1),
            "killed_process": placement.kill_target if kill else None,
            "kill_applied": bool(nemesis is not None and nemesis.applied),
            "post_kill_ok": post_kill_ok,
            "log_continuous": continuous,
            "frames_out": wire["frames_out"],
            "frames_in": wire["frames_in"],
        }
        if nemesis is not None:
            report["nemesis"] = nemesis.record()
        return report
