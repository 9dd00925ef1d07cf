#!/usr/bin/env python
"""Profile the P2P-LTR commit pipeline on a warm ring.

Answers "where does a commit's wall-clock go at 10^3+ peers?" — the
question behind the protocol-at-scale performance pass.  The harness
builds a warm ring (``bootstrap_warm``, the E18 starting point), drives
the commit pipeline at one chain length (``--batch``) from one writer, and
reports:

* a plain timing pass: wall-clock commits/sec, simulated time, message
  count, peak RSS — the number the >=2x acceptance bar is measured on;
* a profiled pass (fresh system, same seed) attributing cost to the
  protocol hot paths via :class:`repro.metrics.profiling.HotpathProfiler`:
  payload copies on delivery, Message/RPC churn, chord routing and
  maintenance, storage writes, and the simulation kernel.

Usage::

    PYTHONPATH=src python benchmarks/profile_protocol.py \
        --peers 1000 --edits 64 --batch 16 [--alloc] [--json OUT.json]

``--batch 1`` is the paper's per-edit commit (one Master round + one KTS
timestamp + one log publish per edit).  ``--no-profile`` skips the
attribution pass, ``--alloc`` adds tracemalloc allocation attribution to
it (slower; timing columns of an ``--alloc`` run are not comparable).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import LtrConfig, LtrSystem
from repro.experiments.scenarios import (
    PROTOCOL_SCALE_LINES,
    SCALE_CHORD_CONFIG,
    _peak_rss_mb,
    drive_protocol_edits,
)
from repro.metrics.profiling import HotpathProfiler
from repro.net import ConstantLatency

#: Lines rewritten per edit — the E20 workload's multi-line revisions; the
#: E20 scenario and this harness stage byte-identical revisions through
#: ``drive_protocol_edits`` (see ``protocol_revision_text`` for the rationale).
DEFAULT_LINES = PROTOCOL_SCALE_LINES


def build_system(peers: int, batch: int, seed: int) -> LtrSystem:
    """A warm ring of ``peers`` nodes with the commit pipeline configured."""
    system = LtrSystem(
        ltr_config=LtrConfig(batch_max_edits=batch),
        chord_config=SCALE_CHORD_CONFIG,
        seed=seed,
        latency=ConstantLatency(0.003),
    )
    system.bootstrap(peers, warm=True)
    return system


def measure(peers: int, edits: int, batch: int, seed: int,
            lines: int = DEFAULT_LINES) -> dict:
    """The plain timing pass: no profiler in the loop."""
    system = build_system(peers, batch, seed)
    writer = system.peer_names()[0]
    sent_before = system.network.stats.sent
    sim_before = system.runtime.now
    started = time.perf_counter()
    committed = drive_protocol_edits(system, writer, edits, batch, lines)
    wall = time.perf_counter() - started
    sim_elapsed = system.runtime.now - sim_before
    messages = system.network.stats.sent - sent_before
    system.shutdown()
    return {
        "peers": peers,
        "edits": edits,
        "batch": batch,
        "lines": lines,
        "seed": seed,
        "committed": committed,
        "wall_s": round(wall, 3),
        "commits_per_s_wall": round(committed / wall, 1) if wall > 0 else 0.0,
        "sim_elapsed_s": round(sim_elapsed, 3),
        "messages": messages,
        "peak_rss_mb": _peak_rss_mb(),
    }


def profile(peers: int, edits: int, batch: int, seed: int,
            allocations: bool, lines: int = DEFAULT_LINES) -> tuple[dict, str]:
    """The attribution pass: same workload on a fresh system, profiled."""
    system = build_system(peers, batch, seed)
    writer = system.peer_names()[0]
    profiler = HotpathProfiler(allocations=allocations)
    with profiler:
        committed = drive_protocol_edits(system, writer, edits, batch, lines)
    system.shutdown()
    report = profiler.report()
    return report.as_dict(), report.render(per=max(committed, 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=1000)
    parser.add_argument("--edits", type=int, default=64)
    parser.add_argument("--batch", type=int, default=16,
                        help="edits per commit chain; 1 = the paper's per-edit commit")
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--lines", type=int, default=DEFAULT_LINES,
                        help="lines rewritten per edit (payload weight)")
    parser.add_argument("--no-profile", action="store_true",
                        help="timing pass only, skip the cProfile attribution")
    parser.add_argument("--alloc", action="store_true",
                        help="add tracemalloc allocation attribution (slow)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write timing + attribution JSON to this path")
    args = parser.parse_args(argv)

    timing = measure(args.peers, args.edits, args.batch, args.seed, args.lines)
    print(
        f"peers={timing['peers']} batch={timing['batch']} "
        f"lines={timing['lines']} "
        f"edits={timing['edits']} committed={timing['committed']}: "
        f"wall {timing['wall_s']}s -> {timing['commits_per_s_wall']} commits/s, "
        f"sim {timing['sim_elapsed_s']}s, {timing['messages']} msgs, "
        f"peak RSS {timing['peak_rss_mb']} MiB"
    )

    attribution = None
    if not args.no_profile:
        attribution, rendered = profile(
            args.peers, args.edits, args.batch, args.seed, args.alloc, args.lines
        )
        print()
        print(rendered)

    if args.json is not None:
        payload = {"timing": timing, "attribution": attribution}
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
