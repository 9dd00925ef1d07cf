"""Live collaborative wiki: the protocol stack on the asyncio runtime.

The paper's demonstrator ran as a *live* XWiki/Open Chord deployment; this
example is the reproduction's equivalent on the new execution-runtime
abstraction: the identical Chord/KTS/P2P-Log/Master stack is booted on
:class:`~repro.runtime.AsyncioRuntime` — wall-clock timers, real
in-process concurrency — and driven by **native asyncio editor tasks**
that race each other through an :class:`asyncio.Queue`.  Afterwards the
three commit invariants (dense timestamps, prefix-complete log, OT
convergence) are verified on the outcome — interleavings the
deterministic simulator's scheduler never produced.

Run with ``python examples/live_wiki.py`` (add ``--quick`` for a smaller
ring, e.g. in CI smoke jobs).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from dataclasses import dataclass

from repro.core import LtrConfig, LtrSystem
from repro.errors import ValidationFailed
from repro.experiments.scenarios import LIVE_CHORD_CONFIG
from repro.net import ConstantLatency

PAGE = "xwiki:LivePage"


@dataclass
class EditorReport:
    name: str
    committed: int
    conflicts: int


def build_live_system(peers: int, seed: int = 23) -> LtrSystem:
    """A P2P-LTR deployment on the wall-clock asyncio backend."""
    config = LtrConfig(
        runtime_backend="asyncio",
        validation_retry_delay=0.02,
    )
    system = LtrSystem(
        ltr_config=config,
        chord_config=LIVE_CHORD_CONFIG,
        seed=seed,
        latency=ConstantLatency(0.0005),
    )
    system.bootstrap(peers, stabilize_time=20.0)
    return system


async def editor(system: LtrSystem, name: str, edits: int, results) -> EditorReport:
    """One live editor: a native asyncio task committing through the stack.

    Each commit is a kernel process awaited over the runtime bridge
    (:meth:`~repro.runtime.AsyncioRuntime.wait`); the OS scheduler — not a
    deterministic event queue — decides how the editors interleave.  A
    commit that exhausts its validation attempts (pure contention livelock)
    keeps its pending patch; the editor backs off and re-commits, like a
    human pressing "save" again.
    """
    runtime = system.runtime
    user = system.user(name)
    committed = conflicts = 0
    # Scope-local named stream: inside this task the draws come from the
    # sub-stream "editor.think#<task name>", so concurrent editors never
    # interleave draws within one stream.
    think = runtime.rng.stream("editor.think")
    for revision in range(edits):
        user.edit(PAGE, f"= LivePage =\nrev {revision} by {name}\nsecond line")
        while True:
            try:
                outcome = await runtime.wait(
                    runtime.process(user.commit(PAGE), name=f"commit:{name}:{revision}")
                )
                break
            except ValidationFailed:
                await asyncio.sleep(0.02)
        if outcome is not None:
            committed += 1
            if outcome.retrieved_patches:
                conflicts += 1
            await results.put((name, outcome.ts))
        # Think time between saves: without it the in-sync editor monopolises
        # the Master (its proposal is always fresh while everyone else pays a
        # retrieval round-trip first) and the feed degenerates into streaks.
        await asyncio.sleep(think.uniform(0.001, 0.006))
    return EditorReport(name=name, committed=committed, conflicts=conflicts)


async def drive(system: LtrSystem, editors: int, edits_per_editor: int):
    """Race ``editors`` concurrent editor tasks; drain the commit feed."""
    runtime = system.runtime
    results = runtime.queue()
    writers = system.peer_names()[:editors]
    tasks = [
        runtime.spawn(editor(system, name, edits_per_editor, results), name=f"editor:{name}")
        for name in writers
    ]
    reports = await asyncio.gather(*tasks)
    feed = []
    while not results.empty():
        feed.append(results.get_nowait())
    return reports, feed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small ring / few edits (CI smoke)")
    arguments = parser.parse_args(argv)
    peers = 8 if arguments.quick else 16
    editors = 3 if arguments.quick else 4
    edits_per_editor = 8 if arguments.quick else 50

    print(f"booting a live {peers}-peer ring on the asyncio runtime...")
    started = time.perf_counter()
    system = build_live_system(peers)
    print(f"  ring stable after {time.perf_counter() - started:.2f}s wall clock "
          f"(backend={system.runtime_backend})")

    try:
        print(f"\n{editors} concurrent editors x {edits_per_editor} edits on {PAGE!r}:")
        commit_started = time.perf_counter()
        reports, feed = system.runtime.run_until_complete(
            drive(system, editors, edits_per_editor)
        )
        elapsed = time.perf_counter() - commit_started
        total = sum(report.committed for report in reports)
        for report in reports:
            print(f"  {report.name:<8} committed {report.committed:>3} "
                  f"({report.conflicts} behind-and-rebased)")
        print(f"  {total} commits in {elapsed:.2f}s wall clock "
              f"({total / elapsed:.1f} commits/s)")

        last_ts = system.last_ts(PAGE)
        entries = system.fetch_log(PAGE, 1, last_ts)
        dense = [entry.ts for entry in entries] == list(range(1, last_ts + 1))
        report = system.check_consistency(PAGE)
        print("\ninvariants under real interleavings:")
        print(f"  dense timestamps 1..{last_ts}: {dense}")
        print(f"  prefix-complete log:          {report.log_continuous}")
        print(f"  OT convergence:               {report.converged} "
              f"({report.distinct_contents} distinct replica content(s))")
        tail = sorted(feed, key=lambda item: item[1])[-3:]
        print("  last commits in the live feed: "
              + ", ".join(f"ts={ts} by {name}" for name, ts in tail))
        ok = dense and report.log_continuous and report.converged and total == last_ts
        print("\nOK" if ok else "\nINVARIANT VIOLATION")
        return 0 if ok else 1
    finally:
        system.shutdown()


if __name__ == "__main__":
    sys.exit(main())
