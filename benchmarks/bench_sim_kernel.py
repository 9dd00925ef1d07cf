"""Microbenchmark: the kernel's scheduler vs. the historical flat heap.

Measures raw kernel event throughput on the workload that motivated lazy
cancellation — an RPC-heavy simulation where every request schedules a
timeout timer and almost every timer is cancelled before it fires (the
response arrived first).  The legacy heap pays two heap operations *plus a
full dispatch* for every timer whether or not its outcome still matters;
the kernel counts cancelled entries as tombstones, compacts them away once
they dominate its heap, and never dispatches them.

The legacy scheduler is embedded below (verbatim event loop of the seed
kernel, minus the process/RNG plumbing the benchmark does not touch) so the
comparison keeps working as the kernel evolves.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_kernel.py
    PYTHONPATH=src python benchmarks/bench_sim_kernel.py --timers 20000 --json out.json

Exit status is non-zero if the kernel fails the ``--min-speedup``
bar on the cancel-heavy workload (the CI scale-smoke job relies on this).
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
from itertools import count
from pathlib import Path

from repro.sim.events import Event
from repro.sim.primitives import EventPrimitivesMixin
from repro.sim.scheduler import Simulator


class LegacyHeapSimulator(EventPrimitivesMixin):
    """The seed kernel's scheduler: one flat ``heapq`` of (time, seq, event).

    Cancellation did not exist; a timer whose outcome became irrelevant
    stayed in the heap and was dispatched into a no-op callback when its
    time came.  The benchmark models that faithfully: "cancelling" on this
    scheduler just clears the callback list.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = count()
        self._processed_events = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed_events

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), event))

    def step(self) -> None:
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        self._processed_events += 1
        if callbacks:
            for callback in callbacks:
                callback(event)

    def run(self, until: float | None = None) -> None:
        limit = float("inf") if until is None else float(until)
        while self._queue and self._queue[0][0] <= limit:
            self.step()
        if until is not None:
            self._now = max(self._now, limit)

    def cancel(self, event: Event) -> None:
        """Best the flat heap can do: forget the callbacks, keep the entry."""
        event.callbacks = None


def _cancel_on(sim, event: Event) -> None:
    """Cancel ``event`` through whichever mechanism the scheduler offers."""
    if isinstance(sim, LegacyHeapSimulator):
        sim.cancel(event)
    else:
        event.cancel()


def watchdog_reset_storm(sim, *, concurrent: int, resets: int,
                         timeout: float = 300.0, tick: float = 0.01) -> float:
    """The cancel-heavy workload: ``concurrent`` watchdogs reset ``resets`` times.

    Models the dominant timer pattern of an RPC-heavy simulation on a
    healthy network (``repro.net.rpc``): every in-flight request keeps a
    long timeout watchdog that is retracted and re-armed as traffic flows,
    so almost every scheduled timer is dead long before its time comes.
    The legacy heap keeps all ``concurrent * resets`` dead entries and
    eventually pays a pop *and a full dispatch* for each; the kernel
    compacts tombstones away and never dispatches them.

    Returns ``(arm_s, drain_s)`` wall-clock seconds: the *arm* phase
    creates, cancels and re-arms the timers (timer-object construction
    dominates and is common to both schedulers; the kernel also pays its
    tombstone compactions here), the *drain* phase runs the clock
    past the horizon so the surviving timers fire — this is where the two
    schedulers differ asymptotically, and the phase the speedup gate
    checks.
    """
    arm_started = time.perf_counter()
    noop = lambda _event: None  # noqa: E731 - benchmark callback
    watchdogs = []
    for _ in range(concurrent):
        timer = sim.timeout(timeout)
        timer.add_callback(noop)
        watchdogs.append(timer)
    for _ in range(resets):
        for index in range(concurrent):
            _cancel_on(sim, watchdogs[index])
            timer = sim.timeout(timeout)
            timer.add_callback(noop)
            watchdogs[index] = timer
        sim.run(until=sim.now + tick)
    arm_s = time.perf_counter() - arm_started
    # Run the clock out: the survivors fire, the dead entries are paid for
    # (dispatched by the legacy heap, compacted away by the kernel).
    drain_started = time.perf_counter()
    sim.run(until=sim.now + timeout + 1.0)
    drain_s = time.perf_counter() - drain_started
    return arm_s, drain_s


def uniform_timer_load(sim, *, timers: int, horizon: float = 60.0) -> float:
    """A plain (no-cancel) load: ``timers`` timers uniform over ``horizon``."""
    started = time.perf_counter()
    step = horizon / timers
    for index in range(timers):
        timer = sim.timeout((index * 7919) % timers * step)
        timer.add_callback(lambda _event: None)
    sim.run(until=horizon)
    return time.perf_counter() - started


def run_benchmark(concurrent: int, resets: int) -> dict:
    """Time both schedulers on both workloads; returns the result payload."""
    results: dict = {"concurrent_timers": concurrent, "resets": resets}

    legacy_arm, legacy_drain = watchdog_reset_storm(
        LegacyHeapSimulator(), concurrent=concurrent, resets=resets)
    kernel_arm, kernel_drain = watchdog_reset_storm(
        Simulator(), concurrent=concurrent, resets=resets)
    results["cancel_heavy"] = {
        "legacy_heap_arm_s": round(legacy_arm, 4),
        "legacy_heap_drain_s": round(legacy_drain, 4),
        "kernel_arm_s": round(kernel_arm, 4),
        "kernel_drain_s": round(kernel_drain, 4),
        "total_speedup": round(
            (legacy_arm + legacy_drain) / (kernel_arm + kernel_drain), 2)
        if kernel_arm + kernel_drain > 0 else float("inf"),
        "drain_speedup": round(legacy_drain / kernel_drain, 2)
        if kernel_drain > 0 else float("inf"),
    }

    timers = concurrent * resets
    legacy_uniform = uniform_timer_load(LegacyHeapSimulator(), timers=timers)
    kernel_uniform = uniform_timer_load(Simulator(), timers=timers)
    results["uniform"] = {
        "timers": timers,
        "legacy_heap_s": round(legacy_uniform, 4),
        "kernel_s": round(kernel_uniform, 4),
        "speedup": round(legacy_uniform / kernel_uniform, 2)
        if kernel_uniform > 0 else float("inf"),
    }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timers", type=int, default=10_000,
                        help="concurrent in-flight timers per round (default 10000)")
    parser.add_argument("--resets", type=int, default=16,
                        help="watchdog resets per timer (default 16)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required cancel-heavy speedup (default 5.0)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the results as JSON to PATH")
    arguments = parser.parse_args(argv)

    results = run_benchmark(arguments.timers, arguments.resets)
    cancel = results["cancel_heavy"]
    uniform = results["uniform"]
    print(f"cancel-heavy ({arguments.timers} concurrent x {arguments.resets} resets):")
    print(f"  arm:   legacy {cancel['legacy_heap_arm_s']}s, "
          f"kernel {cancel['kernel_arm_s']}s")
    print(f"  drain: legacy {cancel['legacy_heap_drain_s']}s, "
          f"kernel {cancel['kernel_drain_s']}s "
          f"-> {cancel['drain_speedup']}x  (total {cancel['total_speedup']}x)")
    print(f"uniform ({uniform['timers']} timers): "
          f"legacy {uniform['legacy_heap_s']}s, kernel {uniform['kernel_s']}s "
          f"-> {uniform['speedup']}x")

    if arguments.json:
        Path(arguments.json).write_text(json.dumps(results, indent=2) + "\n")

    if cancel["drain_speedup"] < arguments.min_speedup:
        print(f"FAIL: cancel-heavy drain speedup {cancel['drain_speedup']}x is "
              f"below the {arguments.min_speedup}x bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
