"""The discrete-event simulator.

:class:`Simulator` owns the virtual clock and the event queue.  All other
components of the reproduction (network, Chord nodes, P2P-LTR peers) are
driven by processes registered with a single simulator instance, which makes
every experiment fully deterministic for a given random seed.

Typical usage::

    sim = Simulator(seed=7)

    def hello(sim):
        yield sim.timeout(5)
        return "done at t=5"

    proc = sim.process(hello(sim))
    sim.run()
    assert sim.now == 5 and proc.value == "done at t=5"

Scheduling structure
--------------------

The queue is a *calendar queue* (slotted timer wheel) rather than a single
binary heap, sized for runs with 10^4-10^5 peers where tens of millions of
timers are scheduled and most RPC timeouts are cancelled before they fire:

* **Immediate lane** — events scheduled at the current instant (``delay 0``:
  process start events, triggered futures, interrupts) go to a plain FIFO
  deque.  They are already in ``(time, seq)`` order by construction, so the
  dominant class of events pays no ordering work at all.
* **Tick buckets** — future events land in an unsorted bucket keyed by
  ``tick = int(time / resolution)``; a small heap of tick keys orders the
  buckets.  A bucket is only sorted ("promoted" to the *current run*) when
  the clock reaches it, and cancelled entries are filtered out *before* the
  sort, so a timer cancelled early never pays ordering or dispatch costs.
* **Lazy cancellation** — :meth:`~repro.sim.events.Event.cancel` marks the
  event; the entry in the queue becomes a tombstone that is dropped at the
  first touch (front skip, bucket promotion, or compaction).  Tombstones
  are counted, and when they dominate the queue the structures are compacted
  in one linear pass so cancel-heavy churn scenarios cannot leak memory.

The dispatch order is *exactly* the ``(time, sequence)`` order of the
historical flat-heap scheduler: ``int(t / resolution)`` is monotone in
``t``, so bucket order never contradicts time order, ties within a tick are
broken by the sorted run, and the immediate lane is merged by direct tuple
comparison.  Every seeded experiment and artifact reproduces byte for byte.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from itertools import count
from typing import Any, Optional

from ..errors import SimulationDeadlock
from .events import Event
from .primitives import EventPrimitivesMixin
from .process import Process
from .rng import RandomStreams
from .tracing import TraceLog

class Simulator(EventPrimitivesMixin):
    """Deterministic discrete-event simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulator's named random streams
        (:class:`~repro.sim.rng.RandomStreams`).  Two simulators created
        with the same seed and driven by the same code produce identical
        event orderings.
    trace:
        When ``True``, a :class:`~repro.sim.tracing.TraceLog` records every
        processed event for debugging and for the experiment reports.
    fail_silently:
        When ``True``, exceptions escaping a process do not get recorded in
        :attr:`crashed_processes`.  Tests covering failure injection enable
        this to avoid noisy bookkeeping.
    resolution:
        Width of one calendar-queue tick in simulated seconds.  Purely a
        performance knob: any positive value yields the same event order.
        The default suits the reproduction's time scales (sub-millisecond
        network latencies up to multi-second maintenance timers).
    """

    #: Default calendar tick width (seconds of simulated time).
    DEFAULT_RESOLUTION = 1.0 / 64.0

    #: Compaction trigger: at least this many tombstones *and* tombstones
    #: making up at least half of the queue.
    COMPACT_MIN_TOMBSTONES = 1024

    def __init__(
        self,
        seed: int = 0,
        *,
        trace: bool = False,
        fail_silently: bool = False,
        resolution: Optional[float] = None,
    ) -> None:
        self._now: float = 0.0
        self._sequence = count()
        if resolution is not None and resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution!r}")
        self._resolution = resolution if resolution is not None else self.DEFAULT_RESOLUTION
        # Calendar queue state (see module docstring).
        self._immediate: deque[tuple[float, int, Event]] = deque()
        self._run: list[tuple[float, int, Event]] = []
        self._run_pos = 0
        self._run_tick: Optional[int] = None
        self._buckets: dict[int, list[tuple[float, int, Event]]] = {}
        self._ticks: list[int] = []
        self._size = 0          # entries enqueued (live + tombstones)
        self._tombstones = 0    # cancelled entries still enqueued
        self._front_immediate = False  # lane of the entry _front returned
        self.rng = RandomStreams(seed)
        self.trace = TraceLog(enabled=trace)
        self.fail_silently = fail_silently
        self.crashed_processes: list[tuple[Process, BaseException]] = []
        self._active_process: Optional[Process] = None
        self._processed_events = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention across the library)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events processed since the simulator was created."""
        return self._processed_events

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events currently scheduled."""
        return self._size - self._tombstones

    @property
    def tombstones(self) -> int:
        """Number of cancelled entries still occupying the queue."""
        return self._tombstones

    # -- event creation helpers: inherited from EventPrimitivesMixin -------

    # -- scheduling --------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` units from now."""
        if event._scheduled or event._cancelled:
            return
        event._scheduled = True
        now = self._now
        when = now + delay
        entry = (when, next(self._sequence), event)
        if when <= now:
            # Events at the current instant arrive in (time, seq) order by
            # construction — the FIFO deque needs no ordering work.
            self._immediate.append(entry)
        else:
            tick = int(when / self._resolution)
            run_tick = self._run_tick
            if run_tick is not None and tick <= run_tick:
                # The clock is already inside this tick: merge into the
                # sorted current run (never lands before the consumed part).
                insort(self._run, entry, lo=self._run_pos)
            else:
                bucket = self._buckets.get(tick)
                if bucket is None:
                    self._buckets[tick] = [entry]
                    heapq.heappush(self._ticks, tick)
                else:
                    bucket.append(entry)
        self._size += 1

    def _note_cancel(self, event: Event) -> None:
        """Account for a cancellation (called by :meth:`Event.cancel`)."""
        if not event._scheduled:
            return
        self._tombstones += 1
        if (
            self._tombstones >= self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 >= self._size
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one linear pass over the structures."""
        self._immediate = deque(
            entry for entry in self._immediate if not entry[2]._cancelled
        )
        self._run = [
            entry for entry in self._run[self._run_pos:] if not entry[2]._cancelled
        ]
        self._run_pos = 0
        if not self._run:
            self._run_tick = None
        buckets: dict[int, list[tuple[float, int, Event]]] = {}
        for tick, bucket in self._buckets.items():
            live = [entry for entry in bucket if not entry[2]._cancelled]
            if live:
                buckets[tick] = live
        self._buckets = buckets
        self._ticks = list(buckets)
        heapq.heapify(self._ticks)
        self._size = (
            len(self._immediate)
            + len(self._run)
            + sum(len(bucket) for bucket in buckets.values())
        )
        self._tombstones = 0

    # -- queue front --------------------------------------------------------

    def _front(self) -> Optional[tuple[float, int, Event]]:
        """The next live entry, or ``None`` if the queue is drained.

        Skips tombstones at the front of the immediate lane and the current
        run, and promotes the next tick bucket (filter cancelled, then sort)
        when the run is exhausted.  Idempotent: repeated calls without an
        intervening consume return the same entry.  Which lane the entry
        came from is recorded in ``_front_immediate`` for :meth:`_consume`
        (runs once per processed event, so it returns the bare entry tuple
        instead of allocating a ``(source, entry)`` wrapper).
        """
        immediate = self._immediate
        while immediate and immediate[0][2]._cancelled:
            immediate.popleft()
            self._size -= 1
            self._tombstones -= 1
        run = self._run
        pos = self._run_pos
        length = len(run)
        while pos < length and run[pos][2]._cancelled:
            pos += 1
            self._size -= 1
            self._tombstones -= 1
        self._run_pos = pos
        if pos >= length:
            if length:
                run.clear()
                self._run_pos = 0
            self._run_tick = None
            resolution = self._resolution
            ticks = self._ticks
            while ticks:
                tick = ticks[0]
                if immediate and int(immediate[0][0] / resolution) < tick:
                    break  # the immediate lane precedes every bucket
                heapq.heappop(ticks)
                bucket = self._buckets.pop(tick)
                live = [entry for entry in bucket if not entry[2]._cancelled]
                dropped = len(bucket) - len(live)
                if dropped:
                    self._size -= dropped
                    self._tombstones -= dropped
                if not live:
                    continue
                live.sort()
                self._run = live
                self._run_pos = 0
                self._run_tick = tick
                break
            run = self._run
            pos = self._run_pos
            length = len(run)
        if pos < length:
            if immediate and immediate[0] <= run[pos]:
                self._front_immediate = True
                return immediate[0]
            self._front_immediate = False
            return run[pos]
        if immediate:
            self._front_immediate = True
            return immediate[0]
        return None

    def _consume(self, entry: tuple[float, int, Event]) -> None:
        """Dispatch the entry previously returned by :meth:`_front`."""
        if self._front_immediate:
            self._immediate.popleft()
        else:
            self._run_pos += 1
        self._size -= 1
        when, _seq, event = entry
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        self._processed_events += 1
        if self.trace.enabled:
            self.trace.record(when, event)
        if callbacks:
            for callback in callbacks:
                callback(event)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next event in the queue."""
        entry = self._front()
        if entry is None:
            raise IndexError("step() on an empty event queue")
        self._consume(entry)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains.
            * a number — run until the clock reaches that time (events at
              exactly that time are processed).
            * an :class:`Event` — run until that event has been processed;
              its value is returned (its exception re-raised).  A
              :class:`~repro.errors.SimulationDeadlock` is raised if the
              queue drains first.
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        limit = float("inf") if until is None else float(until)
        front = self._front
        consume = self._consume
        while True:
            entry = front()
            if entry is None or entry[0] > limit:
                break
            consume(entry)
        if until is not None:
            # The loop only processes events at times <= limit, so the clock
            # can be behind the requested time (sparse or empty queue).
            # Advance it to exactly the requested time.
            self._now = max(self._now, limit)
        return None

    def _run_until_event(self, until: Event) -> Any:
        front = self._front
        consume = self._consume
        while not until.processed:
            entry = front()
            if entry is None:
                raise SimulationDeadlock(
                    f"event {until!r} never triggered; queue is empty at t={self._now}"
                )
            consume(entry)
        if until.ok:
            return until.value
        raise until.value
