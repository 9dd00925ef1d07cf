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

* **Immediate lane** — events scheduled at the current instant (``delay 0``:
  process start events, triggered futures, interrupts) go to a plain FIFO
  deque.  They are already in ``(time, seq)`` order by construction, so the
  dominant class of events pays no ordering work at all.
* **Future heap** — every later event goes to one binary heap of
  ``(time, seq, event)``.  Dispatch takes the smaller of the two fronts by
  direct tuple comparison, so the order is exactly ``(time, seq)``.
* **Lazy cancellation** — :meth:`~repro.sim.events.Event.cancel` marks the
  event; its entry becomes a tombstone that is dropped when it reaches a
  front.  Tombstones are counted, and when they dominate the queue both
  lanes are filtered and the heap rebuilt in one linear pass, so
  cancel-heavy churn cannot leak memory and a timer cancelled early is
  never dispatched.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Optional

from ..errors import SimulationDeadlock
from .events import Event
from .primitives import EventPrimitivesMixin
from .process import Process
from .rng import RandomStreams

_INFINITY = float("inf")


class Simulator(EventPrimitivesMixin):
    """Deterministic discrete-event simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulator's named random streams
        (:class:`~repro.sim.rng.RandomStreams`).  Two simulators created
        with the same seed and driven by the same code produce identical
        event orderings.
    fail_silently:
        When ``True``, exceptions escaping a process do not get recorded in
        :attr:`crashed_processes`.  Tests covering failure injection enable
        this to avoid noisy bookkeeping.
    """

    #: Compaction trigger: at least this many tombstones *and* tombstones
    #: making up at least half of the queue.
    COMPACT_MIN_TOMBSTONES = 1024

    def __init__(self, seed: int = 0, *, fail_silently: bool = False) -> None:
        self._now: float = 0.0
        self._sequence = count()
        self._immediate: deque[tuple[float, int, Event]] = deque()
        self._heap: list[tuple[float, int, Event]] = []
        self._tombstones = 0    # cancelled entries still enqueued
        self.rng = RandomStreams(seed)
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
        return len(self._immediate) + len(self._heap) - self._tombstones

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
        if when <= now:
            # Events at the current instant arrive in (time, seq) order by
            # construction — the FIFO deque needs no ordering work.
            self._immediate.append((when, next(self._sequence), event))
        else:
            heappush(self._heap, (when, next(self._sequence), event))

    def _note_cancel(self, event: Event) -> None:
        """Account for a cancellation (called by :meth:`Event.cancel`)."""
        if not event._scheduled:
            return
        self._tombstones += 1
        if (
            self._tombstones >= self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 >= len(self._immediate) + len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one linear pass, then rebuild the heap."""
        self._immediate = deque(
            entry for entry in self._immediate if not entry[2]._cancelled
        )
        self._heap = [entry for entry in self._heap if not entry[2]._cancelled]
        heapify(self._heap)
        self._tombstones = 0

    # -- execution ---------------------------------------------------------

    def _dispatch_next(self, limit: float) -> bool:
        """Dispatch the next live event due at or before ``limit``.

        Returns ``False``, dispatching nothing, when there is none.  Drops
        the tombstones it meets at either front.
        """
        immediate = self._immediate
        while immediate and immediate[0][2]._cancelled:
            immediate.popleft()
            self._tombstones -= 1
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            self._tombstones -= 1
        if immediate and (not heap or immediate[0] <= heap[0]):
            if immediate[0][0] > limit:
                return False
            when, _seq, event = immediate.popleft()
        elif heap and heap[0][0] <= limit:
            when, _seq, event = heappop(heap)
        else:
            return False
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        self._processed_events += 1
        if callbacks:
            for callback in callbacks:
                callback(event)
        return True

    def step(self) -> None:
        """Process the single next event in the queue."""
        if not self._dispatch_next(_INFINITY):
            raise IndexError("step() on an empty event queue")

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
        limit = _INFINITY if until is None else float(until)
        dispatch_next = self._dispatch_next
        while dispatch_next(limit):
            pass
        if until is not None:
            # The loop only processes events at times <= limit, so the clock
            # can be behind the requested time (sparse or empty queue).
            # Advance it to exactly the requested time.
            self._now = max(self._now, limit)
        return None

    def _run_until_event(self, until: Event) -> Any:
        dispatch_next = self._dispatch_next
        while not until.processed:
            if not dispatch_next(_INFINITY):
                raise SimulationDeadlock(
                    f"event {until!r} never triggered; queue is empty at t={self._now}"
                )
        if until.ok:
            return until.value
        raise until.value
