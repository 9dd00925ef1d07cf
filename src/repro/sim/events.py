"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event/process model popularised by SimPy:
an :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it; it is *triggered* either with a value (:meth:`Event.succeed`)
or with an exception (:meth:`Event.fail`).  Composite events
(:class:`AllOf`, :class:`AnyOf`) allow waiting on several events at once.

Events are deliberately lightweight: the scheduling policy (when callbacks
actually run) lives in :mod:`repro.sim.scheduler`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from ..errors import EventAlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .scheduler import Simulator

# A callback receives the event that triggered it.
Callback = Callable[["Event"], None]

_PENDING = object()


class Event:
    """A one-shot occurrence that simulation processes can wait on.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.scheduler.Simulator` that will dispatch the
        event's callbacks once it has been triggered and scheduled.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callback]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._cancelled = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """``True`` once the simulator has run the event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def cancelled(self) -> bool:
        """``True`` once the event has been cancelled (callbacks never run)."""
        return self._cancelled

    @property
    def value(self) -> Any:
        """The value (or exception) the event was triggered with."""
        if self._value is _PENDING:
            raise AttributeError("event has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so the call can be chained, e.g.
        ``return Event(sim).succeed(42)``.
        """
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have ``exception`` raised at the
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim.schedule(self)
        return self

    def cancel(self) -> bool:
        """Lazily cancel the event: its callbacks will never run.

        Cancellation is the cheap retraction path for timers whose outcome
        became irrelevant (an RPC timeout whose response arrived, a watchdog
        for work that finished).  A cancelled event that sits in a runtime's
        queue becomes a *tombstone*: the scheduler skips it on contact and
        periodically compacts the queue when tombstones accumulate, so
        cancel-heavy workloads do not leak memory or pay dispatch costs.

        Only cancel events whose callbacks you own — a process waiting on a
        cancelled event would never resume.  Returns ``True`` if the event
        was newly cancelled, ``False`` if it was already cancelled or its
        callbacks have already been dispatched.
        """
        if self._cancelled or self.callbacks is None:
            return False
        self._cancelled = True
        self.callbacks = None
        self.sim._note_cancel(self)
        return True

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (already triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- callbacks --------------------------------------------------------

    def add_callback(self, callback: Callback) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).  Callbacks added to a cancelled event
        are dropped: the event will never be dispatched.
        """
        if self._cancelled:
            return
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._ok is True:
            state = f"ok={self._value!r}"
        elif self._ok is False:
            state = f"failed={self._value!r}"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise EventAlreadyTriggered("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise EventAlreadyTriggered("Timeout events trigger themselves")


class Future(Event):
    """An explicitly triggered event used for request/response interactions.

    ``Future`` adds no behaviour over :class:`Event`; the separate name makes
    call sites (RPC layers, asynchronous services) read naturally.
    """

    __slots__ = ()


class ConditionValue:
    """Ordered mapping of events to values produced by :class:`AllOf`/:class:`AnyOf`."""

    def __init__(self, events: Iterable[Event]) -> None:
        self._events = [event for event in events if event.processed and event.ok]

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, event: Event) -> bool:
        return event in self._events

    def values(self) -> list[Any]:
        """Values of the triggered events, in the order they were passed."""
        return [event.value for event in self._events]


class _Condition(Event):
    """Base class for composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed(ConditionValue(self._events))
            return
        for event in self._events:
            event.add_callback(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._pending -= 1
        if not event.ok:
            self.fail(event.value)
        elif self._satisfied():
            self.succeed(ConditionValue(self._events))


class AllOf(_Condition):
    """Triggered once *all* constituent events have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending == 0


class AnyOf(_Condition):
    """Triggered once *any* constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending < len(self._events)
