"""Wall-clock asyncio backend of the runtime interface.

:class:`AsyncioRuntime` drives the *same* generator-process protocol code
as the deterministic kernel, but on a real :mod:`asyncio` event loop:
timers are wall-clock ``loop.call_later`` timers, events dispatch their
callbacks as loop callbacks, and concurrency is real — the interleaving of
two commits is decided by the operating system clock, not by a
deterministic event queue.  It is the first execution substrate the
simulator's scheduler never saw, and the bridge to native asyncio code:

* kernel events and processes can be awaited from coroutines via
  :meth:`AsyncioRuntime.wait`;
* native coroutines (live editors, queue consumers) run as asyncio tasks
  via :meth:`AsyncioRuntime.spawn` and communicate through
  :meth:`AsyncioRuntime.queue`.

Determinism contract: none.  Wall-clock interleavings are nondeterministic
by design; correctness on this backend is asserted through the protocol
invariants (dense timestamps, prefix-complete log, OT convergence), not
through byte-identical transcripts.  The named RNG streams are therefore
created with scope-local sub-streams (see
:class:`~repro.sim.rng.RandomStreams`): concurrently running processes can
never interleave draws within one named stream.
"""

from __future__ import annotations

import asyncio
from typing import Any, Coroutine, Optional, Union

from ..errors import RuntimeBackendError
from ..sim.events import Event
from ..sim.primitives import EventPrimitivesMixin
from ..sim.process import Process
from ..sim.rng import RandomStreams


class AsyncioRuntime(EventPrimitivesMixin):
    """Wall-clock runtime executing processes on a private asyncio loop.

    Parameters
    ----------
    seed:
        Master seed of the named RNG streams.  Draws stay deterministic
        *per scope* (process/task), but the interleaving of scopes is
        wall-clock dependent.
    fail_silently:
        As on the kernel: suppress ``crashed_processes`` bookkeeping.
    run_guard:
        Hard wall-clock bound, in seconds, on a single
        ``run(until=<event>)`` call.  A driver waiting on an event that
        never fires raises :class:`~repro.errors.RuntimeBackendError`
        instead of hanging a test or CI job forever.  ``None`` disables
        the guard.
    """

    #: Backend identifier used by configuration and diagnostics.
    backend = "asyncio"

    def __init__(
        self,
        seed: int = 0,
        *,
        fail_silently: bool = False,
        run_guard: Optional[float] = 120.0,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._epoch = self._loop.time()
        self.rng = RandomStreams(seed, scope_provider=self._rng_scope)
        self.fail_silently = fail_silently
        self.crashed_processes: list[tuple[Process, BaseException]] = []
        self.run_guard = run_guard
        self._active_process: Optional[Process] = None
        self._processed_events = 0
        self._tasks: set[asyncio.Task] = set()
        self._closed = False

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall-clock seconds elapsed since this runtime was created."""
        return self._loop.time() - self._epoch

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The private event loop driving this runtime."""
        return self._loop

    @property
    def processed_events(self) -> int:
        """Number of events dispatched since the runtime was created."""
        return self._processed_events

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    def _rng_scope(self) -> Optional[str]:
        """Scope label for task-local RNG sub-streams.

        Inside a generator process the process name is the scope; inside a
        native coroutine the asyncio task name is.  Driver code running
        outside both draws from the unscoped stream.
        """
        process = self._active_process
        if process is not None:
            return process.name
        try:
            task = asyncio.current_task(loop=self._loop)
        except RuntimeError:  # pragma: no cover - no running loop
            task = None
        return task.get_name() if task is not None else None

    # -- event creation helpers: inherited from EventPrimitivesMixin -------
    # (timers resolve against this backend's wall-clock schedule()).

    # -- scheduling --------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Dispatch ``event``'s callbacks ``delay`` wall-clock seconds from now.

        On a closed runtime the event is dropped silently: late triggers
        (suspended generators being finalized, stragglers of a shut-down
        deployment) can no longer reach anything that matters.
        """
        if event._scheduled or event._cancelled:
            return
        event._scheduled = True
        if self._closed:
            return
        self._loop.call_later(max(0.0, delay), self._dispatch, event)

    def _dispatch(self, event: Event) -> None:
        if event._cancelled:
            return  # lazily cancelled: the loop timer fires into a no-op
        callbacks = event.callbacks
        event.callbacks = None
        self._processed_events += 1
        if callbacks:
            for callback in callbacks:
                callback(event)

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        """Drive the loop until an event has been processed or a time is reached.

        Unlike the simulation kernel there is no bounded event queue to
        drain, so ``until`` is required: pass an event/process to wait for
        (its value is returned, its exception re-raised) or an absolute
        time on this runtime's clock to sleep until.  A ``run_guard``
        violation raises :class:`~repro.errors.RuntimeBackendError`.
        """
        self._ensure_open()
        if until is None:
            raise RuntimeBackendError(
                "the asyncio backend has no bounded event queue to drain; "
                "call run(until=<event or time>)"
            )
        if isinstance(until, Event):
            return self._run_until_event(until)
        remaining = float(until) - self.now
        if remaining > 0:
            self._loop.run_until_complete(asyncio.sleep(remaining))
        return None

    def run_until_complete(self, awaitable: Any) -> Any:
        """Drive the loop until a native awaitable completes (driver entry)."""
        self._ensure_open()
        return self._loop.run_until_complete(awaitable)

    def _run_until_event(self, until: Event) -> Any:
        if not until.processed:
            self._loop.run_until_complete(self._await_processed(until))
        if until.ok:
            return until.value
        raise until.value

    async def _await_processed(self, event: Event) -> None:
        waiter = self._loop.create_future()

        def _done(_fired: Event) -> None:
            if not waiter.done():
                waiter.set_result(None)

        event.add_callback(_done)
        if self.run_guard is None:
            await waiter
            return
        try:
            await asyncio.wait_for(waiter, timeout=self.run_guard)
        except TimeoutError:
            raise RuntimeBackendError(
                f"event {event!r} did not fire within the {self.run_guard}s "
                f"run guard of the asyncio backend"
            ) from None

    # -- asyncio bridge ----------------------------------------------------

    async def wait(self, event: Event) -> Any:
        """Await a kernel event or process from native asyncio code.

        Returns the event's value, or raises its exception — the coroutine
        equivalent of ``yield event`` inside a generator process.
        """
        waiter = self._loop.create_future()

        def _done(fired: Event) -> None:
            if waiter.done():
                return
            if fired.ok:
                waiter.set_result(fired.value)
            else:
                value = fired.value
                waiter.set_exception(
                    value
                    if isinstance(value, BaseException)
                    else RuntimeBackendError(repr(value))
                )

        event.add_callback(_done)
        return await waiter

    def spawn(self, coroutine: Coroutine, name: Optional[str] = None) -> asyncio.Task:
        """Run a native coroutine as an asyncio task on this runtime's loop.

        The task name becomes the RNG scope label for any named-stream
        draws the coroutine performs.  Tasks still pending at
        :meth:`close` are cancelled.
        """
        self._ensure_open()
        task = self._loop.create_task(coroutine, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def queue(self, maxsize: int = 0) -> "asyncio.Queue":
        """An :class:`asyncio.Queue` for task-to-task communication."""
        return asyncio.Queue(maxsize)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel outstanding tasks and close the private event loop."""
        if self._closed:
            return
        self._closed = True
        pending = [task for task in self._tasks if not task.done()]
        for task in pending:
            task.cancel()
        if pending and not self._loop.is_closed():
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeBackendError("this AsyncioRuntime has been closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"t={self.now:.3f}"
        return f"<AsyncioRuntime {state} events={self._processed_events}>"
