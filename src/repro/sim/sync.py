"""Synchronization primitives for simulation processes.

The P2P-LTR Master-key peer "serves each user peer sequentially": a new
timestamp for a document is only granted once the previous patch for that
document has been replicated.  :class:`FifoLock` provides exactly that
mutual exclusion between concurrently running handler processes, with FIFO
fairness so validation requests are served in arrival order.  It needs
nothing of its runtime but ``future()``, so the same lock serves the
deterministic kernel and the asyncio backend; layers above
:mod:`repro.runtime` import it from there.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator


class FifoLock:
    """A non-reentrant mutual-exclusion lock with FIFO wakeup order.

    Usage inside a simulation process::

        yield from lock.acquire()
        try:
            ...critical section (may yield)...
        finally:
            lock.release()
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._locked = False
        self._waiting: Deque = deque()

    @property
    def locked(self) -> bool:
        """``True`` while some process holds the lock."""
        return self._locked

    @property
    def waiters(self) -> int:
        """Number of processes currently queued for the lock."""
        return len(self._waiting)

    def acquire(self):
        """Acquire the lock (generator; use with ``yield from``)."""
        if not self._locked:
            self._locked = True
            return None
        ticket = self.sim.future()
        self._waiting.append(ticket)
        try:
            yield ticket
        except BaseException:
            # Interrupted while waiting: leave the queue — or, if release()
            # had already handed the lock over, pass it on — so a waiter that
            # is gone cannot hold the lock for ever.
            if ticket.triggered:
                self.release()
            else:
                self._waiting.remove(ticket)
            raise
        # Ownership was passed directly to us by release(); the lock is
        # already marked as held.
        return None

    def release(self) -> None:
        """Release the lock, waking the longest-waiting process if any."""
        if not self._locked:
            raise RuntimeError("release() called on an unlocked FifoLock")
        if self._waiting:
            # Hand the lock over without toggling _locked so no other
            # process can sneak in between release and wakeup.
            self._waiting.popleft().succeed(None)
        else:
            self._locked = False
