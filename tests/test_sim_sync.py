"""Tests for the simulation synchronization primitive (FifoLock)."""

import pytest

from repro.sim import FifoLock, Simulator


def test_fifo_lock_mutual_exclusion_and_order():
    sim = Simulator()
    lock = FifoLock(sim)
    log = []

    def worker(name, hold):
        def proc(sim):
            yield from lock.acquire()
            try:
                log.append(f"{name}:enter@{sim.now}")
                yield sim.timeout(hold)
                log.append(f"{name}:exit@{sim.now}")
            finally:
                lock.release()
        return proc

    sim.process(worker("a", 2)(sim))
    sim.process(worker("b", 1)(sim))
    sim.process(worker("c", 1)(sim))
    sim.run()
    assert log == [
        "a:enter@0.0",
        "a:exit@2.0",
        "b:enter@2.0",
        "b:exit@3.0",
        "c:enter@3.0",
        "c:exit@4.0",
    ]
    assert not lock.locked


def test_fifo_lock_waiters_count():
    sim = Simulator()
    lock = FifoLock(sim)

    def holder(sim):
        yield from lock.acquire()
        yield sim.timeout(5)
        lock.release()

    def waiter(sim):
        yield from lock.acquire()
        lock.release()

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.process(waiter(sim))
    sim.run(until=1)
    assert lock.locked
    assert lock.waiters == 2
    sim.run()
    assert lock.waiters == 0


def test_fifo_lock_release_unlocked_raises():
    sim = Simulator()
    lock = FifoLock(sim)
    with pytest.raises(RuntimeError):
        lock.release()



@pytest.mark.parametrize("handed_over", [False, True])
def test_an_interrupted_waiter_does_not_keep_the_lock(handed_over):
    """A waiter interrupted in ``acquire`` leaves the queue — or, interrupted
    in the instant the lock was handed to it, passes the lock on — so the
    next waiter gets it; before, the lock stayed held by nobody for ever."""
    sim = Simulator()
    lock = FifoLock(sim)
    entered = []

    def holder(sim):
        yield from lock.acquire()
        yield sim.timeout(1)
        if handed_over:
            # Delivered after the release below has granted the ticket, and
            # before the waiter resumes with it.
            waiter.interrupt("killed")
        lock.release()

    def waits(name):
        def proc(sim):
            yield from lock.acquire()
            entered.append(name)
            lock.release()
        return proc

    sim.process(holder(sim))
    waiter = sim.process(waits("killed")(sim))
    later = sim.process(waits("later")(sim))
    sim.run(until=0.5)
    if not handed_over:
        waiter.interrupt("killed")
    sim.run()
    assert entered == ["later"] and later.triggered
    assert not lock.locked and lock.waiters == 0
