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

