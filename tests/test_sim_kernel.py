"""Unit tests for the discrete-event simulation kernel (repro.sim)."""

import pytest

from repro.errors import (
    EventAlreadyTriggered,
    ProcessInterrupted,
    SimulationDeadlock,
    SimulationError,
)
from repro.sim import RandomStreams, Simulator, derive_seed


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.processed_events == 0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    result = sim.run_process(proc(sim))
    assert result == 2.5
    assert sim.now == 2.5


def test_timeout_value_is_passed_back():
    sim = Simulator()

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        return value

    assert sim.run_process(proc(sim)) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def make(delay, label):
        def proc(sim):
            yield sim.timeout(delay)
            order.append(label)
        return proc

    sim.process(make(3, "c")(sim))
    sim.process(make(1, "a")(sim))
    sim.process(make(2, "b")(sim))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(label):
        def inner(sim):
            yield sim.timeout(1)
            order.append(label)
        return inner

    for label in ["first", "second", "third"]:
        sim.process(proc(label)(sim))
    sim.run()
    assert order == ["first", "second", "third"]


def test_process_waits_on_other_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(4)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        return value * 2

    assert sim.run_process(parent(sim)) == 84
    assert sim.now == 4


def test_future_succeed_and_value():
    sim = Simulator()
    future = sim.future()

    def producer(sim):
        yield sim.timeout(1)
        future.succeed("result")

    def consumer(sim):
        value = yield future
        return value

    sim.process(producer(sim))
    assert sim.run_process(consumer(sim)) == "result"


def test_future_fail_raises_in_waiter():
    sim = Simulator()
    future = sim.future()

    def producer(sim):
        yield sim.timeout(1)
        future.fail(RuntimeError("boom"))

    def consumer(sim):
        try:
            yield future
        except RuntimeError as exc:
            return str(exc)
        return "no exception"

    sim.process(producer(sim))
    assert sim.run_process(consumer(sim)) == "boom"


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        event.fail(RuntimeError())


def test_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1, value="a")
        t2 = sim.timeout(3, value="b")
        result = yield sim.all_of([t1, t2])
        return result.values()

    assert sim.run_process(proc(sim)) == ["a", "b"]
    assert sim.now == 3


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1, value="fast")
        t2 = sim.timeout(10, value="slow")
        result = yield sim.any_of([t1, t2])
        return result.values()

    assert sim.run_process(proc(sim)) == ["fast"]
    assert sim.now == 1


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        result = yield sim.all_of([])
        return len(result)

    assert sim.run_process(proc(sim)) == 0


def test_run_until_time():
    sim = Simulator()
    ticks = []

    def ticker(sim):
        while True:
            yield sim.timeout(1)
            ticks.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=5)
    assert ticks == [1, 2, 3, 4, 5]


def test_run_until_time_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5
    # A later target keeps advancing; an earlier one never rewinds.
    sim.run(until=10.0)
    assert sim.now == 10.0
    sim.run(until=3.0)
    assert sim.now == 10.0


def test_run_until_time_with_sparse_queue_lands_exactly_on_limit():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(2.0)
        fired.append(sim.now)
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc(sim))
    # The first event (t=2) is before the limit, the second (t=12) after it:
    # the clock must stop exactly at the limit, not at either event time.
    sim.run(until=5.0)
    assert fired == [2.0]
    assert sim.now == 5.0
    sim.run()
    assert fired == [2.0, 12.0]
    assert sim.now == 12.0


def test_run_until_event_deadlock_detection():
    sim = Simulator()
    never = sim.future()
    with pytest.raises(SimulationDeadlock):
        sim.run(until=never)


def test_process_yielding_non_event_fails():
    sim = Simulator(fail_silently=True)

    def bad(sim):
        yield "not an event"

    proc = sim.process(bad(sim))
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_process_exception_propagates_to_waiter():
    sim = Simulator(fail_silently=True)

    def failing(sim):
        yield sim.timeout(1)
        raise ValueError("inner failure")

    def waiter(sim):
        try:
            yield sim.process(failing(sim))
        except ValueError as exc:
            return f"caught {exc}"
        return "not caught"

    assert sim.run_process(waiter(sim)) == "caught inner failure"


def test_crashed_processes_recorded():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1)
        raise ValueError("recorded")

    sim.process(failing(sim))
    sim.run()
    assert len(sim.crashed_processes) == 1
    _proc, exc = sim.crashed_processes[0]
    assert isinstance(exc, ValueError)


def test_interrupt_wakes_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except ProcessInterrupted as interrupt:
            log.append(interrupt.cause)
        return "interrupted"

    def interrupter(sim, target):
        yield sim.timeout(2)
        target.interrupt(cause="wake up")

    target = sim.process(sleeper(sim))
    sim.process(interrupter(sim, target))
    sim.run(until=target)
    assert target.value == "interrupted"
    assert log == ["wake up"]
    assert sim.now == pytest.approx(2)


def test_interrupt_terminated_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)
        return "done"

    proc = sim.process(quick(sim))
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()
    assert proc.value == "done"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_rng_streams_are_deterministic():
    a = RandomStreams(42)
    b = RandomStreams(42)
    assert [a.stream("x").random() for _ in range(5)] == [
        b.stream("x").random() for _ in range(5)
    ]


def test_rng_streams_are_independent():
    streams = RandomStreams(42)
    x_values = [streams.stream("x").random() for _ in range(5)]
    streams2 = RandomStreams(42)
    _ = [streams2.stream("y").random() for _ in range(100)]
    x_values2 = [streams2.stream("x").random() for _ in range(5)]
    assert x_values == x_values2


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_rng_streams_are_namespaced_by_name():
    """Per-peer streams are plain name prefixes: one generator per name."""
    streams = RandomStreams(7)
    peer_a = streams.stream("peer-a/lat")
    assert peer_a is streams.stream("peer-a/lat")
    assert peer_a.random() != streams.stream("peer-b/lat").random()
    assert (
        RandomStreams(7).stream("peer-a/lat").random()
        != RandomStreams(8).stream("peer-a/lat").random()
    )
