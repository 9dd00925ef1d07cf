"""Timer cancellation, tombstone compaction and dispatch order (repro.sim.scheduler).

The kernel cancels timers lazily: ``Event.cancel()`` leaves a tombstone in
the immediate lane or the heap that the scheduler drops when it reaches a
front, and compacts away (filter, then heapify) once enough of them
accumulate.  These tests pin down the semantics (a cancelled timer never
fires, cancellation is idempotent), the memory bound (a churn storm of
cancel-heavy timers must not grow the queue without bound), the dispatch
order every seeded artifact relies on (``(fire time, creation order)``, also
across compactions), plus the one production consumer that relies on
retraction: the RPC layer cancelling a request's watchdog when the response
arrives first.
"""

import random

from repro.net import Address, ConstantLatency, Network
from repro.net.rpc import RpcAgent
from repro.sim.scheduler import Simulator


# --------------------------------------------------------------- semantics --


def test_cancelled_timer_never_fires():
    sim = Simulator()
    fired = []
    timer = sim.timeout(5.0)
    timer.add_callback(lambda event: fired.append(event))
    assert timer.cancel() is True
    sim.run(until=10.0)
    assert fired == []
    assert timer.cancelled is True
    assert sim.pending_events == 0


def test_cancel_is_idempotent_and_refused_after_firing():
    sim = Simulator()
    timer = sim.timeout(1.0)
    assert timer.cancel() is True
    assert timer.cancel() is False  # already cancelled

    fired_timer = sim.timeout(1.0)
    sim.run(until=2.0)
    assert fired_timer.processed
    assert fired_timer.cancel() is False  # too late, it already fired


def test_cancelled_event_refuses_new_callbacks():
    sim = Simulator()
    timer = sim.timeout(1.0)
    timer.cancel()
    called = []
    timer.add_callback(lambda event: called.append(event))
    sim.run(until=2.0)
    assert called == []


def test_cancelling_one_timer_leaves_siblings_untouched():
    sim = Simulator()
    fired = []
    timers = [sim.timeout(1.0 + index * 0.001) for index in range(50)]
    for timer in timers:
        timer.add_callback(fired.append)
    for timer in timers[::2]:
        timer.cancel()
    sim.run(until=5.0)
    assert fired == timers[1::2]  # survivors fire in schedule order
    assert sim.pending_events == 0


def test_pending_events_excludes_tombstones():
    sim = Simulator()
    timers = [sim.timeout(10.0) for _ in range(20)]
    assert sim.pending_events == 20
    for timer in timers[:15]:
        timer.cancel()
    assert sim.pending_events == 5
    assert sim.tombstones == 15


# --------------------------------------------------------- churn-storm bound --


def test_churn_storm_of_cancelled_timers_is_compacted():
    """Regression: a cancel-heavy churn storm must not grow the queue.

    Before lazy cancellation + compaction the kernel kept every dead timer
    until its expiry, so queue size scaled with *scheduled* timers instead
    of *live* ones.  After each storm round the tombstone count must stay
    within one compaction threshold, and the queue must never hold more
    than live + threshold entries.
    """
    sim = Simulator()
    rounds, per_round = 40, 600  # 24k cancellations through a 1024 threshold
    for round_index in range(rounds):
        timers = [sim.timeout(300.0 + index * 1e-4) for index in range(per_round)]
        for timer in timers:
            timer.cancel()
        # A handful of live timers stay in flight across rounds.
        keeper = sim.timeout(300.0)
        keeper.add_callback(lambda _event: None)
        sim.run(until=sim.now + 0.01)
        assert sim.tombstones <= 2 * Simulator.COMPACT_MIN_TOMBSTONES
        assert sim.pending_events == round_index + 1  # only the keepers
    # Run the clock out: the keepers fire, nothing cancelled ever does.
    sim.run(until=sim.now + 400.0)
    assert sim.pending_events == 0
    assert sim.tombstones == 0
    assert sim.processed_events == rounds  # the keepers, and nothing dead


def test_interleaved_cancel_and_fire_storm_keeps_order():
    """Cancelling inside callbacks (the watchdog-reset pattern) stays sound."""
    sim = Simulator()
    fired = []

    def rearm(label, generation):
        if generation == 0:
            fired.append(label)
            return
        timer = sim.timeout(0.5)
        timer.add_callback(lambda _event: rearm(label, generation - 1))
        shadow = sim.timeout(0.25)  # cancelled from inside the callback chain
        shadow.add_callback(lambda _event: fired.append(("shadow", label)))
        shadow.cancel()

    for label in range(100):
        rearm(label, generation=5)
    sim.run(until=10.0)
    assert fired == list(range(100))
    assert sim.pending_events == 0


# ------------------------------------------------------------ dispatch order --


def test_dispatch_order_is_fire_time_then_creation_order():
    """Seeded property: timers with zero, shared and random delays, created
    and cancelled from inside each other's callbacks, fire in ``(fire time,
    creation order)`` order — every timer that was not cancelled, and no
    other — across several tombstone compactions."""

    class CountingSimulator(Simulator):
        compactions = 0

        def _compact(self):
            self.compactions += 1
            super()._compact()

    sim = CountingSimulator()
    rng = random.Random(34)
    budget = 12_000
    created = []      # (fire time, creation index) of every timer
    timers = []       # creation index -> timer
    pending = []      # creation indexes not yet fired nor cancelled
    slot = {}         # creation index -> its position in ``pending``
    cancelled = set()
    fired = []

    def forget(index):
        last = pending.pop()
        if last != index:
            pending[slot[index]] = last
            slot[last] = slot[index]
        del slot[index]

    def create():
        draw = rng.random()
        if draw < 0.25:
            delay = 0.0
        elif draw < 0.5:
            delay = 1.0  # many timers share a fire time
        else:
            delay = rng.uniform(0.0, 5.0)
        index = len(created)
        created.append((sim.now + delay, index))
        timer = sim.timeout(delay)
        timer.add_callback(lambda _event: on_fire(index))
        timers.append(timer)
        slot[index] = len(pending)
        pending.append(index)

    def on_fire(index):
        fired.append(index)
        forget(index)
        for _ in range(rng.randint(0, 4)):
            if len(created) < budget:
                create()
        for _ in range(rng.randint(0, 3)):
            if pending:
                victim = pending[rng.randrange(len(pending))]
                assert timers[victim].cancel()
                cancelled.add(victim)
                forget(victim)

    for _ in range(3000):
        create()
    sim.run()

    assert len(created) == budget
    assert len(cancelled) > 3 * Simulator.COMPACT_MIN_TOMBSTONES
    assert sim.compactions >= 3
    assert fired == [index for _when, index in sorted(created) if index not in cancelled]
    assert sim.pending_events == 0 and sim.tombstones == 0


# ------------------------------------------------------------ RPC retraction --


def test_rpc_response_retracts_timeout_watchdog():
    """A settled request must cancel its watchdog, not let it expire."""
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.005))
    client = RpcAgent(sim, network, Address("client"))
    server = RpcAgent(sim, network, Address("server"))
    server.expose("ping", lambda payload: payload + 1)

    replies = []

    def exchange():
        for value in range(200):
            reply = yield client.call(server.address, "ping", timeout=30.0,
                                      payload=value)
            replies.append(reply)

    sim.run(until=sim.process(exchange()))
    assert replies == [value + 1 for value in range(200)]
    # Every watchdog was retracted the moment its response arrived...
    assert client._timers == {}
    assert client._pending == {}
    # ...so no 30s timers linger: the queue drains well before the timeout.
    sim.run(until=sim.now + 60.0)
    assert sim.pending_events == 0


def test_rpc_offline_cancels_all_watchdogs():
    sim = Simulator(seed=2)
    network = Network(sim, latency=ConstantLatency(0.005))
    client = RpcAgent(sim, network, Address("client"))
    silent = Address("silent")  # never registered: requests just hang

    futures = [client.call(silent, "ping", timeout=120.0) for _ in range(25)]
    assert len(client._timers) == 25
    client.go_offline()
    assert client._timers == {}
    assert all(future.triggered for future in futures)
    sim.run(until=sim.now + 130.0)
    assert sim.pending_events == 0
