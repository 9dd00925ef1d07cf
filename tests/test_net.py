"""Unit tests for the simulated network substrate (repro.net)."""

import random

import pytest

from repro.core import LtrSystem
from repro.errors import NodeUnreachable, RequestTimeout, UnknownRpcMethod
from repro.net import (
    Address,
    ConstantLatency,
    LogNormalLatency,
    Message,
    MessageKind,
    Network,
    PairwiseLatency,
    PartitionManager,
    PerturbationWindow,
    RpcAgent,
    SiteAwareLatency,
    UniformLatency,
    latency_preset,
    make_addresses,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


def test_make_addresses_names_and_count():
    addresses = make_addresses(3, prefix="node")
    assert [a.name for a in addresses] == ["node-0", "node-1", "node-2"]
    assert all(a.site == "default" for a in addresses)


def test_make_addresses_negative_count_rejected():
    with pytest.raises(ValueError):
        make_addresses(-1)


def test_address_str_includes_site_when_not_default():
    assert str(Address("p", "eu")) == "p@eu"
    assert str(Address("p")) == "p"


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


def test_constant_latency():
    model = ConstantLatency(0.05)
    rng = random.Random(0)
    a, b = Address("a"), Address("b")
    assert model.sample(rng, a, b) == 0.05
    assert model.mean() == 0.05


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-0.1)


def test_uniform_latency_within_bounds():
    model = UniformLatency(0.01, 0.02)
    rng = random.Random(0)
    a, b = Address("a"), Address("b")
    samples = [model.sample(rng, a, b) for _ in range(100)]
    assert all(0.01 <= s <= 0.02 for s in samples)


def test_uniform_latency_invalid_range():
    with pytest.raises(ValueError):
        UniformLatency(0.02, 0.01)


def test_lognormal_latency_positive():
    model = LogNormalLatency(0.02, 0.5)
    rng = random.Random(1)
    a, b = Address("a"), Address("b")
    assert all(model.sample(rng, a, b) > 0 for _ in range(50))
    assert model.mean() > 0.02  # lognormal mean exceeds the median


def test_site_aware_latency_distinguishes_sites():
    model = SiteAwareLatency(local=ConstantLatency(0.001), remote=ConstantLatency(0.1))
    rng = random.Random(0)
    same = model.sample(rng, Address("a", "s1"), Address("b", "s1"))
    cross = model.sample(rng, Address("a", "s1"), Address("b", "s2"))
    assert same == 0.001
    assert cross == 0.1


def test_pairwise_latency_table_and_fallback():
    model = PairwiseLatency({("a", "b"): 0.5}, fallback=ConstantLatency(0.01))
    rng = random.Random(0)
    assert model.sample(rng, Address("a"), Address("b")) == 0.5
    assert model.sample(rng, Address("b"), Address("a")) == 0.01


def test_latency_presets_known_and_unknown():
    for name in ("lan", "campus", "wan", "intercontinental"):
        assert latency_preset(name).mean() > 0
    with pytest.raises(ValueError):
        latency_preset("dialup")


def test_latency_preset_scaling():
    assert latency_preset("lan", scale=10).mean() == pytest.approx(
        10 * latency_preset("lan").mean()
    )


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_partition_manager_split_and_heal():
    manager = PartitionManager()
    a, b, c = Address("a"), Address("b"), Address("c")
    assert manager.allows(a, b)
    manager.split([[a], [b]])
    assert manager.active
    assert not manager.allows(a, b)
    assert manager.allows(a, a)
    # c is in the implicit extra group: cannot reach a or b
    assert not manager.allows(a, c)
    manager.heal()
    assert manager.allows(a, b)


class _Inbox:
    def __init__(self):
        self.received = []

    def deliver(self, message):
        self.received.append(message)


def _oneway_network(seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=ConstantLatency(0.01))
    inbox = _Inbox()
    network.register(Address("a"), _Inbox())
    network.register(Address("b"), inbox)
    return sim, network, inbox


def _ping():
    return Message(Address("a"), Address("b"), MessageKind.ONEWAY, "ping")


def test_healthy_network_never_drops():
    sim, network, inbox = _oneway_network()
    for _ in range(200):
        network.send(_ping())
    sim.run()
    assert len(inbox.received) == 200
    assert network.stats.dropped == 0


def test_drop_window_statistics():
    sim, network, inbox = _oneway_network()
    network.begin_perturbation(PerturbationWindow(drop_probability=0.5))
    for _ in range(1000):
        network.send(_ping())
    sim.run()
    drops = network.perturb_stats["dropped"]
    assert 400 < drops < 600
    assert network.stats.dropped == drops
    assert len(inbox.received) == 1000 - drops


def test_perturbation_window_validation():
    with pytest.raises(ValueError):
        PerturbationWindow(drop_probability=1.5)
    with pytest.raises(ValueError):
        PerturbationWindow(duplicate_probability=-0.1)
    with pytest.raises(ValueError):
        PerturbationWindow(reorder_jitter=-1.0)
    assert PerturbationWindow().quiet
    assert not PerturbationWindow(drop_probability=0.1).quiet


# ---------------------------------------------------------------------------
# Transport + RPC
# ---------------------------------------------------------------------------


def _build_pair(latency=0.01):
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(latency))
    a = RpcAgent(sim, network, Address("a"))
    b = RpcAgent(sim, network, Address("b"))
    return sim, network, a, b


def test_rpc_round_trip_and_latency_accounting():
    sim, _network, a, b = _build_pair(latency=0.01)
    b.expose("add", lambda x, y: x + y)

    def caller(sim):
        result = yield a.call(b.address, "add", x=2, y=3)
        return result, sim.now

    result, finished_at = sim.run_process(caller(sim))
    assert result == 5
    assert finished_at == pytest.approx(0.02)  # one round trip = 2 * latency


def test_rpc_remote_exception_propagates():
    sim, _network, a, b = _build_pair()

    def broken():
        raise ValueError("remote failure")

    b.expose("broken", broken)

    def caller(sim):
        try:
            yield a.call(b.address, "broken")
        except ValueError as exc:
            return str(exc)
        return None

    assert sim.run_process(caller(sim)) == "remote failure"


def test_rpc_unknown_method():
    sim, _network, a, b = _build_pair()

    def caller(sim):
        try:
            yield a.call(b.address, "missing")
        except UnknownRpcMethod:
            return "unknown"
        return None

    assert sim.run_process(caller(sim)) == "unknown"


def test_rpc_timeout_on_crashed_destination():
    sim, network, a, b = _build_pair()
    b.expose("ping", lambda: "pong")
    b.go_offline(crash=True)

    def caller(sim):
        try:
            yield a.call(b.address, "ping", timeout=0.5)
        except RequestTimeout:
            return sim.now
        return None

    assert sim.run_process(caller(sim)) == pytest.approx(0.5)
    assert network.has_crashed(b.address)


def test_rpc_generator_handler_performs_nested_calls():
    sim, _network, a, b = _build_pair()
    c = RpcAgent(sim, Network(sim), Address("c"))  # separate net not used; reuse b's
    # Use the same network for c:
    c = RpcAgent(sim, _network, Address("c"))
    c.expose("leaf", lambda: "leaf-value")

    def relay():
        value = yield b.call(c.address, "leaf")
        return f"relayed:{value}"

    b.expose("relay", relay)

    def caller(sim):
        result = yield a.call(b.address, "relay")
        return result

    assert sim.run_process(caller(sim)) == "relayed:leaf-value"


def test_request_helper_retries_until_peer_returns():
    sim, network, a, b = _build_pair()
    calls = {"count": 0}

    def flaky():
        calls["count"] += 1
        return "ok"

    b.expose("flaky", flaky)
    b.go_offline(crash=True)

    def revive(sim):
        yield sim.timeout(0.3)
        b.go_online()

    def caller(sim):
        result = yield from a.request(b.address, "flaky", timeout=0.2, retries=3)
        return result

    sim.process(revive(sim))
    assert sim.run_process(caller(sim)) == "ok"
    assert calls["count"] == 1


def test_request_helper_exhausts_retries():
    sim, _network, a, b = _build_pair()
    b.go_offline(crash=True)

    def caller(sim):
        try:
            yield from a.request(b.address, "ping", timeout=0.1, retries=2)
        except RequestTimeout:
            return "gave up"
        return None

    assert sim.run_process(caller(sim)) == "gave up"


def test_call_from_offline_agent_fails_fast():
    sim, _network, a, b = _build_pair()
    b.expose("ping", lambda: "pong")
    a.go_offline()

    def caller(sim):
        try:
            yield a.call(b.address, "ping")
        except NodeUnreachable:
            return "unreachable"
        return None

    assert sim.run_process(caller(sim)) == "unreachable"


def test_oneway_notify_delivered():
    sim, _network, a, b = _build_pair()
    received = []
    b.expose("event", lambda value: received.append(value))

    def caller(sim):
        a.notify(b.address, "event", value=7)
        yield sim.timeout(0.1)

    sim.run_process(caller(sim))
    assert received == [7]


def test_expose_object_rpc_prefix():
    sim, _network, a, b = _build_pair()

    class Service:
        def rpc_hello(self, name):
            return f"hello {name}"

        def not_exposed(self):  # pragma: no cover - should never be called remotely
            return "hidden"

    b.expose_object(Service())
    assert "hello" in b.handlers()
    assert "not_exposed" not in b.handlers()

    def caller(sim):
        result = yield a.call(b.address, "hello", name="world")
        return result

    assert sim.run_process(caller(sim)) == "hello world"


class _Counter:
    """A service whose answers depend on the instance's own state."""

    rpc_version = 3  # an ``rpc_`` name that is not a method: never exposed

    def __init__(self, name):
        self.name = name

    def rpc_whoami(self):
        return self.name


class _LoudCounter(_Counter):
    def rpc_shout(self):
        return self.name.upper()


def _agents(count):
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.01))
    agents = [RpcAgent(sim, network, Address(f"agent-{index}")) for index in range(count)]
    return sim, agents


def test_expose_object_subclass_adds_its_own_handlers():
    _sim, (base, loud) = _agents(2)
    base.expose_object(_Counter("x"))
    loud.expose_object(_LoudCounter("y"))
    assert base.handlers() == ["whoami"]
    assert loud.handlers() == ["shout", "whoami"]


def test_expose_object_binds_each_instance():
    sim, (caller, first, second) = _agents(3)
    first.expose_object(_Counter("first"), prefix="c_")
    second.expose_object(_Counter("second"), prefix="c_")

    def ask(sim):
        one = yield caller.call(first.address, "c_whoami")
        two = yield caller.call(second.address, "c_whoami")
        return one, two

    assert sim.run_process(ask(sim)) == ("first", "second")


def test_expose_object_skips_non_callable_rpc_attributes():
    _sim, (agent,) = _agents(1)
    counter = _Counter("x")
    counter.rpc_whoami = "not a method"  # shadows the method on this object
    agent.expose_object(counter)
    assert agent.handlers() == []


def test_expose_object_binds_a_method_replaced_after_the_first_object(monkeypatch):
    sim, (caller, before, after) = _agents(3)
    before.expose_object(_Counter("before"))
    original = _Counter.rpc_whoami
    monkeypatch.setattr(_Counter, "rpc_whoami",
                        lambda self: f"wrapped {original(self)}")
    after.expose_object(_Counter("after"))

    def ask(sim):
        old = yield caller.call(before.address, "whoami")
        new = yield caller.call(after.address, "whoami")
        return old, new

    assert sim.run_process(ask(sim)) == ("before", "wrapped after")


def test_ltr_peer_handlers_are_pinned():
    system = LtrSystem(seed=1)
    names = system.bootstrap(4, warm=True)
    for name in names:
        assert system.ring.node(name).rpc.handlers() == [
            "delete", "delete_value", "fetch", "fetch_many", "find_successor",
            "get_predecessor", "get_successor_list", "handoff_keys",
            "kts_advance_ts", "kts_gen_ts", "kts_last_ts", "kts_managed_keys",
            "kts_next_timestamps", "ltr_catch_up", "ltr_validate_and_publish",
            "notify", "ping", "receive_items", "store", "store_many",
            "successor_leaving",
        ]


def test_network_partition_blocks_rpc():
    sim, network, a, b = _build_pair()
    b.expose("ping", lambda: "pong")
    network.partitions.split([[a.address], [b.address]])

    def caller(sim):
        try:
            yield a.call(b.address, "ping", timeout=0.2)
        except RequestTimeout:
            return "partitioned"
        return None

    assert sim.run_process(caller(sim)) == "partitioned"
    network.partitions.heal()

    def caller_after_heal(sim):
        result = yield a.call(b.address, "ping", timeout=0.2)
        return result

    assert sim.run_process(caller_after_heal(sim)) == "pong"


def test_network_stats_accounting():
    sim, network, a, b = _build_pair()
    b.expose("ping", lambda: "pong")

    def caller(sim):
        yield a.call(b.address, "ping")

    sim.run_process(caller(sim))
    stats = network.stats.snapshot()
    assert stats["sent"] == 2  # request + response
    assert stats["delivered"] == 2
    assert stats["dropped"] == 0
    assert stats["per_method"]["ping"] == 2
    assert stats["bytes_sent"] > 0


def test_message_reply_only_for_requests():
    message = Message(Address("a"), Address("b"), MessageKind.ONEWAY, "ping")
    with pytest.raises(ValueError):
        message.reply("nope", sent_at=0.0)


def test_crash_drops_inflight_messages():
    sim, network, a, b = _build_pair(latency=0.05)
    b.expose("ping", lambda: "pong")

    def crasher(sim):
        yield sim.timeout(0.01)
        b.go_offline(crash=True)

    def caller(sim):
        try:
            yield a.call(b.address, "ping", timeout=0.3)
        except RequestTimeout:
            return "timed out"
        return None

    sim.process(crasher(sim))
    assert sim.run_process(caller(sim)) == "timed out"
    assert network.stats.dropped >= 1


def test_silenced_destination_forces_timeouts():
    sim = Simulator(seed=3)
    network = Network(sim, latency=ConstantLatency(0.01))
    a = RpcAgent(sim, network, Address("a"))
    b = RpcAgent(sim, network, Address("b"))
    b.expose("ping", lambda: "pong")
    network.silenced.add("b")

    def caller(sim):
        try:
            yield a.call(b.address, "ping", timeout=0.2)
        except RequestTimeout:
            return "lost"
        return None

    assert sim.run_process(caller(sim)) == "lost"


def test_silenced_caller_loses_the_reply_to_its_own_request():
    """Silence drops every message *to* a peer, replies included."""
    sim, network, a, b = _build_pair()
    served = []
    b.expose("ping", lambda: served.append("ping") or "pong")
    network.silenced.add("a")

    def caller(sim):
        try:
            yield a.call(b.address, "ping", timeout=0.2)
        except RequestTimeout:
            return "lost"
        return None

    assert sim.run_process(caller(sim)) == "lost"
    assert served == ["ping"]
    assert network.stats.dropped == 1
