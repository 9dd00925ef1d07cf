"""Tests for the real-socket transport and the wire-fidelity bug class.

Two groups:

* ``WireNetwork`` over Unix-domain sockets — two networks on one asyncio
  loop, RPC crossing the codec path end to end, typed errors surviving the
  trip, and the stats counters that the cluster health report surfaces.
* Payload-aliasing regressions on the simulated transport — the bug class
  the wire codec exposed: by-reference delivery let a receiver mutate the
  sender's state through a shared payload, which a real network can never
  do.  The default ``"copy"`` fidelity severs that per *delivery* (a
  perturbation duplicate must be independent of its original too).
"""

import pytest

from repro.errors import ConfigurationError, RequestTimeout, StaleTimestamp
from repro.net import (
    Address,
    ConstantLatency,
    Message,
    MessageKind,
    Network,
    PerturbationWindow,
    RpcAgent,
    WireEndpoint,
    WireNetwork,
)
from repro.net.rpc import REQUEST_ID_LIMIT
from repro.runtime import AsyncioRuntime, SimRuntime
from repro.sim import Simulator


@pytest.fixture
def runtime():
    instance = AsyncioRuntime(seed=7, run_guard=30.0)
    yield instance
    instance.close()


# ---------------------------------------------------------------------------
# WireEndpoint
# ---------------------------------------------------------------------------


def test_endpoint_parse_render_round_trip():
    tcp = WireEndpoint.parse("tcp://10.0.0.5:9000")
    assert (tcp.scheme, tcp.host, tcp.port) == ("tcp", "10.0.0.5", 9000)
    assert tcp.render() == "tcp://10.0.0.5:9000"
    uds = WireEndpoint.parse("uds:///run/peer0.sock")
    assert (uds.scheme, uds.path) == ("uds", "/run/peer0.sock")
    assert WireEndpoint.parse(uds) is uds  # idempotent
    assert str(uds) == "uds:///run/peer0.sock"


@pytest.mark.parametrize(
    "spec",
    ["http://x:1", "tcp://nohost", "tcp://host:notaport", "peer0.sock"],
)
def test_endpoint_malformed_specs_rejected(spec):
    with pytest.raises(ConfigurationError):
        WireEndpoint.parse(spec)


def test_endpoint_field_validation():
    with pytest.raises(ConfigurationError):
        WireEndpoint("carrier-pigeon")
    with pytest.raises(ConfigurationError):
        WireEndpoint("tcp", port=80)  # no host
    with pytest.raises(ConfigurationError):
        WireEndpoint("uds")  # no path


# ---------------------------------------------------------------------------
# WireNetwork over Unix-domain sockets (two processes' worth on one loop)
# ---------------------------------------------------------------------------


def _build_wire_pair(runtime, tmp_path):
    spec_a = f"uds://{tmp_path}/a.sock"
    spec_b = f"uds://{tmp_path}/b.sock"
    routes = {"a": spec_a, "b": spec_b}
    network_a = WireNetwork(
        runtime, process_name="proc-a", listen=spec_a, routes=routes,
        latency=ConstantLatency(0.0005), default_timeout=2.0,
    )
    network_b = WireNetwork(
        runtime, process_name="proc-b", listen=spec_b, routes=routes,
        latency=ConstantLatency(0.0005), default_timeout=2.0,
    )
    network_a.start()
    network_b.start()
    agent_a = RpcAgent(runtime, network_a, Address("a"))
    agent_b = RpcAgent(runtime, network_b, Address("b"))
    return network_a, network_b, agent_a, agent_b


def test_wire_rpc_round_trip_over_uds(runtime, tmp_path):
    network_a, network_b, agent_a, agent_b = _build_wire_pair(runtime, tmp_path)
    try:
        agent_b.expose("add", lambda x, y: x + y)

        def caller():
            total = yield agent_a.call(agent_b.address, "add", x=2, y=3)
            return total

        assert runtime.run(until=runtime.process(caller())) == 5
        assert network_a.wire_stats["frames_out"] >= 1
        assert network_b.wire_stats["frames_in"] >= 1
        assert network_b.wire_stats["connections_in"] >= 1
        assert network_a.wire_stats["decode_errors"] == 0
    finally:
        network_a.stop()
        network_b.stop()


def test_wire_preserves_big_ints_and_containers(runtime, tmp_path):
    network_a, network_b, agent_a, agent_b = _build_wire_pair(runtime, tmp_path)
    try:
        ring_id = (1 << 159) + 12345  # Chord ids exceed every machine word

        def identity(value):
            return value

        agent_b.expose("identity", identity)

        def caller():
            echoed = yield agent_a.call(
                agent_b.address, "identity",
                value={"id": ring_id, "succ": (1, 2, 3), "tags": {"x", "y"}},
            )
            return echoed

        echoed = runtime.run(until=runtime.process(caller()))
        assert echoed["id"] == ring_id
        assert echoed["succ"] == (1, 2, 3) and isinstance(echoed["succ"], tuple)
        assert echoed["tags"] == {"x", "y"} and isinstance(echoed["tags"], set)
    finally:
        network_a.stop()
        network_b.stop()


def test_wire_typed_error_crosses_process_boundary(runtime, tmp_path):
    network_a, network_b, agent_a, agent_b = _build_wire_pair(runtime, tmp_path)
    try:
        def stale():
            raise StaleTimestamp(7, 9)

        agent_b.expose("stale", stale)

        def caller():
            yield agent_a.call(agent_b.address, "stale")

        with pytest.raises(StaleTimestamp) as excinfo:
            runtime.run(until=runtime.process(caller()))
        # Same class on the caller side, with the remote traceback attached
        # for debugging — the envelope carried it as text, never as code.
        assert "stale" in getattr(excinfo.value, "remote_traceback", "")
    finally:
        network_a.stop()
        network_b.stop()


def test_wire_unroutable_destination_times_out(runtime, tmp_path):
    spec_a = f"uds://{tmp_path}/a.sock"
    network_a = WireNetwork(
        runtime, process_name="proc-a", listen=spec_a,
        routes={"a": spec_a, "ghost": f"uds://{tmp_path}/ghost.sock"},
        latency=ConstantLatency(0.0005),
    )
    network_a.start()
    agent_a = RpcAgent(runtime, network_a, Address("a"))
    try:
        def caller():
            yield agent_a.call(Address("ghost"), "ping", timeout=0.3)

        with pytest.raises(RequestTimeout):
            runtime.run(until=runtime.process(caller()))
        # Nothing listens at the ghost endpoint: no frame ever left, and the
        # link is burning connect retries while the caller's timeout fires.
        assert network_a.wire_stats["connect_failures"] >= 1
        assert network_a.wire_stats["frames_out"] == 0
    finally:
        network_a.stop()


def test_wire_network_rejects_sim_runtime():
    with pytest.raises(ConfigurationError):
        WireNetwork(
            SimRuntime(seed=1), process_name="p", listen="uds:///tmp/p.sock"
        )


# ---------------------------------------------------------------------------
# Payload aliasing: the bug class the wire exposed
# ---------------------------------------------------------------------------


class _Recorder:
    """A network endpoint that just keeps what it was handed."""

    def __init__(self):
        self.received = []

    def deliver(self, message):
        self.received.append(message)


def _send_payload(network, sim, payload):
    """Register a/b, send one request carrying ``payload``, run the clock."""
    sender, receiver = _Recorder(), _Recorder()
    network.register(Address("a"), sender)
    network.register(Address("b"), receiver)
    message = Message(
        source=Address("a"), destination=Address("b"),
        kind=MessageKind.REQUEST, method="edit", payload=payload,
        request_id=1, sent_at=sim.now,
    )
    network.send(message)
    sim.run()
    return receiver.received


def test_default_fidelity_severs_receiver_to_sender_aliasing():
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.01))
    payload = {"ops": [{"kind": "insert", "text": "x"}], "ts": 3}
    (delivered,) = _send_payload(network, sim, payload)
    assert delivered.payload == payload
    # The receiver mutating its copy must never reach the sender's state.
    delivered.payload["ops"].append({"kind": "delete"})
    delivered.payload["ts"] = 99
    assert payload == {"ops": [{"kind": "insert", "text": "x"}], "ts": 3}


def test_perturbation_duplicate_deliveries_are_independent():
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.01))
    network.begin_perturbation(PerturbationWindow(duplicate_probability=1.0))
    payload = {"ops": ["keep"]}
    received = _send_payload(network, sim, payload)
    assert len(received) == 2
    assert network.perturb_stats["duplicated"] == 1
    first, second = received
    # Aliasing is severed per delivery: the duplicate and the original are
    # two datagrams, so mutating one copy must not leak into the other.
    first.payload["ops"].append("mutant")
    assert second.payload == {"ops": ["keep"]}
    assert payload == {"ops": ["keep"]}


# ---------------------------------------------------------------------------
# Request-id hygiene (audit fallout: overflow-safe correlation ids)
# ---------------------------------------------------------------------------


def test_request_ids_wrap_at_the_wire_bound():
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.01))
    agent = RpcAgent(sim, network, Address("a"))
    agent._next_request_id = REQUEST_ID_LIMIT - 1
    assert agent._allocate_request_id() == REQUEST_ID_LIMIT - 1
    # Wrapped back to the bottom of the id space, not past the wire bound.
    assert agent._allocate_request_id() == 1


def test_request_id_wrap_skips_still_pending_ids():
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.01))
    agent = RpcAgent(sim, network, Address("a"))
    agent._pending[1] = sim.future()
    agent._pending[2] = sim.future()
    agent._next_request_id = 1
    # Ids 1 and 2 still have outstanding futures; reusing either would let
    # a stale response settle the wrong call.
    assert agent._allocate_request_id() == 3


def test_reply_requires_explicit_sent_at():
    request = Message(
        source=Address("a"), destination=Address("b"),
        kind=MessageKind.REQUEST, method="ping", request_id=17, sent_at=4.5,
    )
    response = request.reply("pong", sent_at=6.25)
    assert response.kind is MessageKind.RESPONSE
    assert response.request_id == 17
    assert response.sent_at == 6.25
    assert (response.source, response.destination) == (request.destination, request.source)
    with pytest.raises(TypeError):
        request.reply("pong")  # sent_at is not optional
    with pytest.raises(ValueError):
        response.reply("re-pong", sent_at=7.0)  # only requests have replies
