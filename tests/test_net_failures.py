"""Failure-model coverage for the simulated network (repro.net).

Focuses on the failure mechanisms ``Network.send`` combines — partitions,
silenced destinations, crashed/unknown destinations — and on the
statistics each path records.
"""

from repro.net import (
    Address,
    ConstantLatency,
    Message,
    MessageKind,
    Network,
    PartitionManager,
    PerturbationWindow,
)
from repro.sim import Simulator


class RecordingEndpoint:
    """Collects every delivered message."""

    def __init__(self):
        self.received = []

    def deliver(self, message):
        self.received.append(message)


def build_network():
    sim = Simulator(seed=2)
    network = Network(sim, latency=ConstantLatency(0.01))
    endpoints = {}
    for name in ("a", "b", "c"):
        endpoint = RecordingEndpoint()
        network.register(Address(name), endpoint)
        endpoints[name] = endpoint
    return sim, network, endpoints


def message(source: str, destination: str) -> Message:
    return Message(Address(source), Address(destination), MessageKind.ONEWAY, "ping")


# ------------------------------------------------------------- partitions --


def test_partition_manager_split_allows_and_heal():
    manager = PartitionManager()
    a, b, c = Address("a"), Address("b"), Address("c")
    assert not manager.active
    assert manager.allows(a, b)
    manager.split([[a], [b]])
    assert manager.active
    assert not manager.allows(a, b)
    assert manager.allows(a, a)
    manager.heal()
    assert not manager.active
    assert manager.allows(a, b)


def test_partition_manager_unlisted_addresses_form_implicit_group():
    manager = PartitionManager()
    a, b, c, d = Address("a"), Address("b"), Address("c"), Address("d")
    manager.split([[a, b]])
    # c and d are unlisted: they can talk to each other but not to a/b.
    assert manager.allows(c, d)
    assert manager.allows(a, b)
    assert not manager.allows(a, c)
    assert not manager.allows(d, b)


def test_network_send_drops_messages_crossing_a_partition():
    sim, network, endpoints = build_network()
    network.partitions.split([[Address("a")], [Address("b")]])
    network.send(message("a", "b"))
    assert network.stats.dropped == 1
    sim.run()
    assert endpoints["b"].received == []
    # Same-side traffic still flows while the partition is active.
    network.send(message("b", "b"))
    # After healing, cross-group traffic flows again.
    network.partitions.heal()
    network.send(message("a", "b"))
    sim.run()
    assert len(endpoints["b"].received) == 2
    assert network.stats.snapshot()["dropped"] == 1


# ------------------------------------------------------- silenced peers --


def test_network_send_drops_every_message_to_a_silenced_peer():
    """A silent owner: nothing reaches it, it still sends, it is still up."""
    sim, network, endpoints = build_network()
    network.silenced.add("b")
    network.send(message("a", "b"))
    network.send(message("c", "b"))
    network.send(message("b", "a"))
    sim.run()
    assert endpoints["b"].received == []
    assert len(endpoints["a"].received) == 1
    assert network.is_up(Address("b"))
    assert network.stats.snapshot()["dropped"] == 2
    network.silenced.discard("b")
    network.send(message("a", "b"))
    sim.run()
    assert len(endpoints["b"].received) == 1


def test_a_full_drop_window_loses_every_send_until_it_ends():
    """Probabilistic loss is a perturbation window, counted in both tables."""
    sim, network, endpoints = build_network()
    network.begin_perturbation(PerturbationWindow(drop_probability=1.0))
    network.send(message("a", "b"))
    network.send(message("b", "a"))
    sim.run()
    assert endpoints["a"].received == [] and endpoints["b"].received == []
    assert network.perturb_stats["dropped"] == 2
    assert network.stats.dropped == 2
    network.end_perturbation()
    network.send(message("a", "b"))
    sim.run()
    assert len(endpoints["b"].received) == 1


# ------------------------------------------- crashed / unknown destinations --


def test_send_to_crashed_destination_is_accepted_then_silently_dropped():
    """UDP semantics: the sender cannot tell a dead host from a slow one."""
    sim, network, endpoints = build_network()
    network.crash(Address("b"))
    assert network.has_crashed(Address("b"))
    network.send(message("a", "b"))
    assert network.stats.dropped == 0  # accepted by the network...
    sim.run()
    assert endpoints["b"].received == []  # ...but never handed to an endpoint
    assert network.stats.snapshot()["dropped"] == 1


def test_inflight_message_lost_when_destination_crashes_mid_flight():
    sim, network, endpoints = build_network()
    network.send(message("a", "b"))  # in flight for 10 ms
    network.crash(Address("b"))  # crashes before delivery
    sim.run()
    assert endpoints["b"].received == []
    assert network.stats.snapshot()["dropped"] == 1


def test_send_from_unregistered_source_is_refused():
    sim, network, endpoints = build_network()
    network.send(message("ghost", "b"))
    assert network.stats.dropped == 1
    sim.run()
    assert endpoints["b"].received == []


def test_reregistering_a_crashed_address_restores_delivery():
    sim, network, endpoints = build_network()
    network.crash(Address("b"))
    revived = RecordingEndpoint()
    network.register(Address("b"), revived)
    assert not network.has_crashed(Address("b"))
    network.send(message("a", "b"))
    sim.run()
    assert len(revived.received) == 1


def test_traffic_stats_record_the_outcome_of_every_send():
    """``send`` returns nothing; the stats are the one record of each path."""
    sim, network, endpoints = build_network()
    network.silenced.add("c")
    network.crash(Address("b"))
    assert network.send(message("a", "a")) is None  # delivered
    network.send(message("a", "c"))  # silenced
    network.send(message("a", "b"))  # accepted, lost at the crashed host
    network.send(message("ghost", "a"))  # unregistered source
    sim.run()
    snapshot = network.stats.snapshot()
    assert snapshot["sent"] == 4
    assert snapshot["delivered"] == 1
    assert snapshot["dropped"] == 3
    assert len(endpoints["a"].received) == 1
