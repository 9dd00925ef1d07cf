"""Warm-ring construction equivalence (ChordRing.bootstrap_warm).

``bootstrap_warm`` wires a converged ring directly in O(N log N) instead of
joining nodes one by one and simulating stabilization.  Its contract is that
the result is indistinguishable from a naturally bootstrapped ring that was
given time to converge: same ring order, same predecessor/successor wiring,
same finger tables, same responsibility map — and a seeded E2-style workload
run on top of either ring must produce byte-identical artifacts.
"""

import random

import pytest

from repro.chord import ChordConfig, ChordRing, hash_to_id
from repro.core import DEFAULT_CHORD_CONFIG, LtrSystem
from repro.engine import ScenarioSpec, run_scenario, write_artifact
from repro.errors import DhtError
from repro.metrics import summarize

PEERS = 16
SEED = 7
#: Simulated seconds a naturally bootstrapped ring runs after stabilizing so
#: every finger table converges to the ideal (bits * fix_fingers_interval,
#: plus slack for the staggered first rounds).
SETTLE = DEFAULT_CHORD_CONFIG.bits * DEFAULT_CHORD_CONFIG.fix_fingers_interval + 5.0


def _names(count=PEERS):
    return [f"peer-{index}" for index in range(count)]


@pytest.fixture(scope="module")
def rings():
    """One naturally-converged ring and one warm-wired ring, same peers."""
    natural = ChordRing(seed=SEED, config=DEFAULT_CHORD_CONFIG)
    natural.bootstrap(_names())
    natural.run_for(SETTLE)
    warm = ChordRing(seed=SEED, config=DEFAULT_CHORD_CONFIG)
    warm.bootstrap_warm(_names())
    return natural, warm


def test_ring_order_matches(rings):
    natural, warm = rings
    assert warm.ring_order() == natural.ring_order()


def test_predecessors_match(rings):
    natural, warm = rings
    for name in _names():
        assert warm.node(name).predecessor == natural.node(name).predecessor, name


def test_successor_lists_match(rings):
    natural, warm = rings
    for name in _names():
        warm_entries = [ref.name for ref in warm.node(name).successors.entries()]
        natural_entries = [ref.name for ref in natural.node(name).successors.entries()]
        assert warm_entries == natural_entries, name


def test_finger_tables_match(rings):
    natural, warm = rings
    for name in _names():
        warm_fingers = [entry and entry.name for entry in warm.node(name).fingers]
        natural_fingers = [entry and entry.name for entry in natural.node(name).fingers]
        assert warm_fingers == natural_fingers, name
        assert None not in warm_fingers  # warm wiring fills every finger


def test_responsibility_map_matches(rings):
    natural, warm = rings
    rng = random.Random(SEED)
    space = 1 << DEFAULT_CHORD_CONFIG.bits
    for identifier in (rng.randrange(space) for _ in range(256)):
        warm_owner = warm.responsible_node_for_id(identifier).address.name
        natural_owner = natural.responsible_node_for_id(identifier).address.name
        assert warm_owner == natural_owner, identifier


def test_warm_ring_is_immediately_stable():
    warm = ChordRing(seed=SEED, config=DEFAULT_CHORD_CONFIG)
    warm.bootstrap_warm(_names())
    assert warm.runtime.now == 0.0  # no simulation ran during construction
    assert warm.is_stable()
    assert warm.wait_until_stable() is True
    assert warm.runtime.now == 0.0  # ...and none was needed afterwards


def test_warm_ring_serves_storage_immediately():
    warm = ChordRing(seed=SEED, config=DEFAULT_CHORD_CONFIG)
    warm.bootstrap_warm(_names())
    for index in range(20):
        key = f"warm-doc-{index}"
        warm.put(key, {"rev": index})
        assert warm.get(key)["value"] == {"rev": index}
        owner = warm.find_owner(key)
        assert owner is not None
        assert owner.name == warm.responsible_node(key).address.name


def test_single_node_warm_ring():
    warm = ChordRing(seed=SEED, config=DEFAULT_CHORD_CONFIG)
    (only,) = warm.bootstrap_warm(["solo"])
    assert warm.is_stable()
    assert only.successors.head == only.ref
    warm.put("doc", 1)
    assert warm.get("doc")["value"] == 1


@pytest.mark.parametrize("bits", [32, 160])
@pytest.mark.parametrize("count", [2, 3, 17, 128, 1000])
def test_fingers_match_a_linear_scan(count, bits):
    """Finger ``i`` of ``n`` is the first node at or after ``n + 2**i``.

    The owner is found by walking the sorted ring clockwise from ``n``,
    one node at a time, until a node is at least ``2**i`` away (``n``
    itself being a whole ring away).
    """
    ring = ChordRing(seed=SEED, config=ChordConfig(bits=bits))
    ring.bootstrap_warm(_names(count))
    ordered = sorted(ring.nodes.values(), key=lambda node: node.node_id)
    size = 1 << bits
    wrapped = crossed = 0
    for index, node in enumerate(ordered):
        expected = []
        for finger_index in range(bits):
            step = 1 << finger_index
            wrapped += node.node_id + step >= size
            offset = 1
            while offset < count:
                candidate = ordered[(index + offset) % count]
                if (candidate.node_id - node.node_id) % size >= step:
                    break
                offset += 1
            crossed += index + offset >= count
            expected.append(ordered[(index + offset) % count].ref)
        assert list(node.fingers) == expected, node.address.name
    assert crossed  # some owners lie past zero...
    assert wrapped or count == 2  # ...and some starts (both of 2 peers sit below 2**(bits-1))


def test_warm_ring_rejects_peers_sharing_an_identifier():
    # 9 peers on a 3-bit ring (8 identifiers): at least two must collide.
    ring = ChordRing(seed=SEED, config=ChordConfig(bits=3))
    with pytest.raises(DhtError, match="share a ring identifier") as raised:
        ring.bootstrap_warm(9)
    identifiers = [hash_to_id(name, 3) for name in _names(9)]
    clashing = [name for name, identifier in zip(_names(9), identifiers)
                if identifiers.count(identifier) > 1]
    assert clashing
    for name in clashing:
        assert name in str(raised.value)
    assert not ring.nodes  # refused before any node was created


# ------------------------------------------------- E2-style artifact parity --


def _publishing_spec(warm: bool) -> ScenarioSpec:
    """An E2-style scenario (concurrent publishing) on a warm or natural ring.

    The measurement only records simulated-time *deltas* and counts, so an
    identical ring must yield an identical artifact regardless of how much
    simulated time its construction consumed.
    """

    def measure(ctx):
        system = LtrSystem(chord_config=DEFAULT_CHORD_CONFIG, seed=ctx.seed)
        system.bootstrap(ctx.params["peers"], warm=warm)
        if not warm:
            system.run_for(SETTLE)  # converge the fingers to the ideal wiring
        system.ring.clear_route_caches()
        updaters = ctx.params["updaters"]
        key = f"warm-hot-{updaters}"
        names = system.peer_names()[:updaters]
        results = system.run_concurrent_commits(
            [(name, key, f"contribution from {name}") for name in names]
        )
        report = system.check_consistency(key)
        # Latencies are differences of clock readings; the natural ring's
        # clock sits tens of simulated seconds ahead after convergence, so
        # the subtraction carries different float noise in its last bits.
        # Nanosecond rounding removes the noise without hiding a real skew.
        latencies = [round(result.latency, 9) for result in results]
        return {
            "updaters": updaters,
            "validated_ts": system.last_ts(key),
            "mean_attempts": summarize([result.attempts for result in results]).mean,
            "mean_commit_latency_s": round(summarize(latencies).mean, 9),
            "p95_commit_latency_s": round(summarize(latencies).p95, 9),
            "converged": report.converged,
        }

    return ScenarioSpec(
        scenario_id="E2W",
        title="Warm-ring equivalence: concurrent publishing",
        description="E2-style workload; ring built warm vs. naturally.",
        columns=("updaters", "validated_ts", "mean_attempts",
                 "mean_commit_latency_s", "p95_commit_latency_s", "converged"),
        grid={"updaters": (2, 4)},
        constants={"peers": 8},
        measure=measure,
        seed=202,
    )


def test_e2_style_artifacts_byte_identical(tmp_path):
    natural_path = write_artifact(run_scenario(_publishing_spec(warm=False)),
                                  tmp_path / "natural")
    warm_path = write_artifact(run_scenario(_publishing_spec(warm=True)),
                               tmp_path / "warm")
    assert natural_path.read_bytes() == warm_path.read_bytes()
