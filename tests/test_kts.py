"""Tests for the Key-based Timestamp Service (repro.kts)."""

from repro.chord import ChordConfig, ChordRing, hash_to_id, timestamp_hash
from repro.dht import ChordDhtClient
from repro.kts import COUNTER_PREFIX, KtsClient, TimestampAuthority
from repro.net import Address, ConstantLatency

BITS = 32


def kts_config(**overrides):
    defaults = dict(
        bits=BITS,
        stabilize_interval=0.2,
        fix_fingers_interval=0.3,
        check_predecessor_interval=0.4,
    )
    defaults.update(overrides)
    return ChordConfig(**defaults)


def build_ring(node_count=6, seed=5):
    ring = ChordRing(
        config=kts_config(),
        seed=seed,
        latency=ConstantLatency(0.002),
        service_factory=lambda address: [TimestampAuthority()],
    )
    ring.bootstrap(node_count)
    return ring


def client_for(ring, name=None):
    node = ring.node(name) if name else ring.gateway()
    return node, KtsClient(ChordDhtClient(node))


def run(ring, generator):
    return ring.runtime.run(until=ring.runtime.process(generator))


# ---------------------------------------------------------------------------
# basic timestamp generation
# ---------------------------------------------------------------------------


def test_gen_ts_starts_at_one_and_is_continuous():
    ring = build_ring()
    _node, kts = client_for(ring)
    values = [run(ring, kts.gen_ts("doc-A")) for _ in range(5)]
    assert values == [1, 2, 3, 4, 5]


def test_last_ts_zero_before_any_generation():
    ring = build_ring()
    _node, kts = client_for(ring)
    assert run(ring, kts.last_ts("untouched-doc")) == 0


def test_last_ts_tracks_gen_ts():
    ring = build_ring()
    _node, kts = client_for(ring)
    run(ring, kts.gen_ts("doc-B"))
    run(ring, kts.gen_ts("doc-B"))
    assert run(ring, kts.last_ts("doc-B")) == 2


def test_independent_keys_have_independent_counters():
    ring = build_ring()
    _node, kts = client_for(ring)
    run(ring, kts.gen_ts("doc-1"))
    run(ring, kts.gen_ts("doc-1"))
    run(ring, kts.gen_ts("doc-2"))
    assert run(ring, kts.last_ts("doc-1")) == 2
    assert run(ring, kts.last_ts("doc-2")) == 1


def test_gen_ts_agrees_across_different_gateway_peers():
    ring = build_ring()
    names = ring.ring_order()
    values = []
    for name in names[:4]:
        _node, kts = client_for(ring, name)
        values.append(run(ring, kts.gen_ts("shared-doc")))
    assert values == [1, 2, 3, 4]


def test_counter_lives_at_ht_responsible_node():
    ring = build_ring()
    _node, kts = client_for(ring)
    run(ring, kts.gen_ts("doc-X"))
    ht = timestamp_hash(BITS)
    expected_master = ring.responsible_node_for_id(ht("doc-X"))
    assert expected_master.storage.value(f"{COUNTER_PREFIX}doc-X") == 1
    authority = expected_master.service("kts")
    assert authority.managed_keys() == {"doc-X": 1}


def test_master_of_locates_responsible_node():
    ring = build_ring()
    _node, kts = client_for(ring)
    master_ref = run(ring, kts.master_of("doc-Y"))
    ht = timestamp_hash(BITS)
    assert master_ref == ring.responsible_node_for_id(ht("doc-Y")).ref


def test_advance_ts_never_lowers_counter():
    ring = build_ring()
    _node, kts = client_for(ring)
    run(ring, kts.gen_ts("doc-adv"))
    run(ring, kts.gen_ts("doc-adv"))
    assert run(ring, kts.advance_ts("doc-adv", 1)) == 2
    assert run(ring, kts.advance_ts("doc-adv", 10)) == 10
    assert run(ring, kts.gen_ts("doc-adv")) == 11


def test_authority_statistics_counts_generation():
    ring = build_ring()
    _node, kts = client_for(ring)
    for _ in range(3):
        run(ring, kts.gen_ts("doc-stats"))
    ht = timestamp_hash(BITS)
    authority = ring.responsible_node_for_id(ht("doc-stats")).service("kts")
    stats = authority.statistics()
    assert stats["generated"] == 3
    assert stats["managed_keys"] == 1


# ---------------------------------------------------------------------------
# distribution of responsibility (experiment E1 behaviour)
# ---------------------------------------------------------------------------


def test_timestamping_responsibility_is_distributed():
    ring = build_ring(node_count=8, seed=9)
    _node, kts = client_for(ring)
    documents = [f"doc-{index}" for index in range(64)]
    for document in documents:
        run(ring, kts.gen_ts(document))
    masters = {
        name: len(ring.node(name).service("kts").managed_keys())
        for name in ring.ring_order()
    }
    assert sum(masters.values()) == len(documents)
    # more than one peer carries timestamping responsibility
    assert sum(1 for count in masters.values() if count > 0) >= 3


# ---------------------------------------------------------------------------
# churn: the paper's scenarios E3 / E4 at the KTS level
# ---------------------------------------------------------------------------


def test_counters_follow_master_on_graceful_leave():
    ring = build_ring()
    _node, kts = client_for(ring)
    for _ in range(4):
        run(ring, kts.gen_ts("doc-leave"))
    ht = timestamp_hash(BITS)
    old_master = ring.responsible_node_for_id(ht("doc-leave"))
    ring.leave(old_master.address.name)
    # pick a surviving gateway
    _node, kts = client_for(ring)
    assert run(ring, kts.last_ts("doc-leave")) == 4
    assert run(ring, kts.gen_ts("doc-leave")) == 5
    new_master = ring.responsible_node_for_id(ht("doc-leave"))
    assert new_master.address.name != old_master.address.name
    assert new_master.service("kts").managed_keys().get("doc-leave") == 5


def test_counters_survive_master_crash_via_successor_backup():
    ring = build_ring(node_count=8)
    _node, kts = client_for(ring)
    for _ in range(3):
        run(ring, kts.gen_ts("doc-crash"))
    ring.run_for(2)  # let the counter replica reach the successor
    ht = timestamp_hash(BITS)
    old_master = ring.responsible_node_for_id(ht("doc-crash"))
    ring.crash(old_master.address.name)
    assert ring.wait_until_stable(max_time=90)
    _node, kts = client_for(ring)
    assert run(ring, kts.last_ts("doc-crash")) == 3
    assert run(ring, kts.gen_ts("doc-crash")) == 4


def test_new_joining_master_takes_over_counter():
    ring = build_ring(node_count=5, seed=21)
    _node, kts = client_for(ring)
    documents = [f"doc-{index}" for index in range(30)]
    for document in documents:
        run(ring, kts.gen_ts(document))
    ht = timestamp_hash(BITS)
    owners_before = {doc: ring.responsible_node_for_id(ht(doc)).address.name for doc in documents}
    newcomer = ring.add_node("newcomer")
    owners_after = {doc: ring.responsible_node_for_id(ht(doc)).address.name for doc in documents}
    moved = [doc for doc in documents if owners_before[doc] != owners_after[doc]]
    # every document whose master changed must now be served by the newcomer
    for doc in moved:
        assert owners_after[doc] == "newcomer"
        assert newcomer.service("kts").managed_keys().get(doc) == 1
    # timestamps continue without gaps for all documents
    _node, kts = client_for(ring)
    for doc in documents:
        assert run(ring, kts.gen_ts(doc)) == 2


def test_continuity_across_repeated_churn_events():
    ring = build_ring(node_count=8, seed=3)
    _node, kts = client_for(ring)
    expected = 0
    document = "churny-doc"
    for round_index in range(3):
        for _ in range(2):
            expected += 1
            assert run(ring, kts.gen_ts(document)) == expected
        ring.run_for(2)
        ht = timestamp_hash(BITS)
        master = ring.responsible_node_for_id(ht(document))
        if round_index % 2 == 0:
            ring.leave(master.address.name)
        else:
            ring.crash(master.address.name)
            assert ring.wait_until_stable(max_time=90)
        _node, kts = client_for(ring)
    assert run(ring, kts.last_ts(document)) == expected
