"""Tests for the P2P-Log (repro.p2plog)."""

from unittest import mock

import pytest

from repro.chord import ChordConfig, ChordRing, HashFunctionFamily
from repro.dht import ChordDhtClient
from repro.errors import AuthenticationError, CheckpointUnavailable, PatchUnavailable
from repro.p2plog import (
    Checkpoint,
    LogEntry,
    P2PLogClient,
    make_checkpoint_key,
    make_log_key,
)
from repro.p2plog import log as log_module
from repro.net import ConstantLatency

BITS = 32


def log_config(**overrides):
    defaults = dict(
        bits=BITS,
        successor_list_size=4,
        replication_factor=2,
        stabilize_interval=0.2,
        fix_fingers_interval=0.3,
        check_predecessor_interval=0.4,
    )
    defaults.update(overrides)
    return ChordConfig(**defaults)


def build_ring(node_count=8, seed=13):
    ring = ChordRing(config=log_config(), seed=seed, latency=ConstantLatency(0.002))
    ring.bootstrap(node_count)
    return ring


def run(ring, generator):
    return ring.runtime.run(until=ring.runtime.process(generator))


def make_entry(ts, key="doc", author="u1", patch=None, sig=None):
    return LogEntry(document_key=key, ts=ts, patch=patch if patch is not None else f"patch-{ts}",
                    author=author, sig=sig)


# ---------------------------------------------------------------------------
# LogEntry
# ---------------------------------------------------------------------------


def test_log_entry_validation_and_log_key():
    entry = make_entry(3)
    assert entry.log_key == "doc#3"
    with pytest.raises(ValueError):
        make_entry(0)
    with pytest.raises(ValueError):
        make_log_key("doc", 0)


def test_log_entry_equality_ignores_sig():
    a = LogEntry("d", 1, "p", sig="ab" * 32)
    b = LogEntry("d", 1, "p")
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# publication and retrieval on a warm 3-peer ring (client logic)
# ---------------------------------------------------------------------------


def warm_ring(seed=13):
    """Three wired peers: built without simulated time or messages."""
    ring = ChordRing(config=log_config(), seed=seed, latency=ConstantLatency(0.002))
    ring.bootstrap_warm(3)
    return ring


def test_publish_and_fetch_roundtrip_on_a_warm_ring():
    ring = warm_ring()
    log = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entry = make_entry(1)

    stored = run(ring, log.append_many([entry]))
    assert stored == [3]
    owned = [item.key for node in ring.live_nodes() for item in node.storage.owned_items()]
    assert len(owned) == 3  # three distinct placements
    assert all(key.endswith("doc#1") for key in owned)

    fetched = run(ring, log.fetch("doc", 1))
    assert fetched == entry


def test_fetch_missing_entry_raises_on_a_warm_ring():
    ring = warm_ring()
    log = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    with pytest.raises(PatchUnavailable):
        run(ring, log.fetch("doc", 9))


def test_fetch_range_in_order_on_a_warm_ring():
    ring = warm_ring()
    log = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    run(ring, log.append_many([make_entry(ts) for ts in range(1, 6)]))
    entries = run(ring, log.fetch_range("doc", 2, 4))
    assert [entry.ts for entry in entries] == [2, 3, 4]
    assert run(ring, log.fetch_range("doc", 4, 2)) == []


def test_replication_factor_is_the_size_of_the_hash_family():
    ring = warm_ring()
    log = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(4, bits=BITS))
    assert log.replication_factor == 4
    assert len(log.placements("doc", 1)) == 4
    assert run(ring, log.append_many([make_entry(1)])) == [4]


def test_placements_are_distinct_and_prefixed():
    ring = warm_ring()
    log = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    placements = log.placements("doc", 7)
    keys = [key for key, _ in placements]
    identifiers = [identifier for _, identifier in placements]
    assert len(set(keys)) == 3
    assert len(set(identifiers)) == 3
    assert all(key.endswith("doc#7") for key in keys)


# ---------------------------------------------------------------------------
# over the Chord ring
# ---------------------------------------------------------------------------


def test_publish_places_entries_at_responsible_log_peers():
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entry = make_entry(1, key="wiki:home")
    stored = run(ring, client.append_many([entry]))
    assert stored == [3]
    for storage_key, identifier in client.placements("wiki:home", 1):
        owner = ring.responsible_node_for_id(identifier)
        assert owner.storage.value(storage_key) == entry


def test_fetch_from_any_peer_returns_same_entry():
    ring = build_ring()
    publisher = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    entry = make_entry(1, key="wiki:shared")
    run(ring, publisher.append_many([entry]))
    for name in ring.ring_order()[:4]:
        reader = P2PLogClient(ChordDhtClient(ring.node(name)), HashFunctionFamily.create(2, bits=BITS))
        assert run(ring, reader.fetch("wiki:shared", 1)) == entry


def test_entries_survive_log_peer_crash_with_multiple_placements():
    ring = build_ring(node_count=10)
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entry = make_entry(1, key="wiki:resilient")
    run(ring, client.append_many([entry]))
    ring.run_for(2)
    # crash the primary Log-Peer of the first placement
    _key, identifier = client.placements("wiki:resilient", 1)[0]
    victim = ring.responsible_node_for_id(identifier)
    gateway_name = next(
        name for name in ring.ring_order() if name != victim.address.name
    )
    ring.crash(victim.address.name)
    assert ring.wait_until_stable(max_time=90)
    reader = P2PLogClient(ChordDhtClient(ring.node(gateway_name)), HashFunctionFamily.create(3, bits=BITS))
    assert run(ring, reader.fetch("wiki:resilient", 1)) == entry


def test_availability_counts_placements():
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    run(ring, client.append_many([make_entry(1, key="wiki:avail")]))
    assert run(ring, client.availability("wiki:avail", 1)) == 3
    assert run(ring, client.availability("wiki:avail", 2)) == 0


def test_statistics_track_publications_and_fallbacks():
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    run(ring, client.append_many([make_entry(1, key="wiki:stats")]))
    run(ring, client.fetch("wiki:stats", 1))
    stats = client.statistics()
    assert stats["published_entries"] == 1
    assert stats["retrievals"] == 1
    assert stats["replication_factor"] == 2


def test_append_many_places_whole_batch_with_grouped_writes():
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entries = [make_entry(ts, key="wiki:batch") for ts in range(1, 6)]
    per_entry = run(ring, client.append_many(entries))
    assert per_entry == [3] * 5  # every entry got all |Hr| placements
    for ts in range(1, 6):
        assert run(ring, client.fetch("wiki:batch", ts)) == entries[ts - 1]
    stats = client.statistics()
    assert stats["published_entries"] == 5
    assert run(ring, client.append_many([])) == []


def test_fetch_span_groups_reads_and_matches_per_ts_fetch():
    """The grouped range read returns exactly what the per-ts chain returns."""
    ring = build_ring(node_count=10)
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entries = [make_entry(ts, key="wiki:span") for ts in range(1, 9)]
    run(ring, client.append_many(entries))
    ring.run_for(1.0)
    spanned = run(ring, client.fetch_range("wiki:span", 1, 8))
    assert spanned == entries
    assert client.fallback_reads == 0  # every entry came from its primary
    looped = [run(ring, client.fetch("wiki:span", ts)) for ts in range(1, 9)]
    assert looped == spanned
    assert run(ring, client.fetch_range("wiki:span", 5, 3)) == []


def test_fetch_span_falls_back_per_timestamp_when_primary_is_gone():
    """A ts the grouped read cannot serve is recovered via the fallback chain."""
    ring = build_ring(node_count=10)
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entries = [make_entry(ts, key="wiki:spanfall") for ts in range(1, 5)]
    run(ring, client.append_many(entries))
    ring.run_for(1.0)
    # Delete the primary (h1) placement of ts 2: the grouped read misses it,
    # the per-ts fallback finds it through h2/h3.
    primary = client.hash_family[0]
    log_key = make_log_key("wiki:spanfall", 2)
    run(ring, client.dht.remove(primary.placement_key(log_key), key_id=primary(log_key)))
    spanned = run(ring, client.fetch_range("wiki:spanfall", 1, 4))
    assert spanned == entries
    assert client.fallback_reads >= 1


def test_fetch_span_windows_grouped_reads_by_max_parallel():
    """Regression: range retrieval must honour the fan-out bound.

    ``get_many`` resolves its items' placements concurrently, so handing
    it a whole 500-entry range at once would put one in-flight routing per
    timestamp on the wire; the range is worked through in windows of
    ``MAX_PARALLEL`` instead.
    """
    ring = warm_ring()
    dht = ChordDhtClient(ring.gateway())
    log = P2PLogClient(dht, HashFunctionFamily.create(2, bits=BITS))
    run(ring, log.append_many([make_entry(ts) for ts in range(1, 501)]))

    batches, announced = [], []
    plain_get_many = dht.get_many

    def tracking_get_many(items, warm_next=()):
        batches.append(list(items))
        announced.append(list(warm_next))
        result = yield from plain_get_many(items, warm_next)
        return result

    dht.get_many = tracking_get_many
    entries = run(ring, log.fetch_range("doc", 1, 500))
    assert [entry.ts for entry in entries] == list(range(1, 501))
    assert batches and max(len(batch) for batch in batches) <= log_module.MAX_PARALLEL == 16
    # Each window announces exactly the next one (the range is known), the
    # last one nothing: no placement is resolved that is not fetched.
    assert announced == batches[1:] + [[]]


@pytest.mark.parametrize("fault", ["none", "primary-down", "primary-tampered"])
def test_window_of_one_returns_what_the_default_window_returns(fault):
    """``MAX_PARALLEL = 1`` (the paper's one get at a time) and the default
    window retrieve the same entries, entry for entry — also when the
    primary Log-Peer of some timestamp is down or serves a tampered copy."""
    ring = build_ring(node_count=10)
    family = HashFunctionFamily.create(3, bits=BITS)
    entries = [make_entry(ts, key="wiki:window", sig=f"sig-{ts}") for ts in range(1, 25)]
    verifier = lambda entry: entry.sig == f"sig-{entry.ts}"  # noqa: E731
    publisher = P2PLogClient(ChordDhtClient(ring.gateway()), family)
    run(ring, publisher.append_many(entries))
    ring.run_for(1.0)

    primary = family[0]
    log_key = make_log_key("wiki:window", 7)
    victim = ring.responsible_node_for_id(primary(log_key))
    if fault == "primary-down":
        ring.crash(victim.address.name)
        assert ring.wait_until_stable(max_time=90)
    elif fault == "primary-tampered":
        tamper(ring, family, "wiki:window", 7, [0])

    reader = next(name for name in ring.ring_order() if name != victim.address.name)
    one = P2PLogClient(ChordDhtClient(ring.node(reader)), family,
                       entry_verifier=verifier)
    windowed = P2PLogClient(ChordDhtClient(ring.node(reader)), family,
                            entry_verifier=verifier)
    assert log_module.MAX_PARALLEL == 16
    with mock.patch.object(log_module, "MAX_PARALLEL", 1):
        one_by_one = run(ring, one.fetch_range("wiki:window", 1, 24))
    assert one_by_one == run(ring, windowed.fetch_range("wiki:window", 1, 24)) == entries
    assert [entry.sig for entry in one_by_one] == [entry.sig for entry in entries]
    if fault == "primary-tampered":
        # One tampered copy: rejected once, one read of the next placement.
        assert one.auth_rejects == 1 and windowed.auth_rejects == 1
        assert one.fallback_reads == 1 and windowed.fallback_reads == 1


def tamper(ring, family, key, ts, which):
    """Overwrite the ``which`` placements of ``(key, ts)`` with a forged copy."""
    log_key = make_log_key(key, ts)
    for index in which:
        storage_key = family[index].placement_key(log_key)
        holder = ring.responsible_node_for_id(family[index](log_key))
        item = holder.storage.get(storage_key)
        holder.storage.put(storage_key, LogEntry(key, ts, "evil patch"),
                           is_replica=item.is_replica, now=ring.runtime.now,
                           key_id=item.key_id)


def signed_window(which_tampered, removed=()):
    """A published range whose ts 7 has tampered / removed placements."""
    ring = build_ring(node_count=10)
    family = HashFunctionFamily.create(3, bits=BITS)
    entries = [make_entry(ts, key="wiki:window", sig=f"sig-{ts}") for ts in range(1, 13)]
    verifier = lambda entry: entry.sig == f"sig-{entry.ts}"  # noqa: E731
    gateway = ChordDhtClient(ring.gateway())
    run(ring, P2PLogClient(gateway, family).append_many(entries))
    ring.run_for(1.0)
    tamper(ring, family, "wiki:window", 7, which_tampered)
    log_key = make_log_key("wiki:window", 7)
    for index in removed:
        run(ring, gateway.remove(family[index].placement_key(log_key),
                                 key_id=family[index](log_key)))
    reader = P2PLogClient(ChordDhtClient(ring.gateway()), family, entry_verifier=verifier)
    return ring, reader, entries


def test_fallback_starts_after_the_placement_the_grouped_read_tried():
    """Regression: a tampered (or missing) primary copy used to be read — and,
    when tampered, counted — a second time by the per-timestamp chain, which
    started over at ``h1``: ``auth_rejects`` 2 and two ``fetch`` RPCs where
    one each is right."""
    ring, reader, entries = signed_window(which_tampered=[0])
    fetches = ring.network.stats.per_method.get("fetch", 0)
    assert run(ring, reader.fetch_range("wiki:window", 1, 12)) == entries
    assert reader.auth_rejects == 1 and reader.fallback_reads == 1
    assert reader.retrievals == 12
    assert ring.network.stats.per_method["fetch"] - fetches == 2  # one request, one reply

    ring, reader, entries = signed_window(which_tampered=[], removed=[0])
    fetches = ring.network.stats.per_method.get("fetch", 0)
    assert run(ring, reader.fetch_range("wiki:window", 1, 12)) == entries
    assert reader.auth_rejects == 0 and reader.fallback_reads == 1
    assert ring.network.stats.per_method["fetch"] - fetches == 2


def test_fallback_outcome_is_that_of_the_whole_chain_when_every_copy_is_bad():
    # Every copy tampered: each is rejected once, and the error says so.
    ring, reader, _entries = signed_window(which_tampered=[0, 1, 2])
    with pytest.raises(AuthenticationError) as failure:
        run(ring, reader.fetch_range("wiki:window", 1, 12))
    assert reader.auth_rejects == 3 and "3 tampered" in str(failure.value)
    # The primary tampered, the others gone: still an authentication failure —
    # the only copy that answered was forged — although the chain saw none.
    ring, reader, _entries = signed_window(which_tampered=[0], removed=[1, 2])
    with pytest.raises(AuthenticationError) as failure:
        run(ring, reader.fetch_range("wiki:window", 1, 12))
    assert reader.auth_rejects == 1 and "1 tampered" in str(failure.value)
    # Every copy gone: unavailable.
    ring, reader, _entries = signed_window(which_tampered=[], removed=[0, 1, 2])
    with pytest.raises(PatchUnavailable):
        run(ring, reader.fetch_range("wiki:window", 1, 12))
    assert reader.auth_rejects == 0
    # The unit read is unchanged: it starts at h1 and counts what it sees.
    ring, reader, entries = signed_window(which_tampered=[0])
    assert run(ring, reader.fetch("wiki:window", 7)) == entries[6]
    assert reader.auth_rejects == 1 and reader.fallback_reads == 1


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def make_checkpoint(ts, key="doc", lines=("alpha", "beta")):
    return Checkpoint(document_key=key, ts=ts, lines=tuple(lines))


def test_checkpoint_validation_and_key():
    checkpoint = make_checkpoint(4)
    assert checkpoint.checkpoint_key == "doc!ckpt#4"
    with pytest.raises(ValueError):
        make_checkpoint(0)
    with pytest.raises(ValueError):
        make_checkpoint_key("doc", 0)


def test_checkpoint_placements_use_the_salted_checkpoint_family():
    """Checkpoints land at |Hr| distinct peers, independent of the patch family."""
    ring = build_ring(node_count=10)
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    checkpoint = make_checkpoint(4, key="wiki:ckpt")
    stored = run(ring, client.publish_checkpoint(checkpoint))
    assert stored == 3
    placements = client.checkpoint_placements("wiki:ckpt", 4)
    assert len({identifier for _key, identifier in placements}) == 3
    assert all(key.startswith("hc") for key, _identifier in placements)
    assert len(client.checkpoint_family) == client.replication_factor == 3
    assert client.checkpoint_family[0].bits == BITS
    patch_ids = {identifier for _key, identifier in client.placements("wiki:ckpt", 4)}
    assert patch_ids != {identifier for _key, identifier in placements}
    for storage_key, identifier in placements:
        owner = ring.responsible_node_for_id(identifier)
        assert owner.storage.value(storage_key) == checkpoint


def test_latest_checkpoint_probes_the_retained_boundaries_below_max_ts():
    """The reader computes the addresses: the two newest multiples of the
    interval at or below ``max_ts``, newest first, and nothing further back."""
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    for ts in (4, 8):
        run(ring, client.publish_checkpoint(make_checkpoint(ts, key="wiki:latest")))
    newest = run(ring, client.latest_checkpoint("wiki:latest", 11, 4))
    assert newest.ts == 8
    older = run(ring, client.latest_checkpoint("wiki:latest", 7, 4))
    assert older.ts == 4
    assert run(ring, client.latest_checkpoint("wiki:latest", 3, 4)) is None
    assert run(ring, client.latest_checkpoint("wiki:latest", 0, 4)) is None
    assert run(ring, client.latest_checkpoint("wiki:none", 20, 4)) is None
    # At max_ts 16 the retained boundaries are 16 and 12: 8 is not looked for.
    assert run(ring, client.latest_checkpoint("wiki:latest", 16, 4)) is None


def test_latest_checkpoint_skips_an_unreachable_boundary():
    """A boundary whose placements are all gone is skipped for the one before."""
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    for ts in (4, 8):
        run(ring, client.publish_checkpoint(make_checkpoint(ts, key="wiki:skip")))
    assert run(ring, client.gc_checkpoint("wiki:skip", 8)) == 2
    fallback = run(ring, client.latest_checkpoint("wiki:skip", 10, 4))
    assert fallback.ts == 4
    with pytest.raises(CheckpointUnavailable):
        run(ring, client.fetch_checkpoint("wiki:skip", 8))


def test_publish_checkpoint_stores_its_copies_in_one_sweep():
    """One ``put_many`` over the checkpoint family; ``CheckpointUnavailable``
    when not one copy lands."""
    ring = warm_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    sweeps = []
    put_many = client.dht.put_many

    def counted(items):
        sweeps.append(len(items))
        return (yield from put_many(items))

    client.dht.put_many = counted
    assert run(ring, client.publish_checkpoint(make_checkpoint(4, key="wiki:sweep"))) == 3
    assert sweeps == [3]

    def nothing_lands(items):
        yield ring.runtime.timeout(0.001)
        return {"stored": [False] * len(items), "owners": 0, "hops": 0}

    client.dht.put_many = nothing_lands
    with pytest.raises(CheckpointUnavailable):
        run(ring, client.publish_checkpoint(make_checkpoint(8, key="wiki:sweep")))


def test_a_placement_with_no_route_is_skipped_like_one_that_does_not_answer(monkeypatch):
    """Regression: the fallback chain over ``h2..hn`` skips a placement it
    cannot route to (``LookupFailed``) as it skips one that does not answer.
    With ``h1`` missing and no route to ``h2``, the range read returns the
    ``h3`` copy; with no route at all it raises ``PatchUnavailable``, not
    ``LookupFailed``.  A retraction skips the unroutable placement the same
    way and still removes the others."""
    from repro.chord import ChordNode
    from repro.errors import LookupFailed

    ring = ChordRing(config=log_config(), seed=13, latency=ConstantLatency(0.002))
    ring.bootstrap_warm(8)
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(3, bits=BITS))
    entry = make_entry(1, key="wiki:no-route")
    assert run(ring, client.append_many([entry])) == [3]
    (h1_key, h1_id), (_h2_key, h2_id), _h3 = client.placements("wiki:no-route", 1)
    assert ring.responsible_node_for_id(h1_id).storage.remove(h1_key)
    unroutable = {h2_id}
    find_successor = ChordNode.find_successor

    def routed(node, target_id):
        if target_id in unroutable:
            raise LookupFailed(f"no route towards {target_id}")
        return (yield from find_successor(node, target_id))

    monkeypatch.setattr(ChordNode, "find_successor", routed)
    assert run(ring, client.fetch_range("wiki:no-route", 1, 1)) == [entry]
    assert client.fallback_reads == 1
    unroutable.update(identifier for _key, identifier in client.placements("wiki:no-route", 1))
    with pytest.raises(PatchUnavailable):
        run(ring, client.fetch_range("wiki:no-route", 1, 1))
    unroutable.intersection_update({h2_id})
    assert run(ring, client.retract_many([entry])) == 1  # h3's copy (h1 is gone)


def test_retract_many_removes_only_matching_entries():
    ring = build_ring()
    client = P2PLogClient(ChordDhtClient(ring.gateway()), HashFunctionFamily.create(2, bits=BITS))
    orphan = make_entry(1, key="wiki:retract", author="old-master")
    run(ring, client.append_many([orphan]))
    assert run(ring, client.retract_many([orphan])) == 2  # both placements gone
    with pytest.raises(PatchUnavailable):
        run(ring, client.fetch("wiki:retract", 1))
    # A placement re-used by a *different* (validated) entry is untouched.
    validated = make_entry(1, key="wiki:retract", author="new-master")
    run(ring, client.append_many([validated]))
    assert run(ring, client.retract_many([orphan])) == 0
    assert run(ring, client.fetch("wiki:retract", 1)) == validated
