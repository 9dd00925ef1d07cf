"""Routes are resolved before they are needed (chord / dht / p2plog / core).

One rule, two callers: *a placement whose timestamp is already known is
resolved before the operation that needs it*.  The Master-key peer warms the
Log-Peers of the timestamps it is about to hand out
(``MasterService._warm_ahead`` → ``P2PLogClient.warm`` →
``ChordDhtClient.warm`` → ``ChordNode.warm_route``: those past the rounds in
flight with every answer, and one more with every arrival behind them); a range
reader has its next window resolved while this one is fetched
(``fetch_range`` → ``get_many(items, warm_next)``).  These tests pin what
warming may cost (nothing on a hit, ``find_successor`` only on a miss, no
write ever), when it must stay silent, how far the horizon
reaches, and that it lives and dies with the Master's tenure.  That a warmed
publish routes nothing under the lock is ``tests/test_commit_budget.py``;
that warm and cold runs keep the same invariants is ``tests/diff_paths.py``.
"""

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from route_probe import trace_routing
from test_behind_suffix import publish
from test_core_master import (
    build_system,
    find_takeover_joiner,
    is_fresh,
    make_patch,
    run_validation,
    tenure,
)
from test_p2plog import tamper

from repro.chord import ChordNode, ChordRing, HashFunctionFamily
from repro.core import LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.dht import ChordDhtClient
from repro.experiments.scenarios import SCALE_CHORD_CONFIG
from repro.net import ConstantLatency, UniformLatency
from repro.p2plog import LogEntry, P2PLogClient, make_log_key
from repro.p2plog import log as log_module

KEY = "xwiki:suffix"  # the document test_behind_suffix.publish() writes


def quiet_ring(peers=24, seed=5):
    """A wired ring whose maintenance sleeps for the length of a test."""
    ring = ChordRing(config=SCALE_CHORD_CONFIG, seed=seed, latency=ConstantLatency(0.003))
    ring.bootstrap_warm(peers)
    return ring


def remote_identifier(ring, node):
    """An identifier owned neither by ``node`` nor by its successor."""
    space = 2 ** ring.config.bits
    for step in range(1, 64):
        target = (node.node_id + step * space // 64) % space
        owner = ring.responsible_node_for_id(target)
        if owner is not node and owner.ref != node.successor:
            return target
    raise AssertionError("ring too small")


def activity(ring):
    return (ring.runtime.pending_events, ring.runtime.processed_events,
            ring.network.stats.sent)


# ------------------------------------------------------------------ the node --


def test_a_hit_spawns_no_process_timer_or_message():
    ring = quiet_ring()
    node = ring.gateway()
    target = remote_identifier(ring, node)
    ring.runtime.run(until=ring.runtime.process(node.find_successor(target)))  # learn it
    cache = node.route_cache
    before = activity(ring), cache.stats(), list(cache._entries)
    node.warm_route(target)                       # covered by the cache
    node.warm_route((node.node_id + 1) % 2 ** 32)  # covered by the node's own arc
    assert node._warming == {}
    assert (activity(ring), cache.stats(), list(cache._entries)) == before
    ring.run_for(0.05)
    assert ring.network.stats.sent == before[0][2]


def test_a_miss_sends_find_successor_only_and_stores_nothing():
    system = LtrSystem(chord_config=SCALE_CHORD_CONFIG, seed=3,
                       latency=UniformLatency(0.002, 0.004))
    system.bootstrap(24, warm=True)
    master = system.master_service(KEY)
    node = master.node
    stored = {peer.address.name: len(peer.storage) for peer in system.ring.live_nodes()}
    sent = dict(system.network.stats.per_method)
    cached = len(node.route_cache)
    master.log.warm(KEY, 1, 8)
    assert node._warming  # 24 placements on 24 arcs: some are news to this node
    in_flight = len(node._warming)
    master.log.warm(KEY, 1, 8)  # asked again while in flight: not duplicated
    assert len(node._warming) == in_flight
    system.run_for(0.2)
    assert node._warming == {}
    delta = {method: count - sent.get(method, 0)
             for method, count in system.network.stats.per_method.items()
             if count != sent.get(method, 0)}
    assert set(delta) == {"find_successor"}
    assert {peer.address.name: len(peer.storage)
            for peer in system.ring.live_nodes()} == stored
    assert len(node.route_cache) > cached  # ordinary cache entries, nothing else
    # ... and now every one of those placements is a hit: silence.
    sent = system.network.stats.sent
    master.log.warm(KEY, 1, 8)
    assert node._warming == {} and system.network.stats.sent == sent
    assert system.runtime.crashed_processes == []


def test_a_lookup_joins_the_warm_up_in_flight_instead_of_repeating_it():
    ring = quiet_ring()
    node = ring.gateway()
    target = remote_identifier(ring, node)
    sent = ring.network.stats.per_method.get("find_successor", 0)
    with trace_routing() as trace:
        node.warm_route(target)
        answer = ring.runtime.run(until=ring.runtime.process(node.find_successor(target)))
    assert answer["node"] == ring.responsible_node_for_id(target).ref
    assert [(lookup.target_id, lookup.warm) for lookup in trace.routed
            if lookup.node == node.address.name] == [(target, True)]
    # One request and one reply per leg (the relays' legs are traced too).
    assert ring.network.stats.per_method["find_successor"] - sent == 2 * len(trace.routed)
    assert answer["hops"] == 0  # read from the cache the warm-up filled


def test_warming_never_raises_on_a_node_that_cannot_route():
    ring = quiet_ring()
    node = ring.gateway()
    target = remote_identifier(ring, node)
    node.warm_route(target)
    assert target in node._warming
    ring.crash(node.address.name, stabilize=False)  # the lookup's RPC dies with the node
    ring.run_for(1.0)
    assert node._warming == {}
    node.warm_route(target)  # not part of a ring any more: a no-op
    assert node._warming == {}
    assert ring.runtime.crashed_processes == []


# ---------------------------------------------------------------- the Master --


def contended_run(chain, seed=7):
    """Three writers racing on one document.

    Also returns, for each ``_warm_ahead``, its arguments ``last_ts`` and
    ``chain``, the entries in flight for the document at that moment, and the
    warmed horizon before and after it.
    """
    system = LtrSystem(ltr_config=LtrConfig(batch_max_edits=chain), seed=seed,
                       chord_config=SCALE_CHORD_CONFIG,
                       latency=UniformLatency(0.002, 0.004))
    names = system.bootstrap(32, warm=True)
    key = "xwiki:horizon"
    master = system.master_service(key)
    seen = []
    warm_ahead = master._warm_ahead

    def horizon():
        return tenure(master, key).warmed_ts

    def recording_warm_ahead(document_key, last_ts, ahead):
        before, in_flight = horizon(), master._documents[key].in_flight
        warm_ahead(document_key, last_ts, ahead)
        seen.append((last_ts, ahead, in_flight, before, horizon()))

    def writer(user, edits):
        for number in range(edits):
            line = f"{user.author} #{number}"
            if chain == 1:
                user.edit(key, "\n".join(user.working_lines(key) + [line]))
                yield from user.commit(key)
            else:
                for part in range(chain):
                    user.stage(key, "\n".join(user.staged_lines(key) + [f"{line}.{part}"]))
                yield from user.flush(key)

    with trace_routing() as trace:
        with mock.patch.object(master, "_warm_ahead", recording_warm_ahead):
            lanes = [system.runtime.process(writer(system.user(names[slot * 9]), 12))
                     for slot in range(3)]
            system.runtime.run(until=system.runtime.all_of(lanes))
    assert system.last_ts(key) == 3 * 12 * chain
    stats = system.statistics()
    # It was contended — and (pinned: proposals_behind > 0) nobody was sent back.
    assert stats["proposals_rebased"] > 0 and stats["proposals_behind"] == 0
    assert stats["publishes"] == stats["proposals_ok"] == 3 * 12  # a round each
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous
    return system, trace, seen


@pytest.mark.parametrize("chain", [1, 16])
def test_horizon_stays_within_the_cap_and_warms_no_timestamp_twice(chain):
    """(Pinned one chain per answer, then a chain for the answer and one for
    each proposal queued on the lock, warmed as it arrived.)  The horizon
    moves per *answer*: past what is in flight — routed by its own publish —
    as much again as was allocated and as is in flight; and per *arrival*
    behind a round in flight, by one timestamp.  Never twice and nothing past
    the cap."""
    _system, trace, seen = contended_run(chain)
    moved = [call for call in seen if call[4] > call[3]]
    assert [(max(before, last_ts + in_flight) + 1, after)
            for last_ts, _ahead, in_flight, before, after in moved] == \
        [(low, high) for _node, _key, low, high, _at in trace.warmed]
    cap = master_module.WARM_AHEAD_CHAINS
    for last_ts, ahead, in_flight, before, after in seen:
        assert before <= after <= max(before, last_ts + cap * (in_flight + ahead))
        if ahead == 0:
            assert in_flight > 1  # an arrival behind a round still out
        if after > before:
            # past what is in flight: as much again for an answer, one for an arrival
            assert after <= max(before, last_ts + in_flight) + (ahead + in_flight if ahead else 1)
    assert any(ahead == 0 for _l, ahead, _f, _b, _a in moved)  # arrivals moved it
    assert any(ahead and in_flight for _l, ahead, in_flight, _b, _a in moved)  # overlapped
    previous_high = 0
    for _node, _key, low, high, _at in trace.warmed:
        assert low > previous_high                      # the horizon only moves forward
        previous_high = high
    # Every identifier is asked for once, and routed at most once — by the
    # warm-up or by the publish that needed it, never by both.
    assert set(Counter(trace.warm_calls).values()) == {1}
    routed = Counter((lookup.node, lookup.target_id) for lookup in trace.routed)
    placements = {identifier for publish_ in trace.publishes
                  for identifier in publish_.identifiers}
    assert all(count == 1 for (_node, identifier), count in routed.items()
               if identifier in placements)


def test_both_answers_extend_the_horizon_and_the_tenure_carries_it():
    """(The *behind* answers here were stale proposals; those are committed
    now, so *behind* comes from a proposal ahead of last-ts — and what is in
    flight, which no test looked at, is what lets an answer warm more than a
    chain.)"""
    system = build_system()
    master = publish(system, 1)
    current = tenure(master, KEY)
    assert current.warmed_ts == 2  # a tenure's first answer: one chain further
    publish(system, 1, start=2)
    assert current.warmed_ts == 3  # ok: last-ts 2, one chain further
    ahead = run_validation(system, master, KEY, 9, [make_patch("early", "x")], "early")
    assert not ahead.accepted and current.warmed_ts == 4  # behind: one more
    for _ in range(5):
        run_validation(system, master, KEY, 9, [make_patch("early", "x")], "early")
    assert current.warmed_ts == 2 + master_module.WARM_AHEAD_CHAINS  # the cap
    stale = run_validation(system, master, KEY, 1, [make_patch("late", "x")], "late")
    assert stale.accepted and current.warmed_ts == 3 + master_module.WARM_AHEAD_CHAINS
    with mock.patch.object(master_module, "WARM_AHEAD_CHAINS", 0), \
            trace_routing() as trace:
        publish(system, 2, start=4)
    assert trace.warmed == []  # cap 0: the cold arm of tests/diff_paths.py


def test_an_answer_warms_past_the_rounds_in_flight():
    """(Pinned ``(4, 4), (5, 5), (6, 8), (9, 10)`` while the two that arrived
    behind a publish queued on the lock, were warmed on arrival and went out
    as one group.)  Three proposals arrive together: each is published at
    once; an arrival behind a round still out moves the horizon one
    timestamp on, and an answer moves it past the rounds still in flight
    (their publishes route their own placements) by what it allocated and
    what is in flight."""
    system = build_system()
    master = publish(system, 2)
    current = tenure(master, KEY)
    assert current.warmed_ts == 3
    lanes = [system.runtime.process(master.validate_and_publish(
        key=KEY, ts=3, patches=[make_patch(f"w{lane}", "x", 2)], author=f"w{lane}"))
        for lane in range(3)]
    with trace_routing() as trace:
        system.runtime.run(until=system.runtime.all_of(lanes))
    # 3 was warmed by the answer before; 4 and 5 are published while 3 is out,
    # and each of them, arriving, warms one more: 5, then 6.  The first answer:
    # past 6, as much again as it allocated (one) and as is in flight (two) —
    # they all come round again.  The second: two more.  Nobody asked for a
    # timestamp twice.
    assert [(low, high) for _node, _key, low, high, _at in trace.warmed] == \
        [(5, 5), (6, 6), (7, 9), (10, 11)]
    assert sorted(publish_.timestamps for publish_ in trace.publishes) == [(3,), (4,), (5,)]
    assert system.last_ts(KEY) == 5 and current.warmed_ts == 11


def test_a_lull_past_the_ttl_drops_the_horizon_and_the_next_burst_warms_again():
    """Three proposals together leave the horizon at 11 with last-ts 5.  After
    a lull longer than the route-cache TTL those routes have expired: the
    next burst's first round drops the horizon, and the arrivals and answers
    warm from what is in flight again (8, 9, 10–12, 13–14) instead of on
    from 11 (12, 13, 14–16, …), which would leave 8–11 to the publishes that
    need them."""
    system = build_system()
    master = publish(system, 2)

    def burst(ts):
        lanes = [system.runtime.process(master.validate_and_publish(
            key=KEY, ts=ts, patches=[make_patch(f"w{lane}@{ts}", "x", ts - 1)],
            author=f"w{lane}@{ts}")) for lane in range(3)]
        with trace_routing() as trace:
            system.runtime.run(until=system.runtime.all_of(lanes))
        return [(low, high) for _node, _key, low, high, _at in trace.warmed]

    burst(3)
    assert system.last_ts(KEY) == 5 and tenure(master, KEY).warmed_ts == 11
    system.run_for(system.chord_config.route_cache_ttl + 0.2)
    assert burst(6) == [(8, 8), (9, 9), (10, 12), (13, 14)]
    assert system.last_ts(KEY) == 8


def test_the_first_answer_of_a_tenure_warms_past_what_is_in_flight():
    """A tenure's first allocation has no previous one to pace by, and warms
    all the same: a new Master's writers come round together.  (Pinned: it
    warmed nothing, while one that waited for it was warmed the moment it
    arrived.)  A second arriving while the first is out is published at once
    and warms one timestamp past itself; the answers then go past both."""
    system = build_system()
    master = system.master_service(KEY)
    lanes = [system.runtime.process(master.validate_and_publish(
        key=KEY, ts=1, patches=[make_patch(f"w{lane}", "x")], author=f"w{lane}"))
        for lane in range(2)]
    with trace_routing() as trace:
        system.runtime.run(until=system.runtime.all_of(lanes))
    # The first answer: as much again as it allocated and as is in flight.
    assert [(low, high) for _node, _key, low, high, _at in trace.warmed] == \
        [(3, 3), (4, 5), (6, 6)]
    assert sorted(publish_.timestamps for publish_ in trace.publishes) == [(1,), (2,)]
    alone = build_system()
    with trace_routing() as trace:
        publish(alone, 1)
    assert [(low, high) for _node, _key, low, high, _at in trace.warmed] == [(2, 2)]
    assert tenure(alone.master_service(KEY), KEY).warmed_ts == 2


def test_commits_further_apart_than_the_ttl_are_not_warmed():
    system = build_system()
    ttl = system.chord_config.route_cache_ttl
    with trace_routing() as trace:
        publish(system, 1)            # the tenure's first answer warms ts 2
        for ts in range(2, 5):
            system.run_for(ttl + 0.2)  # the route would be stale when used
            publish(system, 1, start=ts)
        assert [(low, high) for _node, _key, low, high, _at in trace.warmed] == [(2, 2)]
        system.run_for(ttl / 4)
        publish(system, 1, start=5)   # within the TTL of the previous allocation
    assert [(low, high) for _node, _key, low, high, _at in trace.warmed] == [(2, 2), (6, 6)]


def test_horizon_ends_with_the_tenure():
    system = LtrSystem(ltr_config=LtrConfig(), seed=42, latency=ConstantLatency(0.02))
    system.bootstrap(8)
    old_master = publish(system, 3)
    assert tenure(old_master, KEY).warmed_ts > 3
    system.run_for(2.0)
    system.add_peer(find_takeover_joiner(system, KEY))      # the hand-off's release
    assert is_fresh(tenure(old_master, KEY))
    new_master = system.master_service(KEY)
    with trace_routing() as trace:
        publish(system, 1, start=4)   # the new tenure's horizon starts at its first answer
        assert tenure(new_master, KEY).warmed_ts == 5
        publish(system, 1, start=5)
    assert [(low, high) for _node, _key, low, high, _at in trace.warmed] == [(5, 5), (6, 6)]
    # A counter coming back from a stand-in ends the tenure too ...
    counter = new_master.node.storage.get(new_master._authority().storage_key(KEY))
    new_master.node.rpc_receive_items([counter], as_replica=False)
    assert is_fresh(tenure(new_master, KEY))
    # ... as does a counter that moved on elsewhere (found by the next proposal).
    publish(system, 2, start=6)
    ended = tenure(new_master, KEY)
    assert ended.warmed_ts > 7
    new_master._authority().advance_ts(KEY, 9)
    run_validation(system, new_master, KEY, 8, [make_patch("late", "x", 7)], "late")
    # (The *behind* answer then warms the new tenure's first timestamp, the
    # one its proposer comes round for: 10, past last-ts 9 — the counter is
    # still here.)
    current = tenure(new_master, KEY)
    assert current is not ended and (current.tail.entries, current.view) == ([], None)
    assert current.warmed_ts == 10
    # (the re-election guard's drop is test_core_master's in-flight rejection)


def test_master_crash_with_warm_ups_in_flight_is_clean_and_the_next_master_commits():
    system = LtrSystem(chord_config=replace(SCALE_CHORD_CONFIG, stabilize_interval=0.25,
                                            check_predecessor_interval=0.5),
                       seed=11, latency=UniformLatency(0.002, 0.004))
    names = system.bootstrap(24, warm=True)
    key = "xwiki:crash-while-warming"
    master_name = system.master_of(key)
    writer = next(name for name in names if name != master_name)
    for number in range(3):
        system.edit_and_commit(writer, key, f"revision {number}")
    node = system.ring.node(master_name)
    ahead = system.runtime.process(system.master_service(key).validate_and_publish(
        key=key, ts=9, patches=[make_patch("early", "x")], author="early"))
    system.runtime.run(until=ahead)  # answered behind; its warm-ups are on the wire
    assert node._warming
    system.crash(master_name)
    system.run_for(3.0)
    assert node._warming == {}
    result = system.edit_and_commit(writer, key, "after the crash")
    assert result.ts == 4 and system.master_of(key) != master_name
    assert system.runtime.crashed_processes == []
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous


# ---------------------------------------------------------------- the reader --


def range_read(fault):
    """Two cold readers fetch 24 entries, one get at a time and in windows of
    four; returns the trace, each reader's name and window, the range's
    primary identifiers and those of them on the victim Log-Peer."""
    ring = quiet_ring(seed=13)
    family = HashFunctionFamily.create(3, bits=32)
    key = "wiki:windows"
    entries = [LogEntry(key, ts, f"patch-{ts}", author="u1", sig=f"sig-{ts}")
               for ts in range(1, 25)]
    verifier = lambda entry: entry.sig == f"sig-{entry.ts}"  # noqa: E731
    run = lambda generator: ring.runtime.run(until=ring.runtime.process(generator))  # noqa: E731
    run(P2PLogClient(ChordDhtClient(ring.gateway()), family).append_many(entries))
    ring.run_for(1.0)

    primary = family[0]
    log_key = make_log_key(key, 7)
    victim = ring.responsible_node_for_id(primary(log_key))
    wanted = {primary(make_log_key(key, ts)) for ts in range(1, 25)}
    on_victim = {identifier for identifier in wanted
                 if ring.responsible_node_for_id(identifier) is victim}
    if fault == "primary-down":
        # Maintenance sleeps: the ring keeps routing to the dead Log-Peer, and
        # nobody promotes its successor's replica before the reads are over.
        ring.crash(victim.address.name, stabilize=False)
    elif fault == "primary-tampered":
        tamper(ring, family, key, 7, [0])

    readers = [name for name in ring.ring_order() if name != victim.address.name]
    one = P2PLogClient(ChordDhtClient(ring.node(readers[0])), family,
                       entry_verifier=verifier)
    windowed = P2PLogClient(ChordDhtClient(ring.node(readers[8])), family,
                            entry_verifier=verifier)
    ring.clear_route_caches()
    with trace_routing() as trace:
        with mock.patch.object(log_module, "MAX_PARALLEL", 1):
            assert run(one.fetch_range(key, 1, 24)) == entries
        with mock.patch.object(log_module, "MAX_PARALLEL", 4):
            assert run(windowed.fetch_range(key, 1, 24)) == entries
    for log in (one, windowed):
        assert log.retrievals == 24
        assert log.auth_rejects == (1 if fault == "primary-tampered" else 0)
        assert log.fallback_reads == {"none": 0, "primary-tampered": 1,
                                      "primary-down": len(on_victim)}[fault]
    # Only primary placements of the range were asked for: nothing is
    # resolved that is not fetched.
    assert {identifier for _node, identifier in trace.warm_calls} <= wanted
    readers = ((readers[0], 1), (readers[8], 4))
    return trace, readers, wanted, on_victim, primary, key


@pytest.mark.parametrize("fault", ["none", "primary-down", "primary-tampered"])
def test_range_read_resolves_the_next_window_while_this_one_is_fetched(fault):
    """Six windows of four: same entries as one get at a time, every
    identifier routed once, never more than a window's routings in flight.

    Answers carry only the route they were asked for here: with the
    answering peer's routes carried along, the first window would teach the
    reader the whole ring and there would be nothing left to warm (the next
    test)."""
    with mock.patch.object(ChordNode, "_carried_routes", lambda self: ()):
        trace, readers, wanted, on_victim, _primary, _key = range_read(fault)
    for name, window in readers:
        mine = [lookup for lookup in trace.routed if lookup.node == name]
        times_routed = Counter(lookup.target_id for lookup in mine)
        assert {times_routed[identifier] for identifier in wanted - on_victim} <= {0, 1}
        if fault == "primary-down":
            # The cache refuses to serve a route to a peer the network knows
            # is down: what the warm-up learned is purged and routed again.
            assert {times_routed[identifier] for identifier in on_victim} <= {1, 2}
        else:
            assert {times_routed[identifier] for identifier in on_victim} <= {0, 1}
        assert trace.peak_in_flight(name) <= window
        assert any(lookup.warm for lookup in mine)  # windows 2.. were resolved ahead


@pytest.mark.parametrize("fault", ["none", "primary-tampered"])
def test_carried_routes_leave_windows_two_on_nothing_to_route(fault):
    """Answers carry the answering peer's routes.  The first reader starts
    with every cache cleared, so each answer teaches it one arc and it still
    warms ahead; its lookups fill the caches of the peers on their way.  The
    second reader's first window collects those routes, and its windows 2..
    (and the tampered entry's fallback) route nothing at all."""
    trace, readers, _wanted, _on_victim, primary, key = range_read(fault)
    (first, _), (second, window) = readers
    assert any(lookup.warm for lookup in trace.routed if lookup.node == first)
    first_window = {primary(make_log_key(key, ts)) for ts in range(1, window + 1)}
    mine = [lookup for lookup in trace.routed if lookup.node == second]
    assert sorted(lookup.target_id for lookup in mine) == sorted(first_window)
    assert not any(lookup.warm for lookup in mine)
