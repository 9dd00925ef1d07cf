"""Direct tests of the Master-key peer service (repro.core.master).

The protocol-level behaviour is covered by ``test_core_protocol.py``; these
tests target the MasterService internals the paper describes explicitly:
per-document serialization of validations, the behind/ok decision, the
publish-before-ack ordering and the bookkeeping used by the experiments —
on chains of one patch and of several, plus atomicity under re-election.
"""

import pytest

from repro.chord.hashing import hash_to_id
from repro.chord.idspace import in_interval_open_closed
from repro.core import LtrConfig, LtrSystem, MasterService
from repro.core.protocol import ValidationResult
from repro.net import ConstantLatency
from repro.ot import InsertLine, Patch


def build_system(peers=6, seed=95, **ltr_overrides):
    system = LtrSystem(
        ltr_config=LtrConfig(**ltr_overrides) if ltr_overrides else LtrConfig(),
        seed=seed,
        latency=ConstantLatency(0.004),
    )
    system.bootstrap(peers)
    return system


def make_patch(author, text, base_ts=0):
    return Patch((InsertLine(0, text),), base_ts=base_ts, author=author)


def tenure(master, key):
    """What ``master`` knows of ``key`` now (its record holds it from the first proposal)."""
    return master._documents[key].tenure


def is_fresh(current):
    """Nothing of an earlier tenure: no tail, no horizon, no view."""
    return (current.tail.entries, current.warmed_ts, current.view) == ([], 0, None)


def run_validation(system, master, key, ts, patches, author):
    handler = master.validate_and_publish(key=key, ts=ts, patches=patches, author=author)
    payload = system.runtime.run(until=system.runtime.process(handler))
    return ValidationResult.from_payload(payload)


def test_unattached_master_service_raises():
    service = MasterService()
    with pytest.raises(RuntimeError):
        _ = service.hash_family


def test_validate_ok_then_behind():
    """(Pinned *behind* for a stale proposal too; one whose gap the Master
    holds is committed behind it now.  *behind* is what is left for what the
    Master cannot place: a proposal ahead of last-ts, a gap it does not hold.)"""
    system = build_system()
    key = "xwiki:direct"
    master = system.master_service(key)
    first = run_validation(system, master, key, 1, [make_patch("u1", "a")], "u1")
    assert first.accepted and (first.first_ts, first.last_ts) == (1, 1)
    assert first.replicas == system.ltr_config.log_replication_factor
    # a stale proposal (same ts again) lands at the next timestamp
    stale = run_validation(system, master, key, 1, [make_patch("u2", "b")], "u2")
    assert stale.accepted and (stale.first_ts, stale.last_ts) == (2, 2)
    assert [entry.ts for entry in stale.entries] == [1]
    # a proposal too far in the future is answered with "behind"
    future = run_validation(system, master, key, 5, [make_patch("u2", "b")], "u2")
    assert not future.accepted and future.last_ts == 2 and future.entries is None
    # ... and so is a stale one whose gap this Master does not hold any more
    master.end_tenure(key)
    lost = run_validation(system, master, key, 1, [make_patch("u3", "c")], "u3")
    assert not lost.accepted and lost.last_ts == 2 and lost.entries is None
    stats = master.statistics()
    assert stats["proposals_ok"] == 2 and stats["proposals_rebased"] == 1
    assert stats["proposals_behind"] == 2
    assert master.keys_mastered() == {key: 2}


def test_concurrent_validations_are_serialized_per_document():
    system = build_system()
    key = "xwiki:serialized"
    master = system.master_service(key)
    # (Pinned: exactly one wins, the other is sent back.)  Two peers propose
    # ts=1 at the same simulated instant: served one after the other, in
    # arrival order, the second committed behind the first.
    first = system.runtime.process(
        master.validate_and_publish(key=key, ts=1, patches=[make_patch("u1", "a")],
                                    author="u1", base_ts=0)
    )
    second = system.runtime.process(
        master.validate_and_publish(key=key, ts=1, patches=[make_patch("u2", "b")],
                                    author="u2", base_ts=0)
    )
    results = [
        ValidationResult.from_payload(system.runtime.run(until=first)),
        ValidationResult.from_payload(system.runtime.run(until=second)),
    ]
    assert [(result.accepted, result.first_ts, result.last_ts)
            for result in results] == [(True, 1, 1), (True, 2, 2)]
    assert results[0].entries is None
    one, two = system.fetch_log(key, 1, 2)
    assert list(results[1].entries) == [one]
    # The second entry is expressed against the first: both insert at line 0,
    # "a" sorts first, so "b" moved down — and says which state it applies to.
    assert (two.author, two.base_ts, two.patch.base_ts) == ("u2", 1, 1)
    assert two.patch.operations == (InsertLine(1, "b"),)
    assert two.patch.apply(one.patch.apply([])) == ["a", "b"]


def test_distinct_documents_use_distinct_locks():
    system = build_system()
    key_a, key_b = "xwiki:lock-a", "xwiki:lock-b"
    master_a = system.master_service(key_a)
    result_a = run_validation(system, master_a, key_a, 1, [make_patch("u1", "a")], "u1")
    master_b = system.master_service(key_b)
    result_b = run_validation(system, master_b, key_b, 1, [make_patch("u1", "b")], "u1")
    assert result_a.accepted and result_b.accepted
    assert master_a._document(key_a).lock is not master_a._document(key_b).lock


def test_publish_before_ack_writes_log_before_advancing_counter():
    system = build_system()
    key = "xwiki:ordering"
    master = system.master_service(key)
    result = run_validation(system, master, key, 1, [make_patch("u1", "a")], "u1")
    assert result.accepted
    # the published entry is retrievable and the counter matches it
    entries = system.fetch_log(key, 1, 1)
    assert len(entries) == 1
    assert entries[0].author == "u1"
    assert system.last_ts(key) == 1


def test_batch_validation_assigns_a_dense_range_in_one_round():
    system = build_system()
    key = "xwiki:batch-direct"
    master = system.master_service(key)
    patches = [make_patch("u1", f"line {index}") for index in range(3)]
    result = run_validation(system, master, key, 1, patches, "u1")
    assert result.accepted
    assert (result.first_ts, result.last_ts) == (1, 3)
    assert result.replicas == system.ltr_config.log_replication_factor
    entries = system.fetch_log(key, 1, 3)
    assert [entry.ts for entry in entries] == [1, 2, 3]
    authority = master._authority()
    assert authority.last_ts(key) == 3
    assert authority.allocations == 1  # the whole batch consumed one advance
    # (Pinned *behind* for the stale chain.)  A stale chain of two lands as
    # one dense range behind the three it missed, in one more round.
    stale = run_validation(system, master, key, 1,
                           [make_patch("u2", "late"), make_patch("u2", "later")], "u2")
    assert stale.accepted and (stale.first_ts, stale.last_ts) == (4, 5)
    assert [entry.ts for entry in stale.entries] == [1, 2, 3]
    assert authority.last_ts(key) == 5 and authority.allocations == 2
    stats = master.statistics()
    assert stats["proposals_ok"] == 2 and stats["proposals_rebased"] == 1
    assert stats["proposals_behind"] == 0
    assert stats["patches_published"] == 5


def find_takeover_joiner(system, key: str) -> str:
    """A joiner name whose ring id takes over responsibility for ``key``."""
    target = system.ht(key)
    owner = system.ring.responsible_node_for_id(target)
    pred = owner.predecessor
    bits = system.chord_config.bits
    for index in range(200_000):
        name = f"takeover-{index}"
        joiner_id = hash_to_id(name, bits)
        if (
            joiner_id != owner.node_id
            and in_interval_open_closed(joiner_id, pred.node_id, owner.node_id)
            and in_interval_open_closed(target, pred.node_id, joiner_id)
        ):
            return name
    raise AssertionError(f"no takeover joiner found for {key!r}")


def assert_in_flight_chain_is_rejected_atomically(chain_length):
    """A join that takes over the Master-key role while a chain is being
    published must not let the old Master advance the (now handed-off)
    counter — the whole chain is rejected, no timestamp is consumed, and
    the sequence continues densely at the new Master."""
    system = LtrSystem(ltr_config=LtrConfig(), seed=42, latency=ConstantLatency(0.02))
    system.bootstrap(8)
    key = "xwiki:reelect"
    system.edit_and_commit("peer-0", key, "base revision")
    system.run_for(2.0)
    joiner = find_takeover_joiner(system, key)

    old_master = system.master_service(key)
    patches = [make_patch("u9", f"chain line {index}", base_ts=1)
               for index in range(chain_length)]
    process = system.runtime.process(
        old_master.validate_and_publish(key=key, ts=2, patches=patches,
                                        author="u9", base_ts=1)
    )
    system.runtime.run(until=system.runtime.now + 0.005)  # the publish is now in flight
    system.add_peer(joiner)  # hand-off happens while the chain publishes
    result = ValidationResult.from_payload(system.runtime.run(until=process))

    assert result.rejected, "old master committed a chain after losing the key"
    assert old_master.proposals_rejected == 1
    # Never-allocated entries must not be handed to a stale proposer later.
    assert is_fresh(tenure(old_master, key))
    assert system.master_of(key) == joiner
    assert system.last_ts(key) == 1  # nothing was consumed
    # The rejected chain's published entries were retracted: no orphan
    # patches are readable at the never-allocated timestamps.
    from repro.errors import KeyNotFound, PatchUnavailable
    log = system.log_client()
    for orphan_ts in range(2, 2 + chain_length):
        with pytest.raises((PatchUnavailable, KeyNotFound)):
            system.runtime.run(until=system.runtime.process(log.fetch(key, orphan_ts)))
    # The sequence continues densely at the new Master.
    follow_up = system.edit_and_commit("peer-0", key, "post-reelection revision")
    assert follow_up.ts == 2
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous


def test_reelection_during_in_flight_batch_rejects_atomically():
    """Regression: the re-election guard rejects a chain of three wholesale."""
    assert_in_flight_chain_is_rejected_atomically(3)


def test_reelection_during_in_flight_single_validation_rejects_atomically():
    """The same guard on the paper's shape, a chain of one."""
    assert_in_flight_chain_is_rejected_atomically(1)


def test_flush_retries_through_reelection_and_commits_at_new_master():
    """End-to-end: a user flush racing a Master takeover retries after the
    atomic rejection and lands the whole batch at the new Master."""
    system = LtrSystem(
        ltr_config=LtrConfig(batch_max_edits=8, validation_retry_delay=0.3),
        seed=42,
        latency=ConstantLatency(0.02),
    )
    system.bootstrap(8)
    key = "xwiki:reelect-flush"
    system.edit_and_commit("peer-0", key, "base revision")
    system.run_for(2.0)
    joiner = find_takeover_joiner(system, key)

    writer = system.user("peer-0")
    for index in range(3):
        writer.stage(key, f"staged {index}\nbase revision")
    flush = system.runtime.process(writer.flush(key))
    system.runtime.run(until=system.runtime.now + 0.005)
    system.add_peer(joiner)
    outcome = system.runtime.run(until=flush)

    assert outcome is not None and outcome.edits == 3
    assert (outcome.first_ts, outcome.ts) == (2, 4)
    assert system.last_ts(key) == 4
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous


def test_handle_last_ts_matches_authority():
    system = build_system()
    key = "xwiki:last"
    assert system.master_service(key).handle_last_ts(key) == 0
    system.edit_and_commit("peer-0", key, "content")
    master = system.master_service(key)
    assert master.handle_last_ts(key) == 1
    assert master._authority().last_ts(key) == 1


# ---------------------------------------------------------- overlapping rounds --
#
# A proposal is placed behind the rounds still at the Log-Peers as soon as it
# arrives, and published at once; allocation stays in timestamp order.
# ``tests/test_master_rebase.py`` proves the rounds equal to the same proposals
# served one by one; these pin what overlapping may not change.

ROUNDS_KEY = "xwiki:rounds"


def arrive_together(system, master, proposals, key=ROUNDS_KEY):
    """Spawn ``proposals`` (keyword arguments of the RPC) at one instant: each
    is placed behind the ones before it and published at once."""
    return [system.runtime.process(master.validate_and_publish(key=key, **arguments))
            for arguments in proposals]


def outcomes(system, lanes, parse=ValidationResult.from_payload):
    """Every lane's answer, or the exception it raised."""
    results = []
    for lane in lanes:
        try:
            results.append(parse(system.runtime.run(until=lane)))
        except Exception as error:  # noqa: BLE001 - the tests look at what it is
            results.append(error)
    return results


def proposal(author, ts, lines=("x",), **extra):
    return dict(ts=ts, author=author, base_ts=ts - 1,
                patches=[make_patch(author, f"{author} {line}", ts - 1) for line in lines],
                **extra)


def run_until_in_flight(system, master, entries, key=ROUNDS_KEY):
    """Step until ``entries`` entries are placed at the Log-Peers, not yet allocated."""
    queue = master._document(key)
    while queue.in_flight != entries:
        assert system.runtime.now < 60
        system.runtime.run(until=system.runtime.now + 0.001)


def recorded_publishes(system, master):
    """Wrap the Master's ``append_many``: ``(first ts, started, returned)`` of
    every publish, in the order they return."""
    publishes = []
    plain = master.log.append_many

    def recording(entries):
        started = system.runtime.now
        result = yield from plain(entries)
        publishes.append((entries[0].ts, started, system.runtime.now))
        return result

    master.log.append_many = recording
    return publishes


def test_proposals_arriving_together_are_in_flight_together_each_its_own_answer():
    system = build_system()
    master = system.master_service(ROUNDS_KEY)
    authority = master._authority()
    publishes = recorded_publishes(system, master)
    lanes = arrive_together(system, master, [
        proposal("first", 1), proposal("a", 1), proposal("b", 1, lines=("1", "2")),
        proposal("c", 1)])
    first, a, b, c = outcomes(system, lanes)
    assert [(r.first_ts, r.last_ts) for r in (first, a, b, c)] == \
        [(1, 1), (2, 2), (3, 4), (5, 5)]
    # Each gap is its own: what it was behind by, the rounds in flight included.
    assert [[entry.ts for entry in r.entries or []] for r in (first, a, b, c)] == \
        [[], [1], [1, 2], [1, 2, 3, 4]]
    assert all(r.replicas == system.ltr_config.log_replication_factor
               for r in (first, a, b, c))
    # One publish and one allocation a proposal, and every publish went out
    # before the first came back: the second did not wait for the first.
    assert (authority.allocations, master.log.published_entries) == (4, 5)
    started = {ts: at for ts, at, _returned in publishes}
    first_back = min(returned for _ts, _started, returned in publishes)
    assert sorted(started) == [1, 2, 3, 5] and max(started.values()) < first_back
    stats = master.statistics()
    assert (stats["publishes"], stats["proposals_ok"], stats["proposals_rebased"],
            stats["patches_published"]) == (4, 4, 3, 5)
    assert [entry.author for entry in tenure(master, ROUNDS_KEY).tail.entries] == \
        ["first", "a", "b", "b", "c"]
    assert [entry.base_ts for entry in system.fetch_log(ROUNDS_KEY, 1, 5)] == [0, 1, 2, 3, 4]
    assert not master._document(ROUNDS_KEY).rounds


def test_allocation_stays_in_order_when_a_later_publish_returns_first():
    """The second round is back from its Log-Peers while the first is still
    out: it waits — counter, tail and answer — for the first to be allocated."""
    system = build_system()
    master = system.master_service(ROUNDS_KEY)
    authority = master._authority()
    plain = master.log.append_many
    allocated = []
    next_timestamps = authority.next_timestamps

    def slow_first(entries):
        if entries[0].ts == 1:
            yield system.runtime.timeout(0.5)
        result = yield from plain(entries)
        return result

    def recording(key, count):
        allocated.append((next_timestamps(key, count), system.runtime.now))
        return allocated[-1][0]

    master.log.append_many = slow_first
    authority.next_timestamps = recording
    lanes = arrive_together(system, master, [proposal("slow", 1), proposal("fast", 1)])
    system.runtime.run(until=system.runtime.now + 0.25)
    # The fast one is back from the Log-Peers; nothing is allocated or held.
    assert system.fetch_log(ROUNDS_KEY, 2, 2)[0].author == "fast"
    assert (authority.last_ts(ROUNDS_KEY), lanes[1].triggered) == (0, False)
    assert tenure(master, ROUNDS_KEY).tail.entries == []
    slow, fast = outcomes(system, lanes)
    assert [ts for ts, _at in allocated] == [1, 2]
    assert allocated[0][1] >= 0.5 and allocated[1][1] == allocated[0][1]
    assert (slow.first_ts, fast.first_ts) == (1, 2)
    assert [entry.ts for entry in tenure(master, ROUNDS_KEY).tail.entries] == [1, 2]
    report = system.check_consistency(ROUNDS_KEY)
    assert report.converged and report.log_continuous


def test_a_behind_proposal_is_answered_after_the_rounds_ahead_of_it():
    """Proposed ahead of last-ts while a round is out: it is answered once that
    round is allocated, with the ``last-ts`` that holds then — so it does not
    come round again for that round's entry."""
    system = build_system()
    master = system.master_service(ROUNDS_KEY)
    plain = master.log.append_many

    def slow(entries):
        yield system.runtime.timeout(0.5)
        result = yield from plain(entries)
        return result

    master.log.append_many = slow
    out, early = arrive_together(system, master, [proposal("out", 1), proposal("early", 5)])
    system.runtime.run(until=system.runtime.now + 0.25)
    assert not early.triggered
    answers = outcomes(system, [out, early])
    assert answers[0].accepted and answers[0].last_ts == 1
    assert not answers[1].accepted and answers[1].last_ts == 1
    assert master.statistics()["proposals_behind"] == 1


def test_a_member_that_cannot_be_placed_raises_alone():
    """Isolation: an empty chain, a patch that cannot be transformed — the
    proposer to blame gets the error, the others land densely around it."""
    from repro.errors import ReproError, ValidationFailed

    system = build_system()
    master = system.master_service(ROUNDS_KEY)
    empty = dict(ts=1, author="empty", base_ts=0, patches=[])
    broken = dict(ts=1, author="broken", base_ts=0, patches=["not a patch"])
    lanes = arrive_together(system, master, [
        proposal("first", 1), proposal("a", 1), empty, broken, proposal("b", 1)])
    first, a, nothing, untransformable, b = outcomes(system, lanes)
    assert [(r.first_ts, r.last_ts) for r in (first, a, b)] == [(1, 1), (2, 2), (3, 3)]
    # (Pinned by reading: a bare ValueError, which the proposer's error
    # handling — it restores the chain on ReproError — did not know.)
    assert isinstance(nothing, ValidationFailed) and isinstance(nothing, ReproError)
    assert isinstance(untransformable, AttributeError)
    assert system.last_ts(ROUNDS_KEY) == 3 and master.statistics()["proposals_ok"] == 3
    # Alone at the Master it is the same error.
    with pytest.raises(ValidationFailed):
        system.runtime.run(until=system.runtime.process(
            master.validate_and_publish(key=ROUNDS_KEY, **empty)))


@pytest.mark.parametrize("behind", [1, 3])
def test_reelection_while_rounds_are_out_rejects_every_one_and_retracts_once(behind):
    """The chain-length 1 | 3 re-election regression, on 1 | 3 rounds behind
    the first: a join takes the arc while all are at the Log-Peers — the first
    round is rejected, every round behind it too (they were transformed over
    it), all their entries are retracted in one go and none enters the tail."""
    from unittest import mock

    from repro.errors import KeyNotFound, PatchUnavailable

    system = LtrSystem(ltr_config=LtrConfig(), seed=42, latency=ConstantLatency(0.02))
    system.bootstrap(8)
    key = "xwiki:reelect"
    system.edit_and_commit("peer-0", key, "base revision")
    system.run_for(2.0)
    joiner = find_takeover_joiner(system, key)
    old_master = system.master_service(key)
    plain = old_master.log.append_many

    def slow(entries):
        # (Their routes were warmed by the base revision's answer: without this
        # a publish is one round-trip, over before any join gets anywhere.)
        yield system.runtime.timeout(1.0)
        result = yield from plain(entries)
        return result

    old_master.log.append_many = slow
    with mock.patch.object(old_master.log, "retract_many",
                           wraps=old_master.log.retract_many) as retractions:
        lanes = arrive_together(system, old_master, [proposal("first", 2)] + [
            proposal(f"u{member}", 2) for member in range(behind)], key=key)
        run_until_in_flight(system, old_master, 1 + behind, key=key)
        system.add_peer(joiner)  # hand-off happens while the rounds publish
        results = outcomes(system, lanes)
    assert all(result.rejected and result.entries is None for result in results)
    assert old_master.proposals_rejected == 1 + behind
    assert retractions.call_count == 1
    assert [entry.ts for entry in retractions.call_args.args[0]] == list(range(2, 3 + behind))
    assert is_fresh(tenure(old_master, key)) and not old_master._document(key).rounds
    assert system.master_of(key) == joiner and system.last_ts(key) == 1
    log = system.log_client()
    for orphan_ts in range(2, 3 + behind):
        with pytest.raises((PatchUnavailable, KeyNotFound)):
            system.runtime.run(until=system.runtime.process(log.fetch(key, orphan_ts)))
    follow_up = system.edit_and_commit("peer-0", key, "post-reelection revision")
    assert follow_up.ts == 2
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous


def test_a_failed_publish_fails_the_rounds_behind_it_and_is_retracted_once():
    """Atomicity: the Log-Peers refuse the second round — it and the round
    transformed over it raise ``PatchUnavailable`` and get their edits back;
    the round ahead of it is not touched; both are retracted in one go, and
    count as out at the Log-Peers (``entries_out``) until they are."""
    from unittest import mock

    from repro.errors import PatchUnavailable

    system = build_system()
    names = system.peer_names()
    master = system.master_service(ROUNDS_KEY)
    writers = [name for name in names if name != master.node.address.name][:3]
    system.edit_and_commit(writers[0], ROUNDS_KEY, "base")
    for name in writers:
        system.sync(name, ROUNDS_KEY)
    plain = master.log.append_many
    rounds = []

    def second_round_fails(entries):
        rounds.append(len(entries))
        if len(rounds) == 2:
            yield system.runtime.timeout(0.004)
            raise PatchUnavailable(ROUNDS_KEY, entries[0].ts)
        result = yield from plain(entries)
        return result

    plain_retract = master.log.retract_many
    out_when_retracted = []

    def counted_retract(entries):
        out_when_retracted.append(master.entries_out(ROUNDS_KEY))
        result = yield from plain_retract(entries)
        return result

    commits = []
    with mock.patch.object(master.log, "append_many", second_round_fails), \
            mock.patch.object(master.log, "retract_many",
                              wraps=counted_retract) as retractions:
        for name in writers:
            system.user(name).edit(ROUNDS_KEY, f"base\nby {name}")
            commits.append(system.runtime.process(system.user(name).commit(ROUNDS_KEY)))
        first, *failed = outcomes(system, commits, parse=lambda result: result)
    assert first.ts == 2 and rounds == [1, 1, 1]
    assert [type(error) for error in failed] == [PatchUnavailable, PatchUnavailable]
    assert retractions.call_count == 1
    assert [entry.ts for entry in retractions.call_args.args[0]] == [3, 4]
    assert out_when_retracted == [2] and master.entries_out(ROUNDS_KEY) == 0
    assert system.last_ts(ROUNDS_KEY) == 2 and master.statistics()["publishes"] == 2
    assert [entry.ts for entry in tenure(master, ROUNDS_KEY).tail.entries] == [1, 2]
    # Every proposer has its edit back and lands it with the next commit.
    for name in writers[1:]:
        assert system.user(name).has_pending(ROUNDS_KEY)
        system.commit(name, ROUNDS_KEY)
    assert system.last_ts(ROUNDS_KEY) == 4
    report = system.check_consistency(ROUNDS_KEY)
    assert report.converged and report.log_continuous
    lines = system.user(writers[0]).document(ROUNDS_KEY).lines
    system.sync(writers[0], ROUNDS_KEY)
    assert sorted(system.user(writers[0]).document(ROUNDS_KEY).lines) == \
        sorted(["base"] + [f"by {name}" for name in writers]), lines


def test_what_is_in_flight_stays_within_the_tail_bounds(monkeypatch):
    """The entries out at once are held to the tail's bounds, in entries and in
    bytes — a gap ends in them; who does not fit waits for the oldest round."""
    from repro.core import master as master_module

    sizes = []

    def peak_in_flight(arrivals):
        system = build_system()
        master = system.master_service(ROUNDS_KEY)
        queue = master._document(ROUNDS_KEY)
        peaks = []
        plain = master.log.append_many

        def counting(entries):
            peaks.append(queue.in_flight)
            sizes.extend(queue.rounds[-1].sizes)
            result = yield from plain(entries)
            return result

        master.log.append_many = counting
        results = outcomes(system, arrive_together(system, master, arrivals))
        assert all(result.accepted for result in results)
        assert system.last_ts(ROUNDS_KEY) == sum(len(a["patches"]) for a in arrivals)
        report = system.check_consistency(ROUNDS_KEY)
        assert report.converged and report.log_continuous
        return max(peaks)

    # Seven of one entry each, all proposing ts 1: each is placed behind the
    # ones before it, transformed over what is in flight.
    arrivals = [proposal(f"u{n}", 1) for n in range(7)]
    assert peak_in_flight(arrivals) == 7
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 4)
    assert peak_in_flight(arrivals) == 4
    # (The tail is held to the same bounds, so from here on every proposal is
    # exactly next: none needs a gap the smaller tail no longer holds.)
    chain = [proposal("w", 1, lines="abc"), proposal("v", 4), proposal("u", 5)]
    assert peak_in_flight(chain) == 4  # a chain counts by its entries: 3 + 1
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 2)
    assert peak_in_flight(chain) == 3  # the first goes whatever its size, alone
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 256)
    monkeypatch.setattr(master_module, "TAIL_MAX_BYTES", max(sizes) * 5 // 2)
    assert peak_in_flight([proposal(f"u{n}", n + 1) for n in range(7)]) == 2


def test_rounds_across_a_boundary_write_one_checkpoint_at_the_boundary():
    system = build_system(checkpoint_interval=4)
    master = system.master_service(ROUNDS_KEY)
    lanes = arrive_together(system, master, [proposal(f"u{n}", 1) for n in range(6)])
    results = outcomes(system, lanes)
    assert [result.last_ts for result in results] == [1, 2, 3, 4, 5, 6]
    system.run_for(1.0)
    # The boundary 4 is crossed by the fourth round while the others are out:
    # one checkpoint, at the boundary, cut from the view as it stood there —
    # what the log replays to at ts 4, not at the end of what was in flight.
    assert master.checkpoints_written == 1
    assert tenure(master, ROUNDS_KEY).view.applied_ts == 6
    assert len(assert_one_checkpoint_is_the_replay(system, master, ROUNDS_KEY, 4)) == 4

# --------------------------------------------------- checkpoints in the background --
#
# A checkpoint is written after the round that made it due has been answered:
# the commit ends at publication, the snapshot is a retrieval aid.


def assert_one_checkpoint_is_the_replay(system, master, key, ts):
    """Exactly one checkpoint was written, at ``ts``, holding what the log
    replays to there, and it is the one a reader finds."""
    assert master.checkpoints_written == 1
    checkpoint = system.latest_checkpoint(key)
    assert checkpoint.ts == ts
    lines = []
    for entry in system.fetch_log(key, 1, ts):
        lines = entry.patch.apply(lines)
    assert list(checkpoint.lines) == lines
    return lines


def a_writer(system, master):
    return next(name for name in system.peer_names() if name != master.node.address.name)


def test_the_commit_that_crosses_the_interval_is_answered_before_its_checkpoint():
    system = build_system(checkpoint_interval=2)
    key = "xwiki:ckpt-answer-first"
    master = system.master_service(key)
    writer = a_writer(system, master)
    system.edit_and_commit(writer, key, "revision 0")
    order = []
    plain = master.log.publish_checkpoint

    def publish_checkpoint(checkpoint):
        result = yield from plain(checkpoint)
        order.append(("stored", checkpoint.ts))
        return result

    def commit():
        result = yield from system.user(writer).commit(key)
        order.append(("answered", result.ts))
        return result

    master.log.publish_checkpoint = publish_checkpoint
    system.user(writer).edit(key, "revision 1\nrevision 0")
    result = system.runtime.run(until=system.runtime.process(commit()))
    assert result.attempts == 1 and master.checkpoints_written == 0
    system.run_for(2.0)
    assert order == [("answered", 2), ("stored", 2)]
    assert_one_checkpoint_is_the_replay(system, master, key, 2)


def test_a_failed_checkpoint_write_never_reaches_the_proposer():
    """The job nobody waits for fails with an error of the library (not one
    that the log's best-effort publish swallows): the proposer is answered
    all the same, once, and no process is left crashed."""
    from repro.errors import LookupFailed

    system = build_system(checkpoint_interval=3)
    key = "xwiki:ckpt-lost"
    master = system.master_service(key)
    writer = a_writer(system, master)
    plain = master.log.publish_checkpoint

    def unroutable(checkpoint):
        yield system.runtime.timeout(0.004)
        raise LookupFailed(f"no route to the placements of checkpoint {checkpoint.ts}")

    master.log.publish_checkpoint = unroutable
    results = [system.edit_and_commit(writer, key, f"revision {n}") for n in range(3)]
    assert [(result.ts, result.attempts) for result in results] == [(1, 1), (2, 1), (3, 1)]
    assert not system.user(writer).has_pending(key)
    system.run_for(2.0)
    assert master.checkpoints_written == 0 and system.runtime.crashed_processes == []
    # A lost job only means the next boundary writes one.
    master.log.publish_checkpoint = plain
    for n in range(3, 6):
        system.edit_and_commit(writer, key, f"revision {n}")
    system.run_for(2.0)
    assert_one_checkpoint_is_the_replay(system, master, key, 6)
    assert system.runtime.crashed_processes == []


def test_a_refused_proposal_between_rounds_leaves_the_checkpoint_to_the_round_that_crosses():
    """A proposal fails verification while rounds are out around it; the
    round that crosses the interval writes its checkpoint."""
    from repro.errors import ValidationFailed

    system = build_system(checkpoint_interval=3)
    master = system.master_service(ROUNDS_KEY)
    empty = dict(ts=1, author="empty", base_ts=0, patches=[])
    lanes = arrive_together(system, master, [
        proposal("first", 1), empty, proposal("a", 1), proposal("b", 1)])
    first, refused, a, b = outcomes(system, lanes)
    assert isinstance(refused, ValidationFailed)
    assert [(r.first_ts, r.last_ts) for r in (first, a, b)] == [(1, 1), (2, 2), (3, 3)]
    assert master.statistics()["publishes"] == 3
    system.run_for(2.0)
    assert len(assert_one_checkpoint_is_the_replay(system, master, ROUNDS_KEY, 3)) == 3


def test_no_round_is_orphaned_when_a_handler_dies_mid_publish():
    """No orphan: the handler of the second of four rounds is killed while all
    are out — the rounds behind it leave with ``PatchUnavailable`` (they were
    transformed over its entries), none with ``None``; the round ahead of it
    lands; nothing is left in flight, the lock is free, and the entries of the
    three rounds given up are retracted in one go."""
    from unittest import mock

    from repro.errors import KeyNotFound, PatchUnavailable, ProcessInterrupted

    system = build_system()
    master = system.master_service(ROUNDS_KEY)
    with mock.patch.object(master.log, "retract_many",
                           wraps=master.log.retract_many) as retractions:
        lanes = arrive_together(system, master, [proposal(f"u{n}", 1) for n in range(4)])
        run_until_in_flight(system, master, 4)
        lanes[1].interrupt("killed")
        first, killed, *orphans = outcomes(system, lanes)
    assert first.accepted and isinstance(killed, ProcessInterrupted)
    assert [type(error) for error in orphans] == [PatchUnavailable, PatchUnavailable]
    queue = master._documents[ROUNDS_KEY]
    assert not queue.lock.locked and not queue.rounds
    assert system.last_ts(ROUNDS_KEY) == 1
    assert retractions.call_count == 1
    assert [entry.ts for entry in retractions.call_args.args[0]] == [2, 3, 4]
    log = system.log_client()
    for orphan_ts in (2, 3, 4):
        with pytest.raises((PatchUnavailable, KeyNotFound)):
            system.runtime.run(until=system.runtime.process(log.fetch(ROUNDS_KEY, orphan_ts)))
    # Nothing was allocated; the proposers come again and land.
    again = run_validation(system, master, ROUNDS_KEY, 2,
                           [make_patch("u1", "again", 1)], "u1")
    assert again.accepted and again.first_ts == 2
