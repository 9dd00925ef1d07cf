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


# ------------------------------------------------------------- group commit --
#
# The handler that holds a document's lock serves the proposals queued behind
# it in one round.  ``tests/test_master_rebase.py`` proves a group equal to the
# same proposals served one by one; these pin what a group may not change.

GROUP_KEY = "xwiki:group"


def queue_behind_a_publish(system, master, proposals, key=GROUP_KEY):
    """Spawn ``proposals`` (keyword arguments of the RPC) at one instant: the
    first takes the lock and publishes alone, the others queue behind it."""
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


def run_until_the_group_is_out(system, master, holder, entries, key=GROUP_KEY):
    """Step until the holder is answered and ``entries`` entries of the group
    behind it are at the Log-Peers, not yet allocated."""
    queue = master._document(key)
    while not (holder.triggered and queue.publishing == entries):
        assert system.runtime.now < 60
        system.runtime.run(until=system.runtime.now + 0.001)


def test_a_group_is_one_publish_one_allocation_and_every_member_its_own_answer():
    system = build_system()
    master = system.master_service(GROUP_KEY)
    authority = master._authority()
    lanes = queue_behind_a_publish(system, master, [
        proposal("holder", 1), proposal("a", 1), proposal("b", 1, lines=("1", "2")),
        proposal("c", 1)])
    holder, a, b, c = outcomes(system, lanes)
    assert [(r.first_ts, r.last_ts) for r in (holder, a, b, c)] == \
        [(1, 1), (2, 2), (3, 4), (5, 5)]
    # Each member's gap is its own: what it was behind by, members ahead included.
    assert [[entry.ts for entry in r.entries or []] for r in (holder, a, b, c)] == \
        [[], [1], [1, 2], [1, 2, 3, 4]]
    assert all(r.replicas == system.ltr_config.log_replication_factor
               for r in (holder, a, b, c))
    assert (authority.allocations, master.log.published_entries) == (2, 5)
    stats = master.statistics()
    assert (stats["publishes"], stats["proposals_ok"], stats["proposals_rebased"],
            stats["patches_published"]) == (2, 4, 3, 5)
    assert system.statistics()["publishes"] == 2
    assert [entry.author for entry in tenure(master, GROUP_KEY).tail.entries] == \
        ["holder", "a", "b", "b", "c"]
    assert [entry.base_ts for entry in system.fetch_log(GROUP_KEY, 1, 5)] == [0, 1, 2, 3, 4]


def test_a_member_that_cannot_be_placed_raises_alone():
    """Isolation: an empty chain, a patch that cannot be transformed — the
    proposer to blame gets the error, the others land densely around it."""
    from repro.errors import ReproError, ValidationFailed

    system = build_system()
    master = system.master_service(GROUP_KEY)
    empty = dict(ts=1, author="empty", base_ts=0, patches=[])
    broken = dict(ts=1, author="broken", base_ts=0, patches=["not a patch"])
    lanes = queue_behind_a_publish(system, master, [
        proposal("holder", 1), proposal("a", 1), empty, broken, proposal("b", 1)])
    holder, a, nothing, untransformable, b = outcomes(system, lanes)
    assert [(r.first_ts, r.last_ts) for r in (holder, a, b)] == [(1, 1), (2, 2), (3, 3)]
    # (Pinned by reading: a bare ValueError, which the proposer's error
    # handling — it restores the chain on ReproError — did not know.)
    assert isinstance(nothing, ValidationFailed) and isinstance(nothing, ReproError)
    assert isinstance(untransformable, AttributeError)
    assert system.last_ts(GROUP_KEY) == 3 and master.statistics()["proposals_ok"] == 3
    # Alone at the Master it is the same error.
    with pytest.raises(ValidationFailed):
        system.runtime.run(until=system.runtime.process(
            master.validate_and_publish(key=GROUP_KEY, **empty)))


@pytest.mark.parametrize("members", [1, 3])
def test_reelection_during_a_groups_publish_rejects_every_member(members):
    """The chain-length 1 | 3 re-election regression, on a group of 1 | 3: a
    join takes the arc while the group publishes — every member is rejected,
    everything is retracted, nothing enters the tail."""
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
        # (The group's routes were warmed when it queued: without this its
        # publish is one round-trip, over before any join gets anywhere.)
        yield system.runtime.timeout(1.0)
        result = yield from plain(entries)
        return result

    lanes = queue_behind_a_publish(system, old_master, [proposal("holder", 2)] + [
        proposal(f"u{member}", 2) for member in range(members)], key=key)
    system.runtime.run(until=system.runtime.now + 0.005)  # the holder's publish is in flight
    old_master.log.append_many = slow
    run_until_the_group_is_out(system, old_master, lanes[0], members, key=key)
    system.add_peer(joiner)  # hand-off happens while the group publishes
    holder, *group = outcomes(system, lanes)
    assert holder.accepted and holder.last_ts == 2
    assert all(result.rejected and result.entries is None for result in group)
    assert old_master.proposals_rejected == members
    assert is_fresh(tenure(old_master, key))
    assert system.master_of(key) == joiner and system.last_ts(key) == 2
    log = system.log_client()
    for orphan_ts in range(3, 3 + members):
        with pytest.raises((PatchUnavailable, KeyNotFound)):
            system.runtime.run(until=system.runtime.process(log.fetch(key, orphan_ts)))
    follow_up = system.edit_and_commit("peer-0", key, "post-reelection revision")
    assert follow_up.ts == 3
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous


def test_a_failed_publish_raises_at_every_member_and_is_retracted_once():
    """Atomicity: the Log-Peers refuse the group's round — every proposer in
    it gets ``PatchUnavailable`` and its edits back, a repeat of a member
    included; the concatenation is retracted in one go, after the lock."""
    from unittest import mock

    from repro.errors import PatchUnavailable

    system = build_system()
    names = system.peer_names()
    master = system.master_service(GROUP_KEY)
    writers = [name for name in names if name != master.node.address.name][:3]
    system.edit_and_commit(writers[0], GROUP_KEY, "base")
    for name in writers:
        system.sync(name, GROUP_KEY)
    plain = master.log.append_many
    rounds = []

    def second_round_fails(entries):
        rounds.append(len(entries))
        if len(rounds) == 2:
            yield system.runtime.timeout(0.004)
            raise PatchUnavailable(GROUP_KEY, entries[0].ts)
        result = yield from plain(entries)
        return result

    commits = []
    with mock.patch.object(master.log, "append_many", second_round_fails), \
            mock.patch.object(master.log, "retract_many",
                              wraps=master.log.retract_many) as retractions:
        for name in writers:
            system.user(name).edit(GROUP_KEY, f"base\nby {name}")
            commits.append(system.runtime.process(system.user(name).commit(GROUP_KEY)))
        first, *failed = outcomes(system, commits, parse=lambda result: result)
    assert first.ts == 2 and rounds == [1, 2]
    assert [type(error) for error in failed] == [PatchUnavailable, PatchUnavailable]
    assert retractions.call_count == 1
    assert [entry.ts for entry in retractions.call_args.args[0]] == [3, 4]
    assert system.last_ts(GROUP_KEY) == 2 and master.statistics()["publishes"] == 2
    assert [entry.ts for entry in tenure(master, GROUP_KEY).tail.entries] == [1, 2]
    # Every proposer has its edit back and lands it with the next commit.
    for name in writers[1:]:
        assert system.user(name).has_pending(GROUP_KEY)
        system.commit(name, GROUP_KEY)
    assert system.last_ts(GROUP_KEY) == 4
    report = system.check_consistency(GROUP_KEY)
    assert report.converged and report.log_continuous
    lines = system.user(writers[0]).document(GROUP_KEY).lines
    system.sync(writers[0], GROUP_KEY)
    assert sorted(system.user(writers[0]).document(GROUP_KEY).lines) == \
        sorted(["base"] + [f"by {name}" for name in writers]), lines


def test_a_queue_beyond_the_tail_bounds_is_served_in_two_groups(monkeypatch):
    """A group's entries are one stretch of the tail: bounded by its bounds,
    in entries and in bytes; who does not fit is the next holder's."""
    from repro.core import master as master_module
    from repro.net import payload_size

    def sizes_of_the_rounds(queue):
        system = build_system()
        master = system.master_service(GROUP_KEY)
        rounds = []
        plain = master.log.append_many

        def counting(entries):
            rounds.append(len(entries))
            result = yield from plain(entries)
            return result

        master.log.append_many = counting
        results = outcomes(system, queue_behind_a_publish(system, master, queue))
        assert all(result.accepted for result in results)
        assert system.last_ts(GROUP_KEY) == sum(rounds)
        return rounds

    # The holder, and three pairs that each propose what comes then (nobody
    # is behind by more than its pair: the bounds below shrink the tail too).
    queue = [proposal("holder", 1)] + [
        proposal(f"u{ts}{n}", ts) for ts in (2, 4, 6) for n in range(2)]
    assert sizes_of_the_rounds(queue) == [1, 6]
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 4)
    assert sizes_of_the_rounds(queue) == [1, 4, 2]
    chain = [proposal("holder", 1)] + [proposal("w", 1, lines="abc"), proposal("v", 5)]
    assert sizes_of_the_rounds(chain) == [1, 4]  # a chain counts by its entries: 3 + 1
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 2)
    assert sizes_of_the_rounds(chain) == [1, 3, 1]  # the head goes whatever its size, alone
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 256)
    one = payload_size(proposal("u20", 2)["patches"])
    monkeypatch.setattr(master_module, "TAIL_MAX_BYTES", 2 * one + one // 2)
    assert sizes_of_the_rounds(queue) == [1, 2, 2, 2]


def test_a_boundary_crossed_inside_a_group_is_one_checkpoint_at_the_boundary():
    system = build_system(checkpoint_interval=4)
    master = system.master_service(GROUP_KEY)
    lanes = queue_behind_a_publish(system, master, [
        proposal("holder", 1)] + [proposal(f"u{n}", 1) for n in range(5)])
    results = outcomes(system, lanes)
    assert [result.last_ts for result in results] == [1, 2, 3, 4, 5, 6]
    system.run_for(1.0)
    # The boundary 4 is crossed inside the group 2..6: one checkpoint, at the
    # boundary, cut from the view as it stood there — what the log replays
    # to at ts 4, not at the group's end.
    assert master.checkpoints_written == 1
    assert tenure(master, GROUP_KEY).view.applied_ts == 6
    assert len(assert_one_checkpoint_is_the_replay(system, master, GROUP_KEY, 4)) == 4


# --------------------------------------------------- checkpoints in the background --
#
# A checkpoint is written after the group that made it due has been answered:
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


def test_a_group_whose_head_is_refused_still_writes_its_checkpoint():
    """The lock holder's own proposal fails verification; the members it
    served behind it cross the interval, and their checkpoint is written."""
    from repro.errors import ValidationFailed

    system = build_system(checkpoint_interval=3)
    master = system.master_service(GROUP_KEY)
    empty = dict(ts=1, author="empty", base_ts=0, patches=[])
    lanes = queue_behind_a_publish(system, master, [
        proposal("holder", 1), empty, proposal("a", 1), proposal("b", 1)])
    holder, refused, a, b = outcomes(system, lanes)
    assert isinstance(refused, ValidationFailed)
    assert [(r.first_ts, r.last_ts) for r in (holder, a, b)] == [(1, 1), (2, 2), (3, 3)]
    assert master.statistics()["publishes"] == 2  # a and b went out with the refused head
    system.run_for(2.0)
    assert len(assert_one_checkpoint_is_the_replay(system, master, GROUP_KEY, 3)) == 3


def test_no_member_is_orphaned_when_the_holders_handler_dies_mid_publish():
    """No orphan: the handler that took a group along is killed while the
    group publishes — every member leaves with an exception, none with
    ``None``, and the document's lock is free again."""
    from repro.errors import PatchUnavailable, ProcessInterrupted

    system = build_system()
    master = system.master_service(GROUP_KEY)
    lanes = queue_behind_a_publish(system, master, [
        proposal("holder", 1)] + [proposal(f"u{n}", 1) for n in range(3)])
    run_until_the_group_is_out(system, master, lanes[0], 3)
    lanes[1].interrupt("killed")  # the member whose handler holds the lock
    holder, killed, *orphans = outcomes(system, lanes)
    assert holder.accepted and isinstance(killed, ProcessInterrupted)
    assert [type(error) for error in orphans] == [PatchUnavailable, PatchUnavailable]
    queue = master._documents[GROUP_KEY]
    assert not queue.lock.locked and not queue.waiting and queue.publishing == 0
    assert system.last_ts(GROUP_KEY) == 1
    # Nothing was allocated; the proposers come again and land.
    again = run_validation(system, master, GROUP_KEY, 2, [make_patch("u1", "again", 1)], "u1")
    assert again.accepted and again.first_ts == 2
