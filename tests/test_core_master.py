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


def run_validation(system, master, key, ts, patches, author):
    handler = master.validate_and_publish(key=key, ts=ts, patches=patches, author=author)
    payload = system.sim.run(until=system.sim.process(handler))
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
    del master._tails[key]
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
    first = system.sim.process(
        master.validate_and_publish(key=key, ts=1, patches=[make_patch("u1", "a")],
                                    author="u1", base_ts=0)
    )
    second = system.sim.process(
        master.validate_and_publish(key=key, ts=1, patches=[make_patch("u2", "b")],
                                    author="u2", base_ts=0)
    )
    results = [
        ValidationResult.from_payload(system.sim.run(until=first)),
        ValidationResult.from_payload(system.sim.run(until=second)),
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
    assert master_a._lock_for(key_a) is not master_a._lock_for(key_b)


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
    process = system.sim.process(
        old_master.validate_and_publish(key=key, ts=2, patches=patches,
                                        author="u9", base_ts=1)
    )
    system.sim.run(until=system.sim.now + 0.005)  # the publish is now in flight
    system.add_peer(joiner)  # hand-off happens while the chain publishes
    result = ValidationResult.from_payload(system.sim.run(until=process))

    assert result.rejected, "old master committed a chain after losing the key"
    assert old_master.proposals_rejected == 1
    # Never-allocated entries must not be handed to a stale proposer later.
    assert key not in old_master._tails
    assert system.master_of(key) == joiner
    assert system.last_ts(key) == 1  # nothing was consumed
    # The rejected chain's published entries were retracted: no orphan
    # patches are readable at the never-allocated timestamps.
    from repro.errors import KeyNotFound, PatchUnavailable
    log = system.log_client()
    for orphan_ts in range(2, 2 + chain_length):
        with pytest.raises((PatchUnavailable, KeyNotFound)):
            system.sim.run(until=system.sim.process(log.fetch(key, orphan_ts)))
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
    flush = system.sim.process(writer.flush(key))
    system.sim.run(until=system.sim.now + 0.005)
    system.add_peer(joiner)
    outcome = system.sim.run(until=flush)

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
