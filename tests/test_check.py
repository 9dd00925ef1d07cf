"""Tests for the convergence checker (``repro.check``).

The most important property of a checker is that it *fails when it should*:
the mutation tests below inject known invariant-violating corruptions into
a healthy system — lost log entries, forked placement content, a counter
behind the log, diverged and over-applied replicas — and assert the
checker reports each one.  A checker that stays green under mutations is
decoration, not verification (this is the CI ``chaos-smoke`` job's
mutation gate).
"""

import json

import pytest

from repro.check import CheckSnapshot, ConvergenceChecker
from repro.core import LtrSystem
from repro.kts.authority import COUNTER_PREFIX
from repro.p2plog import make_log_key

KEY = "xwiki:checked"


def committed_system(seed: int = 7, commits: int = 4) -> LtrSystem:
    system = LtrSystem(seed=seed)
    system.bootstrap(8)
    writer = system.peer_names()[0]
    for index in range(commits):
        system.edit_and_commit(
            writer, KEY, "\n".join(f"line-{line}-rev-{index}" for line in range(3))
        )
    system.run_for(2.0)  # replicas settle
    return system


def placement_items(system, ts):
    """Every stored item holding the entry ``(KEY, ts)`` across live nodes."""
    log_key = make_log_key(KEY, ts)
    found = []
    for function in system.hash_family:
        storage_key = function.placement_key(log_key)
        for node in system.ring.live_nodes():
            item = node.storage.get(storage_key)
            if item is not None:
                found.append((node, storage_key, item))
    return found


# ------------------------------------------------------------ healthy runs --


def test_healthy_system_yields_a_clean_snapshot():
    system = committed_system()
    checker = ConvergenceChecker(keys=[KEY])
    snapshot = checker.check_now(system)
    assert snapshot.ok
    info = snapshot.keys[KEY]
    assert info["last_ts"] == info["log_max"] == 4
    assert info["missing_ts"] == [] and info["mismatched_ts"] == []
    assert info["counter_owners"] == 1
    assert checker.ok


def test_key_discovery_finds_documents_with_counters():
    system = committed_system()
    checker = ConvergenceChecker()  # no tracked keys: discover
    snapshot = checker.check_now(system)
    assert list(snapshot.keys) == [KEY]


def test_final_check_passes_and_records_state_and_endtoend_snapshots():
    system = committed_system()
    checker = ConvergenceChecker(keys=[KEY])
    final = checker.final_check(system, settle=0.5)
    assert final.ok
    labels = [snapshot.label for snapshot in checker.snapshots]
    assert labels == ["final:state", "final"]
    assert final.keys[KEY]["converged"] is True
    assert checker.report()["violations_total"] == 0


def test_check_now_reads_the_ring_once(monkeypatch):
    system = committed_system()
    calls = []
    live_nodes = system.ring.live_nodes

    def counted():
        calls.append(1)
        return live_nodes()

    monkeypatch.setattr(system.ring, "live_nodes", counted)
    tracked = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert tracked.ok and len(calls) == 1
    calls.clear()
    discovered = ConvergenceChecker().check_now(system)
    assert list(discovered.keys) == [KEY] and len(calls) == 1


def test_snapshot_serialization_is_deterministic():
    reports = []
    for _ in range(2):
        system = committed_system()
        checker = ConvergenceChecker(keys=[KEY])
        checker.check_now(system, label="boundary")
        checker.final_check(system)
        reports.append(checker.to_json())
    assert reports[0] == reports[1]
    parsed = json.loads(reports[0])
    assert parsed["tracked"] == [KEY]
    assert parsed["violations_total"] == 0
    # check_now without observer wiring does not register; final_check does.
    assert len(parsed["snapshots"]) == 2


def test_on_fault_hook_appends_labelled_snapshots():
    system = committed_system()
    checker = ConvergenceChecker(keys=[KEY])
    system.add_observer(checker)
    system.notify_fault("crash[x]", {"time": system.runtime.now, "kind": "crash"})
    assert [snapshot.label for snapshot in checker.snapshots] == ["crash[x]"]


def test_track_sorts_and_deduplicates():
    checker = ConvergenceChecker(keys=["b"])
    checker.track("a")
    checker.track("a")
    assert checker.tracked == ["a", "b"]


def test_snapshot_to_dict_roundtrips_key_order():
    snapshot = CheckSnapshot(time=1.0, label="x")
    snapshot.keys["zzz"] = {"last_ts": 1}
    snapshot.keys["aaa"] = {"last_ts": 2}
    assert list(snapshot.to_dict()["keys"]) == ["aaa", "zzz"]


# ------------------------------------------------- mutation-check: it fails --
# Each test injects one known invariant-violating bug and asserts the
# checker actually reports it.


def test_mutation_lost_log_entry_is_reported():
    system = committed_system()
    for node, storage_key, _item in placement_items(system, ts=2):
        assert node.storage.remove(storage_key)
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("ts 2 lost" in violation for violation in snapshot.violations)
    assert snapshot.keys[KEY]["missing_ts"] == [2]


def test_mutation_forked_placement_content_is_reported():
    from dataclasses import replace

    system = committed_system()
    items = placement_items(system, ts=3)
    assert items
    node, storage_key, item = items[0]
    # Same timestamp, different patch content: a forked total order.
    forked = replace(item.value, patch="a completely different patch")
    node.storage.put(storage_key, forked, is_replica=item.is_replica,
                     now=system.runtime.now, key_id=item.key_id)
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("ts 3 disagree" in violation for violation in snapshot.violations)
    assert snapshot.keys[KEY]["mismatched_ts"] == [3]


def test_mutation_doubled_proposal_is_reported():
    """A re-sent proposal committed again: dense, complete, converged — and
    the same identity under two timestamps."""
    from dataclasses import replace

    system = committed_system()
    healthy = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert healthy.ok and healthy.keys[KEY]["doubled_ts"] == []
    original = placement_items(system, ts=2)[0][2].value
    assert original.proposal is not None
    # Every copy of ts 4 now carries the identity ts 2 landed under.
    for node, storage_key, item in placement_items(system, ts=4):
        node.storage.put(storage_key, replace(item.value, proposal=original.proposal),
                         is_replica=item.is_replica, now=system.runtime.now,
                         key_id=item.key_id)
    checker = ConvergenceChecker(keys=[KEY])
    snapshot = checker.check_now(system)
    assert snapshot.keys[KEY]["doubled_ts"] == [4]
    assert snapshot.violations == [
        f"{KEY}: proposal {original.proposal} of {original.author} is in the log "
        f"twice, at ts 2 and ts 4"
    ]
    assert snapshot.structured == [{
        "kind": "doubled", "key": KEY, "ts": 4, "peer": original.author,
        "detail": f"proposal {original.proposal} already landed at ts 2",
    }]
    # The other three invariants see nothing wrong with it.
    info = snapshot.keys[KEY]
    assert info["missing_ts"] == info["mismatched_ts"] == info["diverged"] == []
    assert info["last_ts"] == info["log_max"] == 4
    # Another author's proposal may carry the same number.
    for node, storage_key, item in placement_items(system, ts=4):
        node.storage.put(storage_key, replace(item.value, author="somebody-else"),
                         is_replica=item.is_replica, now=system.runtime.now,
                         key_id=item.key_id)
    assert ConvergenceChecker(keys=[KEY]).check_now(system).keys[KEY]["doubled_ts"] == []


def test_entries_without_an_identity_are_skipped_not_flagged():
    """Rows from before identities, hand-built entries: ``proposal is None``."""
    from dataclasses import replace

    system = committed_system()
    for ts in (1, 2, 3, 4):
        for node, storage_key, item in placement_items(system, ts=ts):
            node.storage.put(storage_key, replace(item.value, proposal=None),
                             is_replica=item.is_replica, now=system.runtime.now,
                             key_id=item.key_id)
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert snapshot.ok and snapshot.keys[KEY]["doubled_ts"] == []


def test_mutation_restamped_copy_with_identical_content_is_benign():
    from dataclasses import replace

    system = committed_system()
    node, storage_key, item = placement_items(system, ts=3)[0]
    restamped = replace(item.value, published_at=item.value.published_at + 9.0)
    node.storage.put(storage_key, restamped, is_replica=item.is_replica,
                     now=system.runtime.now, key_id=item.key_id)
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert snapshot.ok, "a provenance-only difference must not be a violation"


def test_mutation_counter_behind_log_is_reported():
    system = committed_system()
    counter_key = f"{COUNTER_PREFIX}{KEY}"
    for node in system.ring.live_nodes():
        item = node.storage.get(counter_key)
        if item is not None:
            item.value = 1  # log max is 4: beyond any in-flight allowance
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("behind log max" in violation for violation in snapshot.violations)


def test_mutation_counter_one_behind_is_tolerated_then_strict_at_final():
    system = committed_system()
    counter_key = f"{COUNTER_PREFIX}{KEY}"
    for node in system.ring.live_nodes():
        item = node.storage.get(counter_key)
        if item is not None:
            item.value = 3  # log max 4: looks like one in-flight publish
    checker = ConvergenceChecker(keys=[KEY])
    assert checker.check_now(system).ok, "one in-flight publish is legitimate"
    strict = checker.check_now(system, strict_counter=True)
    assert any("behind log max" in violation for violation in strict.violations)


def test_mutation_diverged_replica_is_reported():
    system = committed_system()
    writer = system.peer_names()[0]
    replica = system.user(writer).documents[KEY]
    replica.lines = list(replica.lines) + ["corrupted tail line"]
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("diverges" in violation for violation in snapshot.violations)
    assert snapshot.keys[KEY]["diverged"] == [writer]


def test_mutation_replica_ahead_of_log_is_reported():
    system = committed_system()
    writer = system.peer_names()[0]
    replica = system.user(writer).documents[KEY]
    replica.applied_ts = 99
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("beyond the surviving log" in violation
               for violation in snapshot.violations)


def test_mutation_total_data_loss_fails_the_final_check():
    system = committed_system()
    for ts in range(1, 5):
        for node, storage_key, _item in placement_items(system, ts=ts):
            node.storage.remove(storage_key)
    checker = ConvergenceChecker(keys=[KEY])
    final = checker.final_check(system)
    assert not final.ok
    assert any("final consistency check failed" in violation
               for violation in final.violations)
    assert checker.report()["violations_total"] > 0


def test_mutation_lost_tail_entries_are_reported():
    """The newest acked entries vanish: the counter outruns the log."""
    system = committed_system()  # last_ts == 4
    for ts in (3, 4):
        for node, storage_key, _item in placement_items(system, ts=ts):
            node.storage.remove(storage_key)
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("acked entries lost" in violation
               for violation in snapshot.violations)
    assert snapshot.keys[KEY]["log_max"] == 2


def test_mutation_lost_single_tail_entry_is_strict_only():
    """One missing tail entry is within the in-flight allowance — relaxed
    snapshots tolerate it, the quiescent strict pass does not."""
    system = committed_system()
    for node, storage_key, _item in placement_items(system, ts=4):
        node.storage.remove(storage_key)
    checker = ConvergenceChecker(keys=[KEY])
    assert checker.check_now(system).ok
    strict = checker.check_now(system, strict_counter=True)
    assert any("acked entries lost" in violation
               for violation in strict.violations)


def test_recovery_time_is_not_attributed_across_fault_windows():
    """A later fault's failures must not inflate an earlier fault's recovery."""
    from repro.metrics import RecoveryTracker

    tracker = RecoveryTracker()
    tracker.record_fault(5.0, "crash[a]")
    tracker.record_probe(6.0, False)
    tracker.record_probe(7.0, False)
    tracker.record_probe(8.0, True)   # fault a recovered here
    tracker.record_fault(20.0, "crash[b]")
    tracker.record_probe(21.0, False)
    assert tracker.recovery_time(5.0) == pytest.approx(3.0)
    assert tracker.recovery_time(20.0) is None  # b never recovered
    summary = tracker.summary()
    assert summary["faults_unrecovered"] == 1
    assert summary["max_recovery_time_s"] == pytest.approx(3.0)


def test_orphan_entry_beyond_counter_is_strict_only():
    """An entry past the counter: legal in flight, a fork hazard at rest."""
    system = committed_system()
    node, _storage_key, item = placement_items(system, ts=4)[0]
    from dataclasses import replace

    # (A proposal of its own: a copy of ts 4's identity at ts 5 would be the
    # at-most-once violation, which is not this test's subject.)
    orphan = replace(item.value, ts=5, proposal=item.value.proposal + 1)
    log_key = make_log_key(KEY, 5)
    function = system.hash_family[0]
    node.storage.put(function.placement_key(log_key), orphan,
                     now=system.runtime.now, key_id=function(log_key))
    checker = ConvergenceChecker(keys=[KEY])
    relaxed = checker.check_now(system)
    assert relaxed.ok
    assert relaxed.keys[KEY]["log_max"] == 5
    strict = checker.check_now(system, strict_counter=True)
    assert not strict.ok
