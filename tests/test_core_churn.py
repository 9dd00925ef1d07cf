"""P2P-LTR under churn: Master-key departures, failures and joins.

These tests reproduce the paper's demonstration scenarios "Master-key peer
departures" and "New Master-key peer joining" (Section 5) as assertions:
after any of these events the timestamp sequence continues without gaps and
eventual consistency still holds.
"""

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.net import ConstantLatency


def build_system(peers=8, seed=17, **ltr_overrides):
    system = LtrSystem(
        ltr_config=LtrConfig(**ltr_overrides) if ltr_overrides else LtrConfig(),
        seed=seed,
        latency=ConstantLatency(0.004),
    )
    system.bootstrap(peers)
    return system


def surviving_writer(system, exclude):
    """Pick a live peer name different from ``exclude``."""
    for name in system.peer_names():
        if name != exclude:
            return name
    raise AssertionError("no surviving peer available")


# ---------------------------------------------------------------------------
# Scenario E3a: Master-key peer leaves normally
# ---------------------------------------------------------------------------


def test_master_graceful_departure_transfers_keys_and_timestamps():
    system = build_system()
    key = "wiki:departure"
    for index in range(3):
        system.edit_and_commit("peer-0", key, f"content v{index}")
    old_master = system.master_of(key)
    old_last_ts = system.last_ts(key)
    assert old_last_ts == 3

    system.leave(old_master)

    new_master = system.master_of(key)
    assert new_master != old_master
    # the new Master-key peer holds the transferred last-ts
    assert system.last_ts(key) == old_last_ts
    # and the next update continues the sequence without a gap
    writer = surviving_writer(system, old_master)
    result = system.edit_and_commit(writer, key, f"content v3 after departure")
    assert result.ts == 4
    report = system.check_consistency(key)
    assert report.converged and report.last_ts == 4


def test_master_departure_while_other_documents_unaffected():
    system = build_system()
    key_a, key_b = "wiki:doc-a", "wiki:doc-b"
    system.edit_and_commit("peer-0", key_a, "a1")
    system.edit_and_commit("peer-1", key_b, "b1")
    master_a = system.master_of(key_a)
    system.leave(master_a)
    writer = surviving_writer(system, master_a)
    assert system.edit_and_commit(writer, key_a, "a1\na2").ts == 2
    assert system.edit_and_commit(writer, key_b, "b1\nb2").ts == 2
    assert system.check_consistency(key_a).converged
    assert system.check_consistency(key_b).converged


def test_a_leaving_master_refuses_the_counter_its_successor_repairs_back():
    """The successor runs its misplacement repair between the hand-off and
    the departing Master's ``notify``: its predecessor pointer still names the
    leaver, so the counter it was just handed looks misplaced and is routed
    back to the leaver as owner.  The leaver refuses it, so the successor
    keeps owning the counter instead of demoting it to a replica."""
    system = build_system()
    key = "wiki:leave-window"
    system.edit_and_commit("peer-0", key, "v1")
    system.run_for(2.0)
    master_name = system.master_of(key)
    leaver = system.ring.node(master_name)
    successor = system.ring.node(leaver.successor.name)
    counter_key = system.master_service(key)._authority().storage_key(key)
    counter_id = leaver.storage.get(counter_key).key_id
    # The successor knows the way back to the leaver: the repair routes there.
    system.runtime.run(until=system.runtime.process(successor.find_successor(counter_id)))
    repaired = []

    def receive_then_repair(items, as_replica=False, from_owner=None):
        answer = successor._absorb_items(items, as_replica=as_replica,
                                         from_owner=from_owner)
        if from_owner == leaver.ref:
            # Inside the window: the leaver waits for this answer before
            # it notifies anybody.
            assert successor.predecessor == leaver.ref
            assert answer == len(items)  # the hand-over took everything
            yield from successor._repair_misplaced_items()
            repaired.append(successor.storage.get(counter_key).is_replica)
        return answer

    successor.rpc.expose("receive_items", receive_then_repair)
    system.leave(master_name)
    assert repaired == [False]  # the successor kept owning the counter
    assert system.master_of(key) == successor.address.name
    assert not successor.storage.get(counter_key).is_replica
    writer = surviving_writer(system, master_name)
    assert system.edit_and_commit(writer, key, "v1\nv2").ts == 2
    assert system.check_consistency(key).converged


# ---------------------------------------------------------------------------
# Scenario E3b: Master-key peer crashes
# ---------------------------------------------------------------------------


def test_master_crash_successor_takes_over_with_backup_last_ts():
    system = build_system(peers=10)
    key = "wiki:crash"
    for index in range(4):
        system.edit_and_commit("peer-1", key, f"content v{index}")
    system.run_for(2)  # allow counter/log replicas to reach successors
    old_master = system.master_of(key)

    system.crash(old_master)

    new_master = system.master_of(key)
    assert new_master != old_master
    assert system.last_ts(key) == 4  # Master-key-Succ recovered the counter
    writer = surviving_writer(system, old_master)
    result = system.edit_and_commit(writer, key, "post-crash update")
    assert result.ts == 5
    report = system.check_consistency(key)
    assert report.converged
    assert report.last_ts == 5


def test_updates_in_flight_survive_master_crash():
    system = build_system(peers=10, validation_retries=12, validation_retry_delay=0.4)
    key = "wiki:inflight"
    system.edit_and_commit("peer-2", key, "base content")
    system.run_for(2)
    old_master = system.master_of(key)

    # Stage an edit, crash the master before committing, then commit: the
    # retry logic must route the validation to the successor.
    writer = surviving_writer(system, old_master)
    system.edit(writer, key, "base content\nnew line after crash")
    system.crash(old_master)
    result = system.commit(writer, key)
    assert result.ts == 2
    assert system.check_consistency(key).converged


def test_consecutive_master_crashes_do_not_break_continuity():
    system = build_system(peers=12, seed=29)
    key = "wiki:double-crash"
    expected_ts = 0
    for round_index in range(3):
        writer = system.peer_names()[0]
        expected_ts += 1
        result = system.edit_and_commit(writer, key, f"round {round_index}")
        assert result.ts == expected_ts
        system.run_for(2)
        master = system.master_of(key)
        system.crash(master)
    assert system.last_ts(key) == expected_ts
    report = system.check_consistency(key)
    assert report.converged


# ---------------------------------------------------------------------------
# Scenario E4: a new peer joins and becomes Master-key peer
# ---------------------------------------------------------------------------


def test_new_master_key_peer_takes_over_keys_on_join():
    system = build_system(peers=6, seed=31)
    documents = [f"wiki:doc-{index}" for index in range(24)]
    for index, key in enumerate(documents):
        system.edit_and_commit(f"peer-{index % 6}", key, f"initial content {index}")
    owners_before = {key: system.master_of(key) for key in documents}

    system.add_peer("newcomer")

    owners_after = {key: system.master_of(key) for key in documents}
    moved = [key for key in documents if owners_before[key] != owners_after[key]]
    for key in moved:
        assert owners_after[key] == "newcomer"
        # the transferred counter is available on the new master
        assert system.last_ts(key) == 1
    # updates on every document continue the sequence without violation
    for index, key in enumerate(documents):
        result = system.edit_and_commit(f"peer-{index % 6}", key, f"second version {index}")
        assert result.ts == 2
    for key in documents[:6]:
        assert system.check_consistency(key).converged


def test_join_during_active_editing_preserves_consistency():
    system = build_system(peers=6, seed=37)
    key = "wiki:join-live"
    system.run_concurrent_commits(
        [(f"peer-{index}", key, f"round1 peer-{index}") for index in range(4)]
    )
    system.add_peer("late-joiner")
    system.run_concurrent_commits(
        [(f"peer-{index}", key, f"round2 peer-{index}") for index in range(4)]
    )
    # the newly joined peer can also write
    result = system.edit_and_commit("late-joiner", key, "contribution from the late joiner")
    assert result.ts == 9
    report = system.check_consistency(key)
    assert report.converged
    assert report.last_ts == 9


def test_leaving_then_rejoining_name_is_a_fresh_peer():
    system = build_system(peers=6, seed=41)
    key = "wiki:rejoin"
    system.edit_and_commit("peer-0", key, "v1")
    victim = system.master_of(key)
    system.leave(victim)
    assert system.last_ts(key) == 1
    # a new peer with a different name joins afterwards; system keeps working
    system.add_peer("replacement-peer")
    writer = system.peer_names()[0]
    assert system.edit_and_commit(writer, key, "v1\nv2").ts == 2
    assert system.check_consistency(key).converged


# ---------------------------------------------------------------------------
# Log-Peer failures (availability of the P2P-Log)
# ---------------------------------------------------------------------------


def test_patches_remain_retrievable_after_log_peer_crash():
    system = build_system(peers=10, seed=43, log_replication_factor=3)
    key = "wiki:log-crash"
    system.edit_and_commit("peer-0", key, "logged content")
    system.run_for(2)
    # crash the peer holding the first placement of (key, 1)
    log = system.log_client()
    _, identifier = log.placements(key, 1)[0]
    victim = system.ring.responsible_node_for_id(identifier).address.name
    master = system.master_of(key)
    if victim == master:
        pytest.skip("placement peer coincides with master in this seed")
    system.crash(victim)
    # a fresh reader can still retrieve the patch and converge
    reader = surviving_writer(system, victim)
    sync = system.sync(reader, key)
    assert sync.retrieved_patches == 1 or sync.already_current
    assert system.check_consistency(key).converged
