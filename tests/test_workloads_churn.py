"""Edge-case coverage for the churn workload (``repro.workloads.churn``).

The happy paths (deterministic schedules, protected peers, profile
validation) live in ``test_workloads_metrics.py``; this module covers the
corners that bit or nearly bit real runs: degenerate zero-length/zero-rate
windows, event storms collapsing onto one instant, churn eating its way
down to the last live replica holder, and a join + leave of the same node
id landing inside a single stabilization round.
"""

import pytest

from repro.core import LtrSystem
from repro.errors import ReproError
from repro.faults import FaultPlan, Nemesis
from repro.workloads import (
    PROFILES,
    ChurnProfile,
    apply_churn_action,
    generate_churn_schedule,
)

PEERS = [f"peer-{index}" for index in range(8)]


# ------------------------------------------------------ degenerate windows --


def test_zero_duration_churn_produces_an_empty_schedule():
    schedule = generate_churn_schedule(
        initial_peers=PEERS, duration=0.0, profile=PROFILES["aggressive"], seed=1
    )
    assert schedule == []


def test_churn_schedule_is_a_plain_time_sorted_list():
    """The schedule is data: ``(time, action, peer)`` tuples in time order."""
    schedule = generate_churn_schedule(
        initial_peers=PEERS, duration=60.0, profile=PROFILES["aggressive"], seed=3
    )
    assert isinstance(schedule, list) and schedule
    assert all(len(entry) == 3 for entry in schedule)
    assert [entry[0] for entry in schedule] == sorted(entry[0] for entry in schedule)
    assert {action for _when, action, _peer in schedule} <= {"join", "leave", "crash"}
    assert schedule == generate_churn_schedule(
        initial_peers=PEERS, duration=60.0, profile=PROFILES["aggressive"], seed=3
    )


def test_negative_duration_behaves_like_zero():
    schedule = generate_churn_schedule(
        initial_peers=PEERS, duration=-5.0, profile=PROFILES["aggressive"], seed=1
    )
    assert len(schedule) == 0


def test_zero_rate_profile_produces_an_empty_schedule():
    schedule = generate_churn_schedule(
        initial_peers=PEERS, duration=60.0, profile=ChurnProfile(), seed=1
    )
    assert len(schedule) == 0


def test_extreme_rate_storm_stays_sorted_and_keeps_two_survivors():
    """A near-zero mean inter-event interval: the storm edge of the model.

    Event times collapse towards one instant; the schedule must stay
    time-sorted and never schedule removals below the two-peer floor.
    """
    profile = ChurnProfile(leave_rate=200.0, crash_rate=200.0, join_rate=50.0)
    schedule = generate_churn_schedule(
        initial_peers=PEERS, duration=1.0, profile=profile, seed=7
    )
    assert len(schedule) > 100
    times = [when for when, _action, _peer in schedule]
    assert times == sorted(times)

    alive = set(PEERS)
    for _when, action, peer in schedule:
        if action == "join":
            alive.add(peer)
        else:
            alive.discard(peer)
        assert len(alive) >= 2, "churn removed the ring's last survivors"


def test_storm_never_removes_a_peer_twice_without_rejoin():
    profile = ChurnProfile(leave_rate=120.0, crash_rate=120.0)
    schedule = generate_churn_schedule(
        initial_peers=PEERS, duration=1.0, profile=profile, seed=11
    )
    removed: set[str] = set()
    for _when, action, peer in schedule:
        if action in ("leave", "crash"):
            assert peer not in removed, f"{peer} removed twice"
            removed.add(peer)


# ----------------------------------------------- last-live-replica endgame --


@pytest.mark.parametrize("action", ["crash", "leave"])
def test_churn_down_to_the_last_replica_holder_keeps_the_log_alive(action):
    """Remove peers until only the last holder of each placement remains.

    With ``log_replication_factor=3`` and the DHT's successor replicas a
    document survives this endgame; the churn driver must keep the system
    able to serve reads *and* continue the timestamp sequence from the
    survivors (replica promotion — the paper's Master-key-Succ story at
    its most extreme).
    """
    system = LtrSystem(seed=23)
    names = system.bootstrap(6)
    key = "xwiki:endgame"
    writer = names[0]
    system.edit_and_commit(writer, key, "line zero")
    system.edit_and_commit(writer, key, "line zero\nline one")
    system.run_for(2.0)  # replicas settle

    victims = [name for name in names if name != writer]
    while len(system.peer_names()) > 2:
        victim = next(
            name for name in victims if name in system.peer_names()
        )
        apply_churn_action(system, action, victim)
    assert len(system.peer_names()) == 2

    # The survivors still serve the full log and continue the sequence.
    entries = system.fetch_log(key, 1, system.last_ts(key))
    assert [entry.ts for entry in entries] == [1, 2]
    result = system.edit_and_commit(writer, key, "line zero\nline one\nline two")
    assert result.ts == 3
    report = system.check_consistency(key)
    assert report.converged


def test_schedule_with_every_unprotected_peer_removed_floors_at_two():
    """An all-crash profile over few peers stops exactly at the floor."""
    peers = [f"peer-{index}" for index in range(4)]
    profile = ChurnProfile(crash_rate=50.0)
    schedule = generate_churn_schedule(
        initial_peers=peers, duration=2.0, profile=profile, seed=3
    )
    removals = [entry for entry in schedule if entry[1] == "crash"]
    assert len(removals) == 2  # 4 peers, floor of 2


# -------------------------------------- same-id join/leave in one round --


def test_join_and_leave_of_same_id_within_one_stabilize_round():
    """A peer joins and leaves again before stabilization can finish.

    Both actions are injected at the same fault-plan instant, so the
    departure races the join hand-off inside a single stabilize round; the
    ring must absorb the flicker and keep committing with no timestamp gap.
    """
    system = LtrSystem(seed=31)
    system.bootstrap(6)
    key = "xwiki:flicker"
    writer = system.peer_names()[0]
    system.edit_and_commit(writer, key, "before the flicker")

    # Within the same stabilize round (interval 0.25 in the test config).
    schedule = [(0.1, "join", "flicker-peer"), (0.2, "leave", "flicker-peer")]
    nemesis = Nemesis(system, FaultPlan().churn_storm(0.0, schedule)).start()
    system.run_for(5.0)
    assert nemesis.errors == []
    assert "flicker-peer" not in system.peer_names()
    assert system.ring.wait_until_stable(max_time=30.0)

    result = system.edit_and_commit(writer, key, "after the flicker")
    assert result.ts == 2
    assert system.check_consistency(key).converged


def test_same_id_crash_then_join_within_one_round_rejoins_cleanly():
    """The reverse flicker: crash, then the same id joins right back."""
    system = LtrSystem(seed=37)
    names = system.bootstrap(6)
    key = "xwiki:rejoin-flicker"
    writer = names[0]
    system.edit_and_commit(writer, key, "before")
    victim = next(
        name for name in names
        if name not in (writer, system.master_of(key))
    )
    schedule = [(0.1, "crash", victim), (0.2, "join", victim)]
    nemesis = Nemesis(system, FaultPlan().churn_storm(0.0, schedule)).start()
    system.run_for(6.0)
    assert nemesis.errors == []
    assert victim in system.peer_names()
    assert system.ring.wait_until_stable(max_time=30.0)
    result = system.edit_and_commit(writer, key, "after")
    assert result.ts == 2
    assert system.check_consistency(key).converged
