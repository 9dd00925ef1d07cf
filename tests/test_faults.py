"""Tests for the nemesis layer (``repro.faults``) and its runtime wiring.

Covers the plan grammar (validation, ordering, paired builders), each fault
action against a live system (partitions, perturbation bursts, crash and
both restart flavours, KTS replica lag, churn storms), the engine
integration (a scenario's measurement arms its own ``Nemesis``) and the
acceptance bar of the subsystem: the same plan replayed on the simulation
backend under a fixed seed yields *byte-identical* checker reports.
"""

import traceback

import pytest

from repro.check import ConvergenceChecker
from repro.chord import ChordConfig
from repro.chord.hashing import hash_to_id
from repro.core import LtrConfig, LtrSystem
from repro.engine import ScenarioSpec
from repro.errors import (
    ConfigurationError,
    DhtError,
    PatchUnavailable,
    ReproError,
    ValidationFailed,
)
from repro.faults import (
    CrashPeer,
    FaultPlan,
    HealPartition,
    KtsReplicaLag,
    Nemesis,
    PartitionNetwork,
    RejoinPeer,
    RestartPeer,
)
from repro.metrics import RecoveryTracker
from repro.net import PerturbationWindow
from repro.workloads import PROFILES, generate_churn_schedule

KEY = "xwiki:faults"


def build_system(seed: int = 3, peers: int = 8) -> LtrSystem:
    system = LtrSystem(
        seed=seed,
        ltr_config=LtrConfig(validation_retries=3, validation_retry_delay=0.25),
    )
    system.bootstrap(peers)
    return system


def drive_probes(system, writer, *, count: int, interval: float = 0.75,
                 tracker=None):
    """Periodic commit probes; failures are recorded, not raised."""
    start = system.runtime.now
    for index in range(count):
        target = start + (index + 1) * interval
        if system.runtime.now < target:
            system.run_for(target - system.runtime.now)
        try:
            system.edit_and_commit(writer, KEY, f"probe {index} by {writer}")
            if tracker is not None:
                tracker.record_probe(system.runtime.now, True)
        except ReproError as error:
            if tracker is not None:
                tracker.record_probe(
                    system.runtime.now, False, type(error).__name__
                )


# ------------------------------------------------------------ plan grammar --


def test_plan_builders_keep_events_sorted_and_paired():
    plan = (
        FaultPlan()
        .crash(at=5.0, peer="peer-1", restart_after=2.0)
        .partition(at=1.0, groups=[["peer-2"]], heal_after=3.0, rejoin_after=0.5)
        .loss_burst(at=0.5, duration=1.0, probability=0.2)
    )
    times = [event.at for event in plan]
    assert times == sorted(times)
    kinds = [event.action.kind for event in plan]
    assert kinds == [
        "perturb-begin", "partition", "perturb-end", "heal", "rejoin",
        "crash", "restart",
    ]
    assert plan.last_time() == 7.0
    assert len(plan.describe()) == len(plan) == 7


def test_plan_equal_times_keep_insertion_order():
    plan = FaultPlan().crash(at=1.0, peer="a").crash(at=1.0, peer="b")
    assert [event.action.peer for event in plan] == ["a", "b"]


def test_plan_validation_errors():
    with pytest.raises(ConfigurationError):
        FaultPlan().add(-1.0, CrashPeer("x"))
    with pytest.raises(ConfigurationError):
        FaultPlan().add(0.0, "not an action")  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        FaultPlan().partition(0.0, groups=[])
    with pytest.raises(ConfigurationError):
        FaultPlan().partition(0.0, groups=[["a"]], rejoin_after=1.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().crash(0.0, "a", restart_after=0.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().loss_burst(0.0, duration=0.0, probability=0.5)
    with pytest.raises(ConfigurationError):
        FaultPlan().kts_lag(0.0, duration=1.0, delay=-1.0)
    with pytest.raises(ValueError):
        PerturbationWindow(drop_probability=1.5)
    with pytest.raises(ConfigurationError, match="unknown churn action"):
        FaultPlan().churn_storm(0.0, [(1.0, "explode", "a")])
    with pytest.raises(ConfigurationError):
        FaultPlan().churn_storm(0.0, [(-1.0, "crash", "a")])


def test_overlapping_perturbation_bursts_are_rejected():
    """The transport holds one window; overlapping bursts would clobber it."""
    plan = FaultPlan().loss_burst(at=1.0, duration=10.0, probability=0.5)
    with pytest.raises(ConfigurationError):
        plan.duplicate_burst(at=2.0, duration=2.0, probability=0.3)
    # Back-to-back (non-overlapping) bursts are fine.
    plan.reorder_burst(at=11.0, duration=1.0, jitter=0.01)
    assert len(plan) == 4


def test_spawned_action_failures_are_recorded_in_nemesis_errors():
    """A re-join whose gateway vanished must not fail invisibly."""
    system = build_system(seed=59, peers=4)
    victim = system.peer_names()[-1]
    # Crash the victim, then crash every possible gateway right *after* the
    # restart fired — its re-join handshake is in flight and must time out.
    others = [name for name in system.peer_names() if name != victim]
    plan = FaultPlan().crash(at=0.5, peer=victim, restart_after=1.0)
    for name in others:
        plan.crash(at=1.52, peer=name)
    nemesis = Nemesis(system, plan).start()
    system.run_for(30.0)
    assert any(entry[1].startswith("restart:") for entry in nemesis.errors), (
        f"background re-join failure not recorded: {nemesis.errors}"
    )


def test_nemesis_start_is_single_shot_and_validates_offset():
    system = build_system()
    nemesis = Nemesis(system, FaultPlan())
    with pytest.raises(ConfigurationError):
        nemesis.start(at=-1.0)
    nemesis.start()
    with pytest.raises(ConfigurationError):
        nemesis.start()
    system.shutdown()


# --------------------------------------------------------- fault behaviours --


def test_partition_blocks_and_heal_restores_traffic():
    system = build_system(seed=11)
    names = system.peer_names()
    minority = names[-2:]
    plan = FaultPlan().partition(at=0.5, groups=[minority], heal_after=2.0)
    Nemesis(system, plan).start()
    system.run_for(1.0)
    assert system.network.partitions.active
    source = system.ring.node(names[0]).address
    cut = system.ring.node(minority[0]).address
    assert not system.network.partitions.allows(source, cut)
    system.run_for(2.0)
    assert not system.network.partitions.active
    assert system.network.partitions.allows(source, cut)


def loss_burst_script(seed: int) -> None:
    system = build_system(seed=seed)
    writer = system.peer_names()[0]
    plan = FaultPlan().loss_burst(at=1.0, duration=3.0, probability=0.2)
    Nemesis(system, plan).start()
    drive_probes(system, writer, count=8, interval=0.75)
    dropped = system.network.perturb_stats["dropped"]
    assert dropped > 0, "the burst never dropped a message"
    system.run_for(4.0)  # post-burst: stabilization + misplacement repair
    assert system.network.perturbation is None
    # After the window closes, no further perturbation losses accrue.
    before = system.network.perturb_stats["dropped"]
    system.edit_and_commit(writer, KEY, "after the burst")
    assert system.network.perturb_stats["dropped"] == before
    # The protocol rode through the burst: sequence intact.
    report = system.check_consistency(KEY)
    assert report.converged and report.log_continuous


def test_loss_burst_drops_messages_only_inside_the_window():
    # Seed 13 is one of the seeds this script passes on — not all do, see the
    # sweep below; re-pin it only with the sweep's count next to the change.
    loss_burst_script(seed=13)


#: The failure classes of the loss-burst script: a commit refused after its
#: retries, an entry missing when the log is read after the burst (an
#: acknowledged edit lost), an entry missing while a commit retrieves.
VALIDATION_FAILED = "ValidationFailed"
FINAL_READ_GAP = "gap at the final read"
COMMIT_GAP = "gap inside a commit"


def loss_burst_failures(seeds) -> dict[int, str]:
    """``{seed: class}`` for each of ``seeds`` the loss-burst script fails on.

    A failure that is none of the three classes above is named by its
    exception type.
    """
    failing = {}
    for seed in seeds:
        try:
            loss_burst_script(seed)
        except (AssertionError, ReproError) as error:
            failing[seed] = _failure_class(error)
    return failing


def _failure_class(error: Exception) -> str:
    if isinstance(error, ValidationFailed):
        return VALIDATION_FAILED
    if isinstance(error, PatchUnavailable):
        frames = {frame.name for frame in traceback.extract_tb(error.__traceback__)}
        return FINAL_READ_GAP if "check_consistency" in frames else COMMIT_GAP
    return type(error).__name__


#: How many of the seeds 1..40 the loss-burst script fails on: 2 of 40 —
#: seeds 1 and 36, each with ``ValidationFailed`` after 64 paced retries (two
#: peers *own* the document's counter after the burst, with different
#: ``last-ts``, and routing serves the stale one; ROADMAP item 1(b)).  4 —
#: 1, 22, 32 and 36 — while the misplacement repair demoted its owned copy
#: whatever the receiver did with it: a receiver that kept the forwarded
#: item a replica left no peer owning it.  Which seeds fail moves with any
#: change in timing, which is why the pinned seed above says what it is.
#: The sweep is also why owners no longer tell former backup holders to
#: release their replica copies: with that release switched on the script
#: failed on 9 of 40 — 1, 9, 10, 17, 18, 19, 32, 38 and 39, with
#: ``PatchUnavailable`` (acknowledged entries gone from every replica) on 1,
#: 17 and 32.
LOSS_BURST_KNOWN_FAILURES = 2

#: The same bound over seeds 41..240: 13 of 200 (9 ``ValidationFailed``, 4
#: gaps), 26 while the repair demoted whatever the receiver did.
LOSS_BURST_WIDE_KNOWN_FAILURES = 13


@pytest.mark.slow
def test_loss_burst_seed_sweep_reports_the_seeds_that_fail(record_property):
    failing = loss_burst_failures(range(1, 41))
    # Reported, not hidden behind a lucky pin; and it may not get worse.
    record_property("loss_burst_failing_seeds", failing)
    assert len(failing) <= LOSS_BURST_KNOWN_FAILURES, failing


@pytest.mark.slow
def test_loss_burst_wide_sweep_reports_the_seeds_that_fail(record_property):
    failing = loss_burst_failures(range(41, 241))
    record_property("loss_burst_failing_seeds", failing)
    assert len(failing) <= LOSS_BURST_WIDE_KNOWN_FAILURES, failing


def test_duplicate_and_reorder_bursts_perturb_but_preserve_invariants():
    system = build_system(seed=17)
    writer = system.peer_names()[0]
    plan = (
        FaultPlan()
        .duplicate_burst(at=0.5, duration=2.5, probability=0.3)
        .reorder_burst(at=3.5, duration=2.5, jitter=0.02)
    )
    Nemesis(system, plan).start()
    drive_probes(system, writer, count=9, interval=0.75)
    stats = system.network.perturb_stats
    assert stats["duplicated"] > 0
    assert stats["jittered"] > 0
    report = system.check_consistency(KEY)
    assert report.converged and report.log_continuous


def test_crash_and_state_preserving_restart_rejoins_with_data():
    system = build_system(seed=19)
    writer = system.peer_names()[0]
    system.edit_and_commit(writer, KEY, "before the crash")
    victim = next(
        name for name in system.peer_names()
        if name not in (writer, system.master_of(KEY))
    )
    held_before = len(system.ring.node(victim).storage)
    plan = FaultPlan().crash(at=0.5, peer=victim, restart_after=2.0)
    nemesis = Nemesis(system, plan).start()
    system.run_for(1.0)
    assert victim not in system.peer_names()
    system.run_for(5.0)
    assert nemesis.errors == []
    assert victim in system.peer_names()
    node = system.ring.node(victim)
    if held_before:
        assert len(node.storage) > 0, "state-preserving restart lost storage"
    assert system.ring.wait_until_stable(max_time=30.0)
    assert system.check_consistency(KEY).converged


def test_crash_and_amnesiac_restart_rejoins_empty_handed():
    system = build_system(seed=23)
    writer = system.peer_names()[0]
    for index in range(3):
        system.edit_and_commit(writer, KEY, f"revision {index}")
    system.run_for(2.0)
    victim = next(
        name for name in system.peer_names()
        if name not in (writer, system.master_of(KEY))
        and len(system.ring.node(name).storage) > 0
    )
    plan = FaultPlan().crash(at=0.5, peer=victim, restart_after=2.0, amnesia=True)
    nemesis = Nemesis(system, plan).start()
    system.run_for(1.2)
    assert victim not in system.peer_names()
    # The instant of the restart: storage starts empty (hand-off may refill
    # it as the join completes).
    system.run_for(1.4)  # restart fired at 2.5; join is in flight
    system.run_for(5.0)
    assert nemesis.errors == []
    assert victim in system.peer_names()
    assert system.ring.wait_until_stable(max_time=30.0)
    # The ring survives the amnesia: full log retrievable, commits continue.
    result = system.edit_and_commit(writer, KEY, "after amnesia")
    assert result.ts == 4
    assert system.check_consistency(KEY).converged


def test_kts_lag_window_sets_and_clears_replica_lag():
    system = build_system(seed=29)
    writer = system.peer_names()[0]
    plan = FaultPlan().kts_lag(at=0.5, duration=3.0, delay=1.5)
    Nemesis(system, plan).start()
    system.run_for(1.0)
    authorities = [
        node.service("kts") for node in system.ring.live_nodes()
    ]
    assert all(authority.replica_lag == 1.5 for authority in authorities)
    # Commits during the lag window still validate (the lag only delays
    # the counter's backup copies, not the authoritative advance).
    system.edit_and_commit(writer, KEY, "during the lag window")
    system.run_for(3.0)
    assert all(authority.replica_lag == 0.0 for authority in authorities)
    assert system.check_consistency(KEY).converged


def test_churn_storm_composes_with_a_partition():
    system = build_system(seed=31, peers=10)
    writer = system.peer_names()[0]
    protected = (writer, system.peer_names()[1])
    schedule = generate_churn_schedule(
        initial_peers=system.peer_names(),
        duration=6.0,
        profile=PROFILES["gentle"],
        seed=31,
        protected=protected,
    )
    bystanders = [
        name for name in system.peer_names() if name not in protected
    ][:1]
    plan = (
        FaultPlan()
        .churn_storm(at=0.5, schedule=schedule)
        .partition(at=2.0, groups=[bystanders], heal_after=2.0, rejoin_after=0.5)
    )
    tracker = RecoveryTracker()
    system.add_observer(tracker)
    nemesis = Nemesis(system, plan).start()
    drive_probes(system, writer, count=10, interval=0.8, tracker=tracker)
    system.run_for(4.0)
    # A churn victim racing the partition may legitimately fail to apply;
    # everything else must have been injected.
    assert len(nemesis.applied) >= len(plan) - len(nemesis.errors)
    assert tracker.summary()["probes_attempted"] == 10
    assert system.ring.wait_until_stable(max_time=60.0)


# --------------------------------------------------------- observer wiring --


def test_observers_are_notified_once_per_fault_boundary():
    system = build_system(seed=37)
    boundaries = []

    class Recorder:
        def on_fault(self, system, label, details):
            boundaries.append((label, details["kind"]))

    system.add_observer(Recorder())
    plan = FaultPlan().partition(at=0.5, groups=[[system.peer_names()[-1]]],
                                 heal_after=1.0)
    Nemesis(system, plan).start()
    system.run_for(3.0)
    assert [kind for _label, kind in boundaries] == ["partition", "heal"]


def test_remove_observer_stops_notifications():
    system = build_system(seed=41)
    tracker = RecoveryTracker()
    system.add_observer(tracker)
    system.remove_observer(tracker)
    Nemesis(system, FaultPlan().heal(0.1)).start()
    system.run_for(1.0)
    assert tracker.faults == []


def test_strict_nemesis_propagates_action_failures():
    system = build_system(seed=43)
    # Restarting a peer that never crashed: rejoin is a no-op path, but
    # crashing an unknown peer raises inside the action.
    plan = FaultPlan().crash(at=0.1, peer="no-such-peer")
    nemesis = Nemesis(system, plan, strict=True).start()
    with pytest.raises(ReproError):
        system.run_for(1.0)
    lenient = Nemesis(build_system(seed=43), plan).start()
    lenient.system.run_for(1.0)
    assert len(lenient.errors) == 1


def test_a_nemesis_join_refuses_the_identifier_of_a_live_peer():
    """Regression: ``JoinPeer`` runs the clash check ``ChordRing.add_node``
    runs.  A fresh name at a live node's ring identifier is refused before
    any node is created: recorded in ``errors``, raised under ``strict``."""
    assert hash_to_id("joiner-12", 4) == hash_to_id("a", 4) == 13

    def build():
        system = LtrSystem(seed=3, chord_config=ChordConfig(bits=4))
        system.bootstrap(["a", "b", "c"])
        return system

    system = build()
    nemesis = Nemesis(system, FaultPlan().join(1.0, "joiner-12")).start()
    system.run_for(5.0)
    assert "joiner-12" not in system.ring.nodes
    [(_when, label, message)] = nemesis.errors
    assert label == "join[joiner-12]" and "a and joiner-12 at 13" in message
    assert system.ring.is_stable()

    strict = build()
    Nemesis(strict, FaultPlan().join(1.0, "joiner-12"), strict=True).start()
    with pytest.raises(DhtError, match="share a ring identifier"):
        strict.run_for(5.0)
    assert "joiner-12" not in strict.ring.nodes


def test_a_nemesis_join_of_a_free_identifier_still_joins():
    """The clash check refuses only a shared identifier; ``joiner-1`` (id 1)
    joins the ``bits=4`` ring of ``a``, ``b``, ``c`` (13, 14, 12)."""
    assert hash_to_id("joiner-1", 4) == 1
    system = LtrSystem(seed=3, chord_config=ChordConfig(bits=4))
    system.bootstrap(["a", "b", "c"])
    nemesis = Nemesis(system, FaultPlan().join(1.0, "joiner-1")).start()
    system.run_for(10.0)
    assert nemesis.errors == []
    assert "joiner-1" in system.peer_names()
    assert system.ring.is_stable()


# ------------------------------------------------------- engine integration --


def _measure_with_nemesis(ctx):
    system = ctx.build_system(6)
    writer = system.peer_names()[0]
    system.edit_and_commit(writer, KEY, "seed")
    checker = ConvergenceChecker(keys=[KEY])
    system.add_observer(checker)
    plan = FaultPlan().crash(
        at=ctx.param("crash_at", 1.0), peer=system.peer_names()[-1],
        restart_after=2.0,
    )
    nemesis = Nemesis(system, plan).start()
    system.run_for(5.0)
    final = checker.final_check(system)
    return {
        "applied": len(nemesis.applied),
        "violations": len(checker.violations()),
        "converged": final.ok,
    }


def test_scenario_measure_arms_its_own_nemesis():
    spec = ScenarioSpec(
        scenario_id="EX-NEM",
        title="nemesis integration",
        columns=("applied", "violations", "converged"),
        constants={"crash_at": 0.5},
        seed=47,
        measure=_measure_with_nemesis,
    )
    from repro.engine import run_scenario

    result = run_scenario(spec)
    (row,) = result.rows
    assert row["applied"] == 2
    assert row["violations"] == 0
    assert row["converged"] is True


# ------------------------------------------------- asyncio (best effort) --


def test_plan_replays_best_effort_on_the_asyncio_backend():
    """The same plan API drives wall-clock timers on the live backend.

    No determinism is promised there (see DESIGN.md): the test asserts the
    faults *applied* and the invariants held, not a transcript.
    """
    from repro.experiments.scenarios import LIVE_CHORD_CONFIG
    from repro.net import ConstantLatency

    config = LtrConfig(
        runtime_backend="asyncio",
        validation_retry_delay=0.02,
    )
    system = LtrSystem(
        ltr_config=config,
        chord_config=LIVE_CHORD_CONFIG,
        seed=71,
        latency=ConstantLatency(0.0005),
    )
    try:
        system.bootstrap(8, stabilize_time=20.0)
        writer = system.peer_names()[0]
        system.edit_and_commit(writer, KEY, "live base")
        victim = next(
            name for name in system.peer_names()
            if name not in (writer, system.master_of(KEY))
        )
        plan = (
            FaultPlan()
            .loss_burst(at=0.05, duration=0.3, probability=0.05)
            .crash(at=0.4, peer=victim, restart_after=0.4)
        )
        nemesis = Nemesis(system, plan).start()
        for index in range(6):
            system.run_for(0.15)
            system.edit_and_commit(writer, KEY, f"live probe {index}")
        system.run_for(1.0)
        assert len(nemesis.applied) + len(nemesis.errors) == len(plan)
        report = system.check_consistency(KEY)
        assert report.converged and report.log_continuous
    finally:
        system.shutdown()


# ----------------------------------------------------- determinism contract --


def _checker_report_for(seed: int) -> str:
    """One full nemesis run (partition + crash-restart) -> canonical report."""
    system = build_system(seed=seed, peers=10)
    writer, names = system.peer_names()[0], system.peer_names()
    system.edit_and_commit(writer, KEY, "base")
    master = system.master_of(KEY)
    minority = [
        name for name in names if name not in (writer, master)
    ][:2]
    checker = ConvergenceChecker(keys=[KEY])
    tracker = RecoveryTracker()
    system.add_observer(checker)
    system.add_observer(tracker)
    plan = (
        FaultPlan()
        .partition(at=1.0, groups=[minority], heal_after=3.0, rejoin_after=1.0)
        .crash(at=7.0, peer=master, restart_after=2.0, amnesia=True)
        .loss_burst(at=2.0, duration=1.5, probability=0.2)
    )
    nemesis = Nemesis(system, plan).start()
    drive_probes(system, writer, count=14, interval=0.75, tracker=tracker)
    checker.final_check(system, settle=2.0)
    report = checker.to_json()
    assert nemesis.started_at is not None
    return report


def test_same_plan_and_seed_yield_byte_identical_checker_reports():
    """Acceptance: replaying a FaultPlan on SimRuntime is deterministic."""
    first = _checker_report_for(seed=61)
    second = _checker_report_for(seed=61)
    assert first == second, "checker reports diverged across identical runs"


def test_different_seeds_change_the_run_but_not_the_verdict():
    report_a = _checker_report_for(seed=61)
    report_b = _checker_report_for(seed=67)
    assert report_a != report_b  # genuinely different trajectories
    import json

    for report in (report_a, report_b):
        assert json.loads(report)["violations_total"] == 0
