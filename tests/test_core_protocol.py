"""Tests for the P2P-LTR core protocol: validation, retrieval, consistency.

These are the library-level counterparts of the paper's demonstration
scenarios; the churn scenarios (Master departures / joins) have their own
module, ``tests/test_core_churn.py``.
"""

import dataclasses
import inspect

import pytest

import repro.net
from repro.chord import ChordConfig
from repro.cluster import ClusterConfig
from repro.core import LtrConfig, LtrSystem, ValidationResult
from repro.core.protocol import STATUS_BEHIND, STATUS_OK
from repro.errors import ConfigurationError
from repro.faults import ALL_ACTION_KINDS, FaultAction
from repro.net import ConstantLatency, Network
from repro.ot import all_converged


def build_system(peers=6, seed=7, **ltr_overrides):
    system = LtrSystem(
        ltr_config=LtrConfig(**ltr_overrides) if ltr_overrides else LtrConfig(),
        seed=seed,
        latency=ConstantLatency(0.004),
    )
    system.bootstrap(peers)
    return system


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------


def test_configuration_surface_is_pinned():
    """Every public knob, by name: a new field shows up as a diff here.

    A value only one caller uses is a module constant next to its reader
    (``MAX_VALIDATION_ATTEMPTS``, ``CHECKPOINT_RETENTION``,
    ``MAX_LOOKUP_HOPS``, ``SUCCESSOR_LIST_SIZE``, ``REPLICATION_FACTOR``,
    the cluster's ``RPC_TIMEOUT``, ...), not a field.
    """
    assert [field.name for field in dataclasses.fields(LtrConfig)] == [
        "log_replication_factor",
        "validation_retries",
        "validation_retry_delay",
        "batch_max_edits",
        "checkpoint_interval",
        "runtime_backend",
        "storage_backend",
        "storage_dir",
        "auth_enabled",
        "auth_secret",
    ]
    assert [field.name for field in dataclasses.fields(ChordConfig)] == [
        "bits",
        "stabilize_interval",
        "fix_fingers_interval",
        "check_predecessor_interval",
        "route_cache_ttl",
        "maintenance_stagger",
        "fingers_per_round",
    ]
    # A deployment is its shape, transport and seed; every process runs the
    # same protocol tuning (CLUSTER_CHORD_CONFIG, CLUSTER_LTR_CONFIG).
    assert [field.name for field in dataclasses.fields(ClusterConfig)] == [
        "processes",
        "peers_per_process",
        "transport",
        "socket_dir",
        "host",
        "base_port",
        "seed",
    ]
    # One mechanism per fault: the transport takes no fault model, and the
    # fault state it exports is what the FaultPlan's actions set.
    assert list(inspect.signature(Network.__init__).parameters)[1:] == [
        "runtime",
        "latency",
        "default_timeout",
    ]
    assert sorted(name for name in repro.net.__all__
                  if inspect.getmodule(getattr(repro.net, name)) is repro.net.failures) == [
        "PartitionManager",
        "PerturbationWindow",
    ]
    # Every FaultAction kind is listed, and nothing else is.
    kinds, pending = [], [FaultAction]
    while pending:
        for action in pending.pop().__subclasses__():
            kinds.append(action.kind)
            pending.append(action)
    assert sorted(ALL_ACTION_KINDS) == sorted(kinds)


def test_ltr_config_validation():
    with pytest.raises(ConfigurationError):
        LtrConfig(log_replication_factor=0)
    with pytest.raises(ConfigurationError):
        LtrConfig(validation_retries=-1)
    with pytest.raises(ConfigurationError):
        LtrConfig(validation_retry_delay=-0.5)


def test_validation_result_payload_round_trip():
    ok = ValidationResult.ok(first_ts=4, last_ts=6, replicas=3)
    assert ok.accepted and ok.status == STATUS_OK
    assert ValidationResult.from_payload(ok.to_payload()) == ok
    behind = ValidationResult.behind(last_ts=9)
    assert not behind.accepted and behind.status == STATUS_BEHIND
    assert ValidationResult.from_payload(behind.to_payload()).last_ts == 9


# ---------------------------------------------------------------------------
# single-writer behaviour
# ---------------------------------------------------------------------------


def test_single_peer_commit_assigns_timestamp_one():
    system = build_system()
    result = system.edit_and_commit("peer-0", "wiki:home", "hello world")
    assert result is not None
    assert result.ts == 1
    assert result.attempts == 1
    assert result.retrieved_patches == 0
    assert result.log_replicas == system.ltr_config.log_replication_factor
    assert system.last_ts("wiki:home") == 1


def test_sequential_commits_get_continuous_timestamps():
    system = build_system()
    timestamps = []
    for index in range(5):
        result = system.edit_and_commit("peer-0", "wiki:seq", f"version {index}")
        timestamps.append(result.ts)
    assert timestamps == [1, 2, 3, 4, 5]
    assert system.last_ts("wiki:seq") == 5


def test_commit_without_pending_changes_returns_none():
    system = build_system()
    assert system.commit("peer-0", "wiki:untouched") is None


def test_edit_composes_multiple_saves_into_one_patch():
    system = build_system()
    user = system.user("peer-0")
    user.edit("wiki:doc", "line1")
    user.edit("wiki:doc", "line1\nline2")
    assert user.working_lines("wiki:doc") == ["line1", "line2"]
    result = system.commit("peer-0", "wiki:doc")
    assert result.ts == 1
    assert user.document("wiki:doc").lines == ["line1", "line2"]


def test_working_text_and_discard_pending():
    system = build_system()
    user = system.user("peer-0")
    user.edit("wiki:draft", "draft content")
    assert user.has_pending("wiki:draft")
    assert user.working_text("wiki:draft") == "draft content"
    user.discard_pending("wiki:draft")
    assert not user.has_pending("wiki:draft")
    assert user.working_text("wiki:draft") == ""


def test_commit_publishes_to_log_with_configured_replication():
    system = build_system(log_replication_factor=2)
    system.edit_and_commit("peer-0", "wiki:rep", "content")
    entries = system.fetch_log("wiki:rep", 1, 1)
    assert len(entries) == 1
    assert entries[0].author == "peer-0"
    log = system.log_client()
    availability = system.runtime.run(
        until=system.runtime.process(log.availability("wiki:rep", 1))
    )
    assert availability == 2


# ---------------------------------------------------------------------------
# multi-writer behaviour: retrieval and total order (scenario E2)
# ---------------------------------------------------------------------------


def test_second_writer_must_retrieve_before_validation():
    """(Pinned two attempts: behind, retrieve, ok.  The Master commits the
    stale patch behind what it missed now, and hands that over with the ok —
    the writer still integrates it before it applies its own patch.)"""
    system = build_system()
    system.edit_and_commit("peer-0", "wiki:page", "from peer-0")
    # peer-1 edits without having seen peer-0's patch
    result = system.edit_and_commit("peer-1", "wiki:page", "from peer-1")
    assert result.ts == 2
    assert result.retrieved_patches == 1 and result.had_conflicts
    assert result.attempts == 1
    user = system.user("peer-1")
    assert user.document("wiki:page").applied_ts == 2
    assert user.document("wiki:page").history[0].author == "peer-0"  # integrated first
    # both contributions survive in the merged document
    merged = user.document("wiki:page").lines
    assert any("peer-0" in line for line in merged)
    assert any("peer-1" in line for line in merged)


def test_concurrent_commits_are_serialized_with_continuous_timestamps():
    system = build_system(peers=8)
    edits = [
        (f"peer-{index}", "wiki:concurrent", f"contribution from peer-{index}")
        for index in range(5)
    ]
    results = system.run_concurrent_commits(edits)
    assert len(results) == 5
    assert sorted(result.ts for result in results) == [1, 2, 3, 4, 5]
    assert system.last_ts("wiki:concurrent") == 5


def test_concurrent_commits_reach_eventual_consistency():
    system = build_system(peers=8)
    edits = [
        (f"peer-{index}", "wiki:shared", f"line from peer-{index}")
        for index in range(6)
    ]
    system.run_concurrent_commits(edits)
    report = system.check_consistency("wiki:shared")
    assert report.converged
    assert report.last_ts == 6
    assert report.replica_count == 6
    assert report.distinct_contents == 1
    report.raise_if_inconsistent()
    # every peer sees every contribution exactly once
    canonical = report.canonical_lines
    assert len(canonical) == 6
    assert len(set(canonical)) == 6


def test_retrieval_returns_patches_in_continuous_total_order():
    system = build_system(peers=6)
    for index in range(4):
        system.edit_and_commit(f"peer-{index}", "wiki:ordered", f"edit {index}")
    entries = system.fetch_log("wiki:ordered", 1, 4)
    assert [entry.ts for entry in entries] == [1, 2, 3, 4]
    # a fresh reader peer can rebuild the document from the log alone
    report = system.check_consistency("wiki:ordered")
    assert report.log_continuous and report.converged


def test_sync_brings_lagging_reader_up_to_date():
    system = build_system()
    for index in range(3):
        system.edit_and_commit("peer-0", "wiki:news", f"headline {index}")
    reader = system.user("peer-3")
    assert reader.last_known_ts("wiki:news") == 0
    sync = system.sync("peer-3", "wiki:news")
    assert sync.retrieved_patches == 3
    assert reader.last_known_ts("wiki:news") == 3
    assert reader.document("wiki:news").lines == \
        system.user("peer-0").document("wiki:news").lines
    second = system.sync("peer-3", "wiki:news")
    assert second.already_current


def test_sync_preserves_pending_local_edits():
    system = build_system()
    system.edit_and_commit("peer-0", "wiki:mix", "published line")
    writer = system.user("peer-2")
    writer.edit("wiki:mix", "local draft line")
    system.sync("peer-2", "wiki:mix")
    working = writer.working_lines("wiki:mix")
    assert "published line" in working
    assert "local draft line" in working
    result = system.commit("peer-2", "wiki:mix")
    assert result.ts == 2
    report = system.check_consistency("wiki:mix")
    assert report.converged


def test_all_replicas_identical_after_mixed_workload():
    system = build_system(peers=8, seed=23)
    key = "wiki:busy"
    system.run_concurrent_commits(
        [(f"peer-{index}", key, f"round1 by peer-{index}") for index in range(4)]
    )
    system.run_concurrent_commits(
        [(f"peer-{index}", key, f"round2 by peer-{index}") for index in range(4, 8)]
    )
    system.sync_all(key)
    replicas = [user.document(key) for user in system.users()]
    assert all_converged(replicas)
    assert system.last_ts(key) == 8


# ---------------------------------------------------------------------------
# master-side bookkeeping
# ---------------------------------------------------------------------------


def test_master_statistics_track_validations():
    system = build_system(peers=6)
    system.edit_and_commit("peer-0", "wiki:stats", "v1")
    system.edit_and_commit("peer-1", "wiki:stats", "v2")
    stats = system.master_service("wiki:stats").statistics()
    assert stats["proposals_ok"] == 2
    # (Pinned proposals_behind >= 1.)  peer-1 was behind once: its patch was
    # transformed at the Master, not sent back.
    assert (stats["proposals_rebased"], stats["proposals_behind"],
            stats["proposals_deduplicated"]) == (1, 0, 0)
    assert stats["patches_published"] == 2
    totals = system.statistics()
    assert (totals["proposals_ok"], totals["proposals_rebased"],
            totals["proposals_deduplicated"], totals["proposals_behind"]) == (2, 1, 0, 0)


def test_master_of_is_the_kts_responsible_peer():
    system = build_system(peers=6)
    system.edit_and_commit("peer-0", "wiki:who", "content")
    master_name = system.master_of("wiki:who")
    master_node = system.ring.node(master_name)
    assert master_node.service("kts").managed_keys().get("wiki:who") == 1


def test_user_statistics_summarise_commits():
    system = build_system()
    system.edit_and_commit("peer-0", "wiki:a", "x")
    system.edit_and_commit("peer-0", "wiki:b", "y")
    stats = system.user("peer-0").statistics()
    assert stats["commits"] == stats["edits"] == 2
    assert stats["documents"] == ["wiki:a", "wiki:b"]
    assert stats["mean_attempts"] >= 1.0
    assert system.statistics()["proposals_ok"] == 2


def test_independent_documents_do_not_interfere():
    system = build_system(peers=6)
    result_a = system.edit_and_commit("peer-0", "wiki:doc-a", "a content")
    result_b = system.edit_and_commit("peer-1", "wiki:doc-b", "b content")
    assert result_a.ts == 1 and result_b.ts == 1
    assert system.last_ts("wiki:doc-a") == 1
    assert system.last_ts("wiki:doc-b") == 1
    assert system.check_consistency("wiki:doc-a").converged
    assert system.check_consistency("wiki:doc-b").converged


def test_stale_master_answer_purges_the_route_it_came_by():
    """A peer that is not the Master answers with a counter behind the
    proposer's replica.  The retry must re-resolve the Master, not ride the
    same cached route to the same wrong peer until its TTL."""
    from repro.chord import ChordConfig

    ttl, delay = 30.0, 0.5
    system = LtrSystem(
        ltr_config=LtrConfig(validation_retry_delay=delay),
        chord_config=ChordConfig(route_cache_ttl=ttl),
        seed=7,
        latency=ConstantLatency(0.004),
    )
    system.bootstrap(8)
    key = "wiki:stale-master"
    master = system.master_of(key)
    names = system.peer_names()
    # A proposer whose successor is not the Master (so the lookup consults
    # the cache) and a third peer to pose as the Master.
    proposer = next(name for name in names
                    if name != master and system.ring.node(name).successor.name != master)
    impostor = next(name for name in names if name not in (master, proposer))
    system.edit_and_commit(proposer, key, "first revision")
    target = system.ht(key)
    node = system.ring.node(proposer)
    node.route_cache.clear()
    node.route_cache.store((target - 1, target), system.ring.node(impostor).ref,
                           system.runtime.now)
    result = system.edit_and_commit(proposer, key, "second revision")
    assert result.ts == 2 and result.attempts == 2  # one stale answer, one delay
    assert delay <= result.latency < 2 * delay < ttl
    assert node.route_cache.lookup(target, system.runtime.now)[1].name == master
