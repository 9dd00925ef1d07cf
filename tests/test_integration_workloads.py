"""End-to-end integration: generated workloads and churn against P2P-LTR.

These tests drive the full stack the way the experiment harness does —
synthetic multi-document editing workloads, concurrent waves, and scripted
churn schedules — and verify the global invariants the paper claims:
continuous per-document timestamp sequences, a complete P2P-Log and
convergence of every replica.
"""

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.net import ConstantLatency
from repro.workloads import (
    PROFILES,
    apply_churn_action,
    generate_churn_schedule,
    generate_corpus,
    generate_workload,
    single_document_contention,
)


def build_system(peers=10, seed=81, **ltr_overrides):
    system = LtrSystem(
        ltr_config=LtrConfig(**ltr_overrides) if ltr_overrides else LtrConfig(),
        seed=seed,
        latency=ConstantLatency(0.004),
    )
    system.bootstrap(peers)
    return system


def replay_wave(system, wave, rng_seed=0):
    """Apply one wave of edit actions concurrently and return the results."""
    edits = []
    for action in wave:
        user = system.user(action.peer)
        current = user.working_lines(action.document_key)
        import random

        new_lines = action.mutate(current, random.Random(rng_seed))
        edits.append((action.peer, action.document_key, "\n".join(new_lines)))
    return system.run_concurrent_commits(edits)


def test_multi_document_workload_reaches_consistency():
    system = build_system(peers=10, seed=83)
    corpus = generate_corpus(6, seed=83)
    peers = system.peer_names()
    # seed every document with its initial content
    for index, document in enumerate(corpus):
        system.edit_and_commit(peers[index % len(peers)], document.key, document.text)
    workload = generate_workload(
        peers=peers[:6], documents=corpus.keys(), waves=4, writers_per_wave=3, seed=83,
    )
    for wave in workload.waves():
        # each writer refreshes its replica before editing (realistic save cycle)
        for action in wave:
            system.sync(action.peer, action.document_key)
        replay_wave(system, wave)
    for document in corpus:
        report = system.check_consistency(document.key)
        assert report.converged, document.key
        assert report.log_continuous, document.key
        assert report.last_ts >= 1


def test_single_document_contention_workload():
    system = build_system(peers=8, seed=85)
    peers = system.peer_names()
    workload = single_document_contention(peers=peers, waves=3, writers_per_wave=4, seed=85)
    key = workload.documents()[0]
    total_writes = 0
    for wave in workload.waves():
        results = replay_wave(system, wave)
        total_writes += len(results)
    assert system.last_ts(key) == total_writes
    report = system.check_consistency(key)
    assert report.converged


def test_editing_under_scripted_churn_preserves_invariants():
    system = build_system(peers=12, seed=87, log_replication_factor=3)
    key = "xwiki:churny"
    peers = system.peer_names()
    schedule = generate_churn_schedule(
        initial_peers=peers,
        duration=30.0,
        profile=PROFILES["gentle"],
        seed=87,
        protected=peers[:2],  # keep two stable writers
    )
    expected_ts = 0
    churn_events = list(schedule)[:4]  # bounded so the test stays fast
    for round_index in range(4):
        writer = peers[round_index % 2]  # protected peers only
        expected_ts += 1
        result = system.edit_and_commit(writer, key, f"revision {expected_ts}")
        assert result.ts == expected_ts
        system.run_for(2.0)
        if round_index < len(churn_events):
            _time, action, peer = churn_events[round_index]
            if peer in system.peer_names() or action == "join":
                apply_churn_action(system, action, peer)
    assert system.last_ts(key) == expected_ts
    report = system.check_consistency(key)
    assert report.converged
    assert report.log_continuous


def test_mixed_readers_and_writers_observe_monotonic_progress():
    system = build_system(peers=8, seed=89)
    key = "xwiki:feed"
    writers = system.peer_names()[:3]
    reader = system.peer_names()[-1]
    observed = []
    for round_index in range(3):
        system.run_concurrent_commits(
            [(writer, key, f"round {round_index} by {writer}") for writer in writers]
        )
        system.sync(reader, key)
        observed.append(system.user(reader).last_known_ts(key))
    # the reader's view only moves forward and ends fully caught up
    assert observed == sorted(observed)
    assert observed[-1] == system.last_ts(key) == 9


def test_statistics_reflect_workload_activity():
    system = build_system(peers=8, seed=91)
    key = "xwiki:statistics"
    system.run_concurrent_commits(
        [(name, key, f"text by {name}") for name in system.peer_names()[:4]]
    )
    stats = system.statistics()
    assert stats["proposals_ok"] == 4
    assert stats["peers"] == 8
    assert stats["network"]["delivered"] > 0
    per_user = {entry["author"]: entry for entry in stats["users"]}
    assert sum(entry["commits"] for entry in per_user.values()) == 4
