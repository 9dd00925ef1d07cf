"""The paper's scenarios (E1..E8) plus extensions (E9..E20), as declarative specs.

Each scenario is two small pieces over the engine (:mod:`repro.engine`):

* a *measurement callback* ``_measure_<name>(ctx)`` that builds what it
  needs through the context's builders and returns plain row dicts, and
* a *spec factory* ``<name>_spec(...)`` whose keyword arguments are the
  scenario's parameters.  The keyword defaults **are** the quick profile —
  what ``python -m repro.experiments`` runs and what the committed
  ``benchmarks/artifacts/BENCH_<id>.json`` baselines record;
  :data:`repro.experiments.runner.FULL_PARAMETERS` is the one override
  table (paper-scale values) on top of them.

:data:`SPEC_FACTORIES` is the registry: experiment id -> factory, in paper
order.  Adding a workload is a callback + a factory (~30 lines) + one
registry line.  See ``DESIGN.md`` for the experiment-id <-> paper-artefact
mapping.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from typing import Callable, Optional, Sequence

from ..baselines import CentralSystem, LwwSystem
from ..check import ConvergenceChecker
from ..chord import ChordRing, hash_to_id
from ..core import LtrConfig, LtrSystem
from ..dht import ChordDhtClient
from ..engine import EXPERIMENT_CHORD_CONFIG, ScenarioContext, ScenarioSpec
from ..errors import KeyNotFound, MasterUnavailable, PatchUnavailable, ReproError
from ..faults import FaultPlan
from ..kts import KtsClient, TimestampAuthority
from ..metrics import RecoveryTracker, jains_fairness, summarize
from ..net import ConstantLatency, latency_preset
from ..workloads import (
    PROFILES,
    apply_churn_action,
    document_frequencies,
    generate_churn_schedule,
    generate_corpus,
    generate_zipf_workload,
    hot_document_share,
    sample_zipf_rank,
    zipf_weights,
)

__all__ = [
    "EXPERIMENT_CHORD_CONFIG",
    "SCALE_CHORD_CONFIG",
    "SPEC_FACTORIES",
]


# ---------------------------------------------------------------------------
# E1 — Timestamp generation (Figure 4)
# ---------------------------------------------------------------------------


def _measure_timestamp_generation(ctx: ScenarioContext) -> dict:
    peers = ctx.params["peers"]
    documents = ctx.params["documents"]
    updates_per_document = ctx.params["updates_per_document"]
    corpus = generate_corpus(documents, seed=ctx.base_seed)
    ring = ctx.build_ring(
        peers,
        latency=ConstantLatency(0.005),
        service_factory=lambda address: [TimestampAuthority()],
    )
    gateway = ring.gateway()
    kts = KtsClient(ChordDhtClient(gateway))
    latencies = []
    for document in corpus:
        for _ in range(updates_per_document):
            started = ring.runtime.now
            ring.runtime.run(until=ring.runtime.process(kts.gen_ts(document.key)))
            latencies.append(ring.runtime.now - started)
    per_master = {
        node.address.name: len(node.service("kts").managed_keys())
        for node in ring.live_nodes()
    }
    continuous = all(
        ring.runtime.run(until=ring.runtime.process(kts.last_ts(document.key)))
        == updates_per_document
        for document in corpus
    )
    loads = list(per_master.values())
    return {
        "peers": peers,
        "documents": len(corpus),
        "masters_used": sum(1 for count in loads if count > 0),
        "max_keys_per_master": max(loads),
        "fairness": round(jains_fairness(loads), 3),
        "mean_gen_ts_latency_s": summarize(latencies).mean,
        "continuous_sequences": continuous,
    }


def timestamp_generation_spec(
    peer_counts: Sequence[int] = (8, 16),
    documents: int = 24,
    updates_per_document: int = 2,
    seed: int = 1,
) -> ScenarioSpec:
    """Continuous timestamp generation distributed over the Master-key peers."""
    return ScenarioSpec(
        scenario_id="E1",
        title="E1 Timestamp generation across the DHT",
        description=(
            "For each ring size, every document receives a fixed number of "
            "timestamps; rows report responsibility spread (Jain's fairness), "
            "mean gen_ts response time and per-document continuity."
        ),
        columns=(
            "peers", "documents", "masters_used", "max_keys_per_master",
            "fairness", "mean_gen_ts_latency_s", "continuous_sequences",
        ),
        grid={"peers": tuple(peer_counts)},
        constants={"documents": documents, "updates_per_document": updates_per_document},
        seed=seed,
        seed_offset=lambda params: params["peers"],
        measure=_measure_timestamp_generation,
        notes=(
            "paper claim: each Master-key peer is responsible for a subset of the "
            "documents and timestamps are continuous (ts' = ts + 1)",
        ),
    )


# ---------------------------------------------------------------------------
# E2 — Concurrent patch publishing (Figure 5)
# ---------------------------------------------------------------------------


def _measure_concurrent_publishing(ctx: ScenarioContext) -> dict:
    updaters = ctx.params["updaters"]
    peers = ctx.params["peers"]
    system = ctx.build_system(max(peers, updaters))
    key = f"xwiki:hot-{updaters}"
    names = system.peer_names()[:updaters]
    results = system.run_concurrent_commits(
        [(name, key, f"contribution from {name}") for name in names]
    )
    report = system.check_consistency(key)
    latencies = [result.latency for result in results]
    return {
        "updaters": updaters,
        "validated_ts": system.last_ts(key),
        "mean_attempts": summarize([result.attempts for result in results]).mean,
        "mean_retrieved": summarize([result.retrieved_patches for result in results]).mean,
        "mean_commit_latency_s": summarize(latencies).mean,
        "p95_commit_latency_s": summarize(latencies).p95,
        "converged": report.converged,
    }


def concurrent_publishing_spec(
    updater_counts: Sequence[int] = (2, 4),
    peers: int = 10,
    seed: int = 2,
) -> ScenarioSpec:
    """Concurrent updates on one document: serialization, retrieval, consistency."""
    return ScenarioSpec(
        scenario_id="E2",
        title="E2 Concurrent patch publishing on a single document",
        description=(
            "Several peers commit to one document at the same simulated "
            "instant; the Master-key peer serializes them and lagging "
            "updaters retrieve the missing patches in total order."
        ),
        columns=(
            "updaters", "validated_ts", "mean_attempts", "mean_retrieved",
            "mean_commit_latency_s", "p95_commit_latency_s", "converged",
        ),
        grid={"updaters": tuple(updater_counts)},
        constants={"peers": peers},
        seed=seed,
        seed_offset=lambda params: params["updaters"],
        measure=_measure_concurrent_publishing,
        notes=(
            "paper claim: concurrent updates are serialized by the Master-key peer "
            "(continuous timestamps) and retrieval returns missing patches in total order",
        ),
    )


# ---------------------------------------------------------------------------
# E3 — Master-key peer departures (normal and failure)
# ---------------------------------------------------------------------------


def _measure_master_departure(ctx: ScenarioContext) -> list[dict]:
    events = ctx.params["events"]
    peers = ctx.params["peers"]
    system = ctx.build_system(peers)
    key = "xwiki:departures"
    rows = []
    expected_ts = 0
    for event in events:
        writer = system.peer_names()[0]
        expected_ts += 1
        system.edit_and_commit(writer, key, f"content before {event} #{expected_ts}")
        system.run_for(2.0)  # let counter/log replicas settle
        old_master = system.master_of(key)
        ts_before = system.last_ts(key)
        if event == "leave":
            system.leave(old_master)
        else:
            system.crash(old_master)
        new_master = system.master_of(key)
        ts_after = system.last_ts(key)
        writer = system.peer_names()[0]
        expected_ts += 1
        result = system.edit_and_commit(writer, key, f"content after {event} #{expected_ts}")
        report = system.check_consistency(key)
        rows.append({
            "event": event,
            "ts_before": ts_before,
            "ts_after_recovery": ts_after,
            "new_master_differs": new_master != old_master,
            "next_commit_ts": result.ts,
            "continuity_preserved": result.ts == ts_before + 1,
            "converged": report.converged,
        })
    return rows


def master_departure_spec(
    events: Sequence[str] = ("leave", "crash"),
    peers: int = 10,
    seed: int = 3,
) -> ScenarioSpec:
    """Timestamp continuity across Master-key departures and crashes."""
    return ScenarioSpec(
        scenario_id="E3",
        title="E3 Master-key peer departures",
        description=(
            "A document keeps receiving updates while its Master-key peer "
            "leaves gracefully or crashes; keys and last-ts must transfer to "
            "the Master-key-Succ with no timestamp gap."
        ),
        columns=(
            "event", "ts_before", "ts_after_recovery", "new_master_differs",
            "next_commit_ts", "continuity_preserved", "converged",
        ),
        constants={"events": tuple(events), "peers": peers},
        seed=seed,
        measure=_measure_master_departure,
        notes=(
            "paper claim: keys and last-ts transfer to the Master-key-Succ so the "
            "timestamp sequence continues without gaps",
        ),
    )


# ---------------------------------------------------------------------------
# E4 — New Master-key peer joining
# ---------------------------------------------------------------------------


def _measure_master_join(ctx: ScenarioContext) -> list[dict]:
    joiners = ctx.params["joiners"]
    peers = ctx.params["peers"]
    documents = ctx.params["documents"]
    system = ctx.build_system(peers)
    corpus = generate_corpus(documents, seed=ctx.base_seed)
    writers = system.peer_names()
    for index, document in enumerate(corpus):
        system.edit_and_commit(writers[index % len(writers)], document.key, document.text)
    rows = []
    for joiner_index in range(joiners):
        name = f"joiner-{joiner_index}"
        owners_before = {document.key: system.master_of(document.key) for document in corpus}
        expected_ts = {document.key: system.last_ts(document.key) for document in corpus}
        system.add_peer(name)
        moved = [
            document.key
            for document in corpus
            if system.master_of(document.key) == name and owners_before[document.key] != name
        ]
        counters_correct = all(
            system.last_ts(key) == expected_ts[key] for key in moved
        )
        post_join_ok = True
        sample_converged = True
        if moved:
            sample_key = moved[0]
            writer = system.peer_names()[0]
            result = system.edit_and_commit(
                writer, sample_key, f"update after {name} joined"
            )
            post_join_ok = result.ts == expected_ts[sample_key] + 1
            sample_converged = system.check_consistency(sample_key).converged
        rows.append({
            "joiner": name,
            "keys_taken_over": len(moved),
            "counters_correct": counters_correct,
            "post_join_commit_ok": post_join_ok,
            "converged_sample": sample_converged,
        })
    return rows


def master_join_spec(
    joiners: int = 2,
    peers: int = 6,
    documents: int = 12,
    seed: int = 4,
) -> ScenarioSpec:
    """Key/timestamp hand-over to newly joining Master-key peers."""
    return ScenarioSpec(
        scenario_id="E4",
        title="E4 New Master-key peer joining",
        description=(
            "Fresh peers join a loaded system and become Master-key peers "
            "for part of the key space; counters must transfer intact and "
            "post-join commits continue each sequence."
        ),
        columns=(
            "joiner", "keys_taken_over", "counters_correct",
            "post_join_commit_ok", "converged_sample",
        ),
        constants={"joiners": joiners, "peers": peers, "documents": documents},
        seed=seed,
        measure=_measure_master_join,
        notes=(
            "paper claim: the old responsible transfers its keys and timestamps to "
            "the new Master-key peer without violating eventual consistency",
        ),
    )


# ---------------------------------------------------------------------------
# E5 — Response time vs. number of peers and network latency
# ---------------------------------------------------------------------------


def _measure_response_time(ctx: ScenarioContext) -> dict:
    peers = ctx.params["peers"]
    preset = ctx.params["latency_preset"]
    commits_per_setting = ctx.params["commits_per_setting"]
    model = latency_preset(preset)
    system = ctx.build_system(peers, latency=model)
    key = f"xwiki:rt-{peers}-{preset}"
    writer = system.peer_names()[0]
    latencies = []
    for index in range(commits_per_setting):
        result = system.edit_and_commit(writer, key, f"revision {index}")
        latencies.append(result.latency)
    summary = summarize(latencies)
    return {
        "peers": peers,
        "latency_preset": preset,
        "mean_commit_latency_s": summary.mean,
        "p95_commit_latency_s": summary.p95,
        "mean_one_way_latency_s": model.mean(),
    }


def response_time_spec(
    peer_counts: Sequence[int] = (8, 16),
    latency_presets: Sequence[str] = ("lan", "wan"),
    commits_per_setting: int = 5,
    seed: int = 5,
) -> ScenarioSpec:
    """Update response time as a function of ring size and network latency."""
    return ScenarioSpec(
        scenario_id="E5",
        title="E5 Update response time vs. peers and latency",
        description=(
            "The prototype's headline measurement: commit response time "
            "swept over ring size and one-way network latency."
        ),
        columns=(
            "peers", "latency_preset", "mean_commit_latency_s",
            "p95_commit_latency_s", "mean_one_way_latency_s",
        ),
        grid={"peers": tuple(peer_counts), "latency_preset": tuple(latency_presets)},
        constants={"commits_per_setting": commits_per_setting},
        seed=seed,
        seed_offset=lambda params: params["peers"],
        measure=_measure_response_time,
        notes=(
            "expected shape: response time scales with one-way latency (constant hop "
            "count per validation) and only logarithmically with the number of peers",
        ),
    )


# ---------------------------------------------------------------------------
# E6 — Comparison against the centralized reconciler and LWW baselines
# ---------------------------------------------------------------------------


def _measure_baseline_comparison(ctx: ScenarioContext) -> list[dict]:
    updaters = ctx.params["updaters"]
    peers = ctx.params["peers"]
    key = f"xwiki:baseline-{updaters}"
    rows = []

    # --- P2P-LTR ---------------------------------------------------------
    ltr = ctx.build_system(max(peers, updaters))
    names = ltr.peer_names()[:updaters]
    results = ltr.run_concurrent_commits(
        [(name, key, f"text by {name}") for name in names]
    )
    ltr_report = ltr.check_consistency(key)
    crash_survivor = True
    try:
        ltr.crash(ltr.master_of(key))
        survivor = ltr.peer_names()[0]
        ltr.edit_and_commit(survivor, key, "post-crash update")
    except MasterUnavailable:
        crash_survivor = False
    rows.append({
        "system": "p2p-ltr",
        "updaters": updaters,
        "mean_commit_latency_s": summarize([result.latency for result in results]).mean,
        "all_updates_preserved": ltr_report.converged and ltr_report.last_ts == updaters,
        "survives_coordinator_crash": crash_survivor,
        "lost_updates": 0,
    })

    # --- Centralized reconciler -----------------------------------------
    central = CentralSystem(
        peer_count=max(peers, updaters), seed=ctx.seed,
        latency=ConstantLatency(0.005),
    )
    central_results = central.run_concurrent_commits(
        [(f"peer-{index}", key, f"text by peer-{index}") for index in range(updaters)]
    )
    central.crash_reconciler()
    central_survives = True
    try:
        central.edit_and_commit("peer-0", key, "post-crash update")
    except MasterUnavailable:
        central_survives = False
    rows.append({
        "system": "central",
        "updaters": updaters,
        "mean_commit_latency_s": summarize(
            [result["latency"] for result in central_results]
        ).mean,
        "all_updates_preserved": True,
        "survives_coordinator_crash": central_survives,
        "lost_updates": 0,
    })

    # --- Last-writer-wins ------------------------------------------------
    lww = LwwSystem.build(
        peer_count=max(peers, updaters), seed=ctx.seed,
        latency=ConstantLatency(0.005),
    )
    for index in range(updaters):
        lww.write(f"peer-{index}", key, f"text by peer-{index}")
    lww.settle(2.0)
    rows.append({
        "system": "lww",
        "updaters": updaters,
        "mean_commit_latency_s": 0.0,
        "all_updates_preserved": lww.lost_updates(key) == 0,
        "survives_coordinator_crash": True,
        "lost_updates": lww.lost_updates(key),
    })
    return rows


def baseline_comparison_spec(
    updater_counts: Sequence[int] = (2, 4),
    peers: int = 10,
    seed: int = 6,
) -> ScenarioSpec:
    """P2P-LTR vs. centralized reconciler vs. last-writer-wins."""
    return ScenarioSpec(
        scenario_id="E6",
        title="E6 P2P-LTR vs. baselines",
        description=(
            "The introduction's argument, measured: the same concurrent "
            "editing burst against P2P-LTR, a centralized reconciler and a "
            "last-writer-wins store."
        ),
        columns=(
            "system", "updaters", "mean_commit_latency_s", "all_updates_preserved",
            "survives_coordinator_crash", "lost_updates",
        ),
        grid={"updaters": tuple(updater_counts)},
        constants={"peers": peers},
        seed=seed,
        seed_offset=lambda params: params["updaters"],
        measure=_measure_baseline_comparison,
        notes=(
            "expected shape: only P2P-LTR both survives coordinator failure and "
            "preserves every concurrent contribution",
        ),
    )


# ---------------------------------------------------------------------------
# E7 — P2P-Log availability vs. replication factor |Hr|
# ---------------------------------------------------------------------------


def _measure_log_availability(ctx: ScenarioContext) -> dict:
    factor = ctx.params["replication_factor"]
    crashed_log_peers = ctx.params["crashed_log_peers"]
    peers = ctx.params["peers"]
    entries = ctx.params["entries"]
    system = ctx.build_system(
        peers, ltr_config=LtrConfig(log_replication_factor=factor),
    )
    key = f"xwiki:avail-{factor}"
    writer = system.peer_names()[0]
    for index in range(entries):
        system.edit_and_commit(writer, key, f"revision {index}")
    system.run_for(2.0)
    log = system.log_client()
    # crash peers that hold log placements (but never the writer itself)
    victims = []
    for ts in range(1, entries + 1):
        for _, identifier in log.placements(key, ts):
            owner = system.ring.responsible_node_for_id(identifier).address.name
            if owner != writer and owner not in victims:
                victims.append(owner)
        if len(victims) >= crashed_log_peers:
            break
    for victim in victims[:crashed_log_peers]:
        system.crash(victim)
    log = system.log_client(via=writer)
    retrievable = 0
    placements_alive = []
    for ts in range(1, entries + 1):
        try:
            system.runtime.run(until=system.runtime.process(log.fetch(key, ts)))
            retrievable += 1
        except (PatchUnavailable, KeyNotFound):
            pass
        placements_alive.append(
            system.runtime.run(until=system.runtime.process(log.availability(key, ts)))
        )
    return {
        "replication_factor": factor,
        "entries": entries,
        "crashed_peers": len(victims[:crashed_log_peers]),
        "retrievable_fraction": retrievable / entries,
        "mean_available_placements": summarize(placements_alive).mean,
    }


def log_availability_spec(
    replication_factors: Sequence[int] = (1, 2, 3),
    crashed_log_peers: int = 1,
    peers: int = 12,
    entries: int = 6,
    seed: int = 7,
) -> ScenarioSpec:
    """Patch availability under Log-Peer failures, by replication factor."""
    return ScenarioSpec(
        scenario_id="E7",
        title="E7 P2P-Log availability vs. replication factor",
        description=(
            "Design ablation: Log-Peers crash after a burst of published "
            "patches; the retrievable fraction is measured per |Hr|."
        ),
        columns=(
            "replication_factor", "entries", "crashed_peers",
            "retrievable_fraction", "mean_available_placements",
        ),
        grid={"replication_factor": tuple(replication_factors)},
        constants={
            "crashed_log_peers": crashed_log_peers,
            "peers": peers,
            "entries": entries,
        },
        seed=seed,
        seed_offset=lambda params: params["replication_factor"],
        measure=_measure_log_availability,
        notes=(
            "expected shape: availability rises sharply with |Hr|; with the DHT's own "
            "successor replication even |Hr|=1 usually survives a single crash",
        ),
    )


# ---------------------------------------------------------------------------
# E8 — Chord substrate health (lookup correctness, hop counts, route cache)
# ---------------------------------------------------------------------------


def _hot_gateway(ring: ChordRing, key: str) -> str:
    """A live node roughly half a ring away from ``key``'s owner, so the
    uncached lookup path always needs at least one hop."""
    live = ring.live_nodes()
    owner = ring.responsible_node(key)
    index = next(i for i, node in enumerate(live) if node is owner)
    return live[(index + len(live) // 2) % len(live)].address.name


def _measure_chord_lookup(ctx: ScenarioContext) -> dict:
    peers = ctx.params["peers"]
    lookups = ctx.params["lookups"]
    hot_lookups = ctx.params["hot_lookups"]
    config = ctx.topology.chord_config
    cached_ring = ctx.build_ring(peers, latency=ConstantLatency(0.003),
                                 config=config, settle=20.0)
    plain_ring = ctx.build_ring(peers, latency=ConstantLatency(0.003),
                                config=config, settle=20.0)

    def uncached_hops(key: str, via: str) -> int:
        # The uncached baseline: the same ring with every cache emptied
        # before each of its lookups, so each one walks the finger chain.
        plain_ring.clear_route_caches()
        return plain_ring.lookup(key, via=via)["hops"]

    # Distinct keys: hop-count baseline from the uncached ring, correctness
    # checked on the cached ring (cached answers must also be right).
    correct = 0
    hops = []
    for index in range(lookups):
        key = f"lookup-key-{index}"
        via = plain_ring.ring_order()[index % peers]
        hops.append(uncached_hops(key, via))
        answer = cached_ring.lookup(key, via=via)
        if answer["node"] == cached_ring.responsible_node(key).ref:
            correct += 1
    # Repeated same-key lookups: the dominant pattern of E1/E5 (every commit
    # resolves the same Master-key peer).  With the route cache only the
    # first lookup pays the hop chain.
    hot_key = "hot-master-key"
    hot_plain = [
        uncached_hops(hot_key, _hot_gateway(plain_ring, hot_key))
        for _ in range(hot_lookups)
    ]
    hot_cached = [
        cached_ring.lookup(hot_key, via=_hot_gateway(cached_ring, hot_key))["hops"]
        for _ in range(hot_lookups)
    ]
    return {
        "peers": peers,
        "lookups": lookups,
        "correct_fraction": correct / lookups,
        "mean_hops": summarize(hops).mean,
        "max_hops": max(hops),
        "hot_mean_hops_uncached": summarize(hot_plain).mean,
        "hot_mean_hops_cached": summarize(hot_cached).mean,
        "cache_hit_fraction": cached_ring.route_cache_stats()["hit_fraction"],
    }


def chord_lookup_spec(
    peer_counts: Sequence[int] = (8, 16),
    lookups: int = 20,
    hot_lookups: int = 8,
    seed: int = 8,
) -> ScenarioSpec:
    """Lookup correctness and hop counts of the Chord substitute."""
    return ScenarioSpec(
        scenario_id="E8",
        title="E8 Chord lookup correctness, hop count and route cache",
        description=(
            "Substrate validation: routed lookups must match ground truth, "
            "hop counts grow logarithmically, and the route cache removes "
            "the hop chain for repeated same-key lookups."
        ),
        columns=(
            "peers", "lookups", "correct_fraction", "mean_hops", "max_hops",
            "hot_mean_hops_uncached", "hot_mean_hops_cached", "cache_hit_fraction",
        ),
        grid={"peers": tuple(peer_counts)},
        constants={"lookups": lookups, "hot_lookups": hot_lookups},
        seed=seed,
        seed_offset=lambda params: params["peers"],
        measure=_measure_chord_lookup,
        notes=(
            "expected shape: hop count grows logarithmically with ring size; "
            "repeated lookups towards one master cost ~0 hops with the route cache",
        ),
    )


# ---------------------------------------------------------------------------
# E9 — Hot-document skew (Zipf-distributed edits) — engine-native scenario
# ---------------------------------------------------------------------------


def _measure_hot_document_skew(ctx: ScenarioContext) -> dict:
    s = ctx.params["zipf_s"]
    peers = ctx.params["peers"]
    documents = ctx.params["documents"]
    waves = ctx.params["waves"]
    writers_per_wave = ctx.params["writers_per_wave"]
    system = ctx.build_system(peers)
    names = system.peer_names()
    keys = [f"xwiki:zipf-{rank}" for rank in range(documents)]
    workload = generate_zipf_workload(
        peers=names, documents=keys, waves=waves,
        writers_per_wave=writers_per_wave, s=s, seed=ctx.base_seed,
    )
    latencies = []
    retrieved = []
    for wave_actions in workload.waves():
        results = system.run_concurrent_commits([
            (action.peer, action.document_key,
             f"{action.line}\nrevision by {action.peer}")
            for action in wave_actions
        ])
        latencies.extend(result.latency for result in results)
        retrieved.extend(result.retrieved_patches for result in results)
    edits_per_master = Counter(
        system.master_of(action.document_key) for action in workload.actions
    )
    hot_key = document_frequencies(workload).most_common(1)[0][0]
    report = system.check_consistency(hot_key)
    return {
        "zipf_s": s,
        "edits": len(workload.actions),
        "distinct_documents": len(workload.documents()),
        "hot_document_share": round(hot_document_share(workload), 3),
        "masters_used": len(edits_per_master),
        "master_load_fairness": round(jains_fairness(list(edits_per_master.values())), 3),
        "mean_commit_latency_s": summarize(latencies).mean,
        "mean_retrieved": summarize(retrieved).mean,
        "converged_hot": report.converged,
    }


def hot_document_skew_spec(
    zipf_exponents: Sequence[float] = (0.0, 1.5),
    peers: int = 10,
    documents: int = 12,
    waves: int = 4,
    writers_per_wave: int = 3,
    seed: int = 9,
) -> ScenarioSpec:
    """Zipf-skewed editing: contention concentrating on few Master-key peers."""
    return ScenarioSpec(
        scenario_id="E9",
        title="E9 Hot-document skew (Zipf edits)",
        description=(
            "Between the paper's two extremes — E1's uniform spread and E2's "
            "single hot page — realistic wikis are Zipf-skewed.  Sweeping the "
            "exponent shows edits, retrieval work and Master-key load "
            "concentrating as the skew grows."
        ),
        columns=(
            "zipf_s", "edits", "distinct_documents", "hot_document_share",
            "masters_used", "master_load_fairness", "mean_commit_latency_s",
            "mean_retrieved", "converged_hot",
        ),
        grid={"zipf_s": tuple(zipf_exponents)},
        constants={
            "peers": peers,
            "documents": documents,
            "waves": waves,
            "writers_per_wave": writers_per_wave,
        },
        seed=seed,
        seed_offset=lambda params: int(params["zipf_s"] * 100),
        measure=_measure_hot_document_skew,
        notes=(
            "expected shape: growing skew funnels edits onto fewer documents and "
            "masters (hot share up, fairness down) and increases retrieval work",
        ),
    )


# ---------------------------------------------------------------------------
# E10 — Mixed churn + commit soak — engine-native scenario
# ---------------------------------------------------------------------------


def _measure_churn_soak(ctx: ScenarioContext) -> dict:
    profile_name = ctx.params["profile"]
    peers = ctx.params["peers"]
    duration = ctx.params["duration"]
    commit_interval = ctx.params["commit_interval"]
    system = ctx.build_system(peers)
    names = system.peer_names()
    key = "xwiki:soak"
    protected = tuple(names[:2])  # the ring (and a writer) must survive
    schedule = generate_churn_schedule(
        initial_peers=names,
        duration=duration,
        profile=PROFILES[profile_name],
        seed=ctx.seed,
        protected=protected,
    )
    timeline = [(when, "churn", (action, peer)) for when, action, peer in schedule]
    ticks = int(duration / commit_interval)
    timeline.extend(
        ((tick + 1) * commit_interval, "commit", None) for tick in range(ticks)
    )
    timeline.sort(key=lambda entry: entry[0])

    start = system.runtime.now
    attempted = succeeded = 0
    latencies = []
    for offset, kind, payload in timeline:
        target = start + offset
        if system.runtime.now < target:
            system.run_for(target - system.runtime.now)
        if kind == "churn":
            action, peer = payload
            apply_churn_action(system, action, peer)
            continue
        writer = protected[attempted % len(protected)]
        attempted += 1
        try:
            result = system.edit_and_commit(
                writer, key, f"soak revision {attempted} by {writer}"
            )
            succeeded += 1
            latencies.append(result.latency)
        except ReproError:
            pass  # a commit racing a membership change may fail; that is the point
    system.run_for(2.0)
    try:
        report = system.check_consistency(key)
        log_continuous, converged = report.log_continuous, report.converged
    except ReproError:
        log_continuous = converged = False
    return {
        "profile": profile_name,
        "churn_events": len(schedule),
        "commits_attempted": attempted,
        "commits_ok": succeeded,
        "commit_success_fraction": (succeeded / attempted) if attempted else 1.0,
        "mean_commit_latency_s": summarize(latencies).mean if latencies else 0.0,
        "final_ts": system.last_ts(key),
        "log_continuous": log_continuous,
        "converged": converged,
    }


def churn_soak_spec(
    profiles: Sequence[str] = ("stable", "aggressive"),
    peers: int = 10,
    duration: float = 15.0,
    commit_interval: float = 1.5,
    seed: int = 10,
) -> ScenarioSpec:
    """Commits interleaved with scripted churn over a long soak window."""
    return ScenarioSpec(
        scenario_id="E10",
        title="E10 Mixed churn + commit soak",
        description=(
            "The demonstrator's 'add/remove peers and provoke failures' knob "
            "run as a soak: a document receives periodic commits while a "
            "scripted churn schedule joins, leaves and crashes peers."
        ),
        columns=(
            "profile", "churn_events", "commits_attempted", "commits_ok",
            "commit_success_fraction", "mean_commit_latency_s", "final_ts",
            "log_continuous", "converged",
        ),
        grid={"profile": tuple(profiles)},
        constants={
            "peers": peers,
            "duration": duration,
            "commit_interval": commit_interval,
        },
        seed=seed,
        # distinct churn schedules per profile (same base seed would replay
        # the identical event-time draws for every profile)
        seed_offset=lambda params: sum(ord(char) for char in params["profile"]),
        measure=_measure_churn_soak,
        notes=(
            "expected shape: the timestamp sequence and the log stay continuous "
            "under churn; success rate dips only under aggressive failure rates",
        ),
    )


# ---------------------------------------------------------------------------
# E11 — Batched commit pipeline (batch-size sweep) — engine-native scenario
# ---------------------------------------------------------------------------


def _measure_batched_commit(ctx: ScenarioContext) -> dict:
    batch_size = ctx.params["batch_size"]
    peers = ctx.params["peers"]
    edits = ctx.params["edits"]
    config = LtrConfig(batch_max_edits=batch_size)
    system = ctx.build_system(peers, ltr_config=config)
    writer = system.peer_names()[0]
    key = f"xwiki:batch-{batch_size}"
    texts = [
        "\n".join(f"line-{line}-rev-{index}" for line in range(4))
        for index in range(edits)
    ]
    started = system.runtime.now
    messages_before = system.network.stats.snapshot()["sent"]
    flushes = []
    for text in texts:
        outcome = system.stage(writer, key, text)
        if outcome is not None:
            flushes.append(outcome)
    leftover = system.flush(writer, key)
    if leftover is not None:
        flushes.append(leftover)
    elapsed = system.runtime.now - started
    # Delta over the commit run only: bootstrap and post-run consistency
    # checking must not pollute the coordination-cost comparison.
    messages = system.network.stats.snapshot()["sent"] - messages_before
    report = system.check_consistency(key)
    master = system.master_service(key)
    authority = master._authority()
    flush_latencies = [flush.latency for flush in flushes]
    return {
        "batch_size": batch_size,
        "edits": edits,
        "flushes": len(flushes),
        "commits_per_s": (edits / elapsed) if elapsed > 0 else float("inf"),
        "mean_flush_latency_s": summarize(flush_latencies).mean,
        "mean_per_edit_latency_s": (elapsed / edits) if edits else 0.0,
        "kts_allocations": authority.allocations,
        "network_messages": messages,
        "last_ts": system.last_ts(key),
        "converged": report.converged,
    }


def batched_commit_spec(
    batch_sizes: Sequence[int] = (1, 4, 16),
    peers: int = 10,
    edits: int = 32,
    seed: int = 11,
) -> ScenarioSpec:
    """Commit throughput and latency as a function of the batch size."""
    return ScenarioSpec(
        scenario_id="E11",
        title="E11 Batched commit pipeline (batch-size sweep)",
        description=(
            "Scaling extension: the same editing run committed through the "
            "batched pipeline at increasing batch sizes.  A batch pays one "
            "Master round-trip, one KTS range allocation and one grouped "
            "log write per responsible peer, so per-edit latency falls and "
            "throughput rises with the batch size while every invariant "
            "(dense timestamps, log continuity, convergence) is preserved."
        ),
        columns=(
            "batch_size", "edits", "flushes", "commits_per_s",
            "mean_flush_latency_s", "mean_per_edit_latency_s",
            "kts_allocations", "network_messages", "last_ts", "converged",
        ),
        grid={"batch_size": tuple(batch_sizes)},
        constants={"peers": peers, "edits": edits},
        seed=seed,
        # Same derived seed at every batch size: the sweep compares batch
        # sizes on the *same* ring and workload draws.
        measure=_measure_batched_commit,
        notes=(
            "expected shape: throughput grows superlinearly towards the batch size "
            "while KTS allocations and network messages shrink per edit; "
            "batch_size=1 matches the unbatched pipeline's cost profile",
        ),
    )


# ---------------------------------------------------------------------------
# E12 — Cold-start sync cost vs. history length — engine-native scenario
# ---------------------------------------------------------------------------


def _forget_master_tail(system: LtrSystem, key: str) -> None:
    """End the tenure of ``key``'s Master, as a takeover leaves it: the next
    reader catches up from the checkpoints and the P2P-Log instead of from
    the Master's answer."""
    system.master_service(key).end_tenure(key)


def _measure_cold_sync(ctx: ScenarioContext) -> dict:
    history = ctx.params["history"]
    checkpointing = ctx.params["checkpointing"]
    master_tail = ctx.params["master_tail"]
    peers = ctx.params["peers"]
    interval = ctx.params["checkpoint_interval"]
    # The paper's full replay is an interval the history never reaches.
    config = LtrConfig(
        checkpoint_interval=interval if checkpointing else history + 1,
    )
    system = ctx.build_system(peers, ltr_config=config)
    writer = system.peer_names()[0]
    cold = system.peer_names()[1]
    key = f"xwiki:cold-{history}"
    for index in range(history):
        system.edit_and_commit(
            writer, key, "\n".join(f"line-{line}-rev-{index}" for line in range(4))
        )
    system.run_for(1.0)  # let checkpoint/log replicas settle
    if not master_tail:
        _forget_master_tail(system, key)
    # Delta over the cold sync only: history building and the post-sync
    # consistency check must not pollute the catch-up cost.
    messages_before = system.network.stats.snapshot()["sent"]
    result = system.sync(cold, key)
    sync_messages = system.network.stats.snapshot()["sent"] - messages_before
    report = system.check_consistency(key)
    return {
        "history": history,
        "checkpointing": checkpointing,
        "master_tail": master_tail,
        "sync_messages": sync_messages,
        "retrieved_patches": result.retrieved_patches,
        "used_checkpoint": result.used_checkpoint,
        "checkpoint_ts": result.checkpoint_ts or 0,
        "sync_latency_s": result.latency,
        "synced_ts": result.to_ts,
        "converged": report.converged,
    }


def cold_sync_spec(
    histories: Sequence[int] = (24, 48),
    peers: int = 8,
    checkpoint_interval: int = 8,
    seed: int = 12,
) -> ScenarioSpec:
    """Cold-start catch-up cost vs. document age, with/without checkpoints,
    with/without the entries the Master holds in memory."""
    return ScenarioSpec(
        scenario_id="E12",
        title="E12 Cold-start sync cost vs. history length",
        description=(
            "Scaling extension: a peer that never synced catches up on a "
            "document of growing age.  The paper's retrieval procedure "
            "replays the whole patch log (cost O(history)); with the "
            "checkpointing subsystem the peer bootstraps from the newest "
            "DHT-stored snapshot and fetches only the suffix (cost "
            "O(staleness past the last checkpoint)).  A Master that still "
            "holds the whole history in its bounded tail hands it over with "
            "its answer to last-ts: one round-trip, whatever the arm."
        ),
        columns=(
            "history", "checkpointing", "master_tail", "sync_messages",
            "retrieved_patches", "used_checkpoint", "checkpoint_ts",
            "sync_latency_s", "synced_ts", "converged",
        ),
        grid={
            "history": tuple(histories),
            "checkpointing": (False, True),
            "master_tail": (False, True),
        },
        constants={"peers": peers, "checkpoint_interval": checkpoint_interval},
        seed=seed,
        # Same derived seed at every grid point: every arm of each history
        # length replays the identical ring and editing run.
        measure=_measure_cold_sync,
        notes=(
            "checkpointing=False is the paper's full replay, run as a checkpoint "
            "interval longer than the history (no checkpoint is written or probed)",
            "master_tail=False: the Master forgot the entries it holds in memory "
            "(as after a takeover), so the reader goes to the checkpoints and the "
            "P2P-Log; master_tail=True: the answer to last-ts carries the whole "
            "history (up to 256 entries / 256 KiB) and nothing else is read",
            "expected shape: without checkpoints sync messages grow linearly with "
            "history; with checkpoints they stay bounded by the checkpoint interval, "
            "a >=5x message saving at history 256 (a --full row; the quick rows "
            "are too short to show it)",
        ),
    )


# ---------------------------------------------------------------------------
# E13 — Live-mode commit pipeline on the asyncio runtime — engine-native
# ---------------------------------------------------------------------------

#: Chord intervals for wall-clock (asyncio) deployments: the same protocol,
#: but maintenance periods sized so a live ring converges in well under a
#: second of real time instead of simulated time.
LIVE_CHORD_CONFIG = replace(
    EXPERIMENT_CHORD_CONFIG,
    stabilize_interval=0.02,
    fix_fingers_interval=0.04,
    check_predecessor_interval=0.05,
)


def _measure_live_runtime(ctx: ScenarioContext) -> dict:
    """Commit a multi-editor workload on the asyncio backend, then verify.

    The first execution substrate the simulator's scheduler never saw:
    edits are committed in waves of concurrent editors whose interleaving
    is decided by wall-clock timers, and the three commit invariants
    (dense timestamps, prefix-complete log, OT convergence) are checked on
    the outcome.  Latencies/throughput in the row are wall-clock and hence
    machine-dependent — E13 rows are *not* part of the byte-identical
    E1–E12 determinism contract.
    """
    editors = ctx.params["editors"]
    peers = ctx.params["peers"]
    edits = ctx.params["edits"]
    config = LtrConfig(
        runtime_backend="asyncio",
        validation_retry_delay=0.02,
    )
    system = ctx.build_system(
        peers,
        ltr_config=config,
        chord_config=LIVE_CHORD_CONFIG,
        latency=ConstantLatency(0.0005),
        stabilize_time=20.0,
    )
    try:
        writers = system.peer_names()[:editors]
        key = "xwiki:live"
        waves = max(1, edits // editors)
        committed = 0
        attempts = 0
        started = system.runtime.now
        for wave in range(waves):
            batch = [
                (writer, key,
                 "\n".join(f"line-{line} wave-{wave} by {writer}" for line in range(3)))
                for writer in writers
            ]
            results = system.run_concurrent_commits(batch)
            committed += len(results)
            attempts += sum(result.attempts for result in results)
        elapsed = system.runtime.now - started
        last_ts = system.last_ts(key)
        entries = system.fetch_log(key, 1, last_ts)
        dense = [entry.ts for entry in entries] == list(range(1, last_ts + 1))
        report = system.check_consistency(key)
        return {
            "editors": editors,
            "peers": peers,
            "edits_committed": committed,
            "last_ts": last_ts,
            "wall_clock_s": round(elapsed, 3),
            "commits_per_s": round(committed / elapsed, 1) if elapsed > 0 else 0.0,
            "mean_attempts": round(attempts / committed, 2) if committed else 0.0,
            "dense_timestamps": dense,
            "log_continuous": report.log_continuous,
            "converged": report.converged,
        }
    finally:
        system.shutdown()


def live_runtime_spec(
    editor_counts: Sequence[int] = (2, 4),
    peers: int = 8,
    edits: int = 24,
    seed: int = 13,
) -> ScenarioSpec:
    """Concurrent editing on the wall-clock asyncio runtime (live mode)."""
    return ScenarioSpec(
        scenario_id="E13",
        title="E13 Live-mode commits on the asyncio runtime",
        description=(
            "Execution-runtime extension: the identical protocol stack "
            "(Chord, KTS, P2P-Log, Master validation) booted on the "
            "AsyncioRuntime backend — wall-clock timers and real "
            "in-process concurrency instead of the deterministic virtual "
            "clock.  Waves of concurrent editors commit to one hot "
            "document; the interleaving is decided by the operating "
            "system, and the three commit invariants are verified on the "
            "result.  Throughput/latency columns are wall-clock."
        ),
        columns=(
            "editors", "peers", "edits_committed", "last_ts", "wall_clock_s",
            "commits_per_s", "mean_attempts", "dense_timestamps",
            "log_continuous", "converged",
        ),
        grid={"editors": tuple(editor_counts)},
        constants={"peers": peers, "edits": edits},
        seed=seed,
        measure=_measure_live_runtime,
        notes=(
            "live mode: rows carry wall-clock measurements and are machine-dependent; "
            "the invariants columns (dense_timestamps, log_continuous, converged) "
            "must always be True",
        ),
    )


# ---------------------------------------------------------------------------
# E14 — Partition-heal convergence sweep (nemesis) — engine-native scenario
# ---------------------------------------------------------------------------

#: LTR tuning shared by the nemesis scenarios: probes must fail fast while
#: their Master is unreachable instead of burning the whole fault window in
#: retries, so the recovery-time columns measure the system, not the client.
NEMESIS_LTR_CONFIG = LtrConfig(validation_retries=2, validation_retry_delay=0.25)

#: The document every nemesis scenario hammers.
NEMESIS_KEY = "xwiki:nemesis"


def _drive_probes(system: LtrSystem, tracker: RecoveryTracker, writer: str,
                  key: str, *, interval: float, count: int,
                  on_tick=None) -> float:
    """Periodic commit probes from ``writer``; outcomes land in ``tracker``.

    The timed loop both nemesis scenarios share: advance to the next tick,
    attempt one commit, record success or the failure's exception name.
    ``on_tick`` (if given) runs at each tick before the commit — e.g. to
    observe who the Master currently is.  Returns the loop's start time.
    """
    start = system.runtime.now
    for index in range(count):
        target = start + (index + 1) * interval
        if system.runtime.now < target:
            system.run_for(target - system.runtime.now)
        if on_tick is not None:
            on_tick()
        try:
            system.edit_and_commit(writer, key, f"revision {index} by {writer}")
            tracker.record_probe(system.runtime.now, True)
        except ReproError as error:
            tracker.record_probe(system.runtime.now, False, type(error).__name__)
    return start


def _nemesis_cast(system: LtrSystem, key: str, minority_size: int = 2):
    """Deterministic role assignment for a nemesis scenario.

    Returns ``(writer, master, minority)``: the probe writer (never the
    Master-key peer), the current Master of ``key`` and ``minority_size``
    peers that are neither writer, Master nor the Master's ring successor
    (so counter replicas survive the fault on the majority side).
    """
    ring = system.peer_names()
    master = system.master_of(key)
    writer = next(name for name in ring if name != master)
    successor = ring[(ring.index(master) + 1) % len(ring)]
    protected = {writer, master, successor}
    minority = [name for name in ring if name not in protected][:minority_size]
    return writer, master, minority


def _e14_plan(ctx: ScenarioContext, system: LtrSystem) -> FaultPlan:
    """Cut two non-Master peers away, heal, then re-join the islanded side."""
    partition_s = ctx.params["partition_s"]
    _writer, _master, minority = _nemesis_cast(system, NEMESIS_KEY)
    return FaultPlan().partition(
        at=1.0, groups=[minority], heal_after=partition_s, rejoin_after=1.0
    )


def _measure_partition_heal(ctx: ScenarioContext) -> dict:
    partition_s = ctx.params["partition_s"]
    edit_interval = ctx.params["edit_interval"]
    peers = ctx.params["peers"]
    converge_budget = ctx.params["converge_budget"]
    system = ctx.build_system(peers, ltr_config=NEMESIS_LTR_CONFIG)
    key = NEMESIS_KEY
    writer, _master, minority = _nemesis_cast(system, key)
    system.edit_and_commit(writer, key, "base revision")
    # A minority-side user holds a replica that will go stale behind the
    # partition; post-heal convergence is measured against it.
    observed_peer = minority[0]
    system.sync(observed_peer, key)

    checker = ConvergenceChecker(keys=[key])
    tracker = RecoveryTracker()
    nemesis = ctx.install_nemesis(system, observers=(checker, tracker))
    # Probes span the whole fault window: split at 1.0, heal after
    # partition_s, re-join 1.0 later, plus one interval of tail.
    probes = max(1, int((1.0 + partition_s + 2.0) / edit_interval))
    start = _drive_probes(system, tracker, writer, key,
                          interval=edit_interval, count=probes)

    # Post-heal convergence: step until the stale minority replica catches
    # up with the canonical log again (the recovery-time headline of E14).
    # Measured from the *heal* itself — the re-joins fire 1.0 s later and
    # are part of the recovery being timed.
    heal_time = start + 1.0 + partition_s
    if system.runtime.now < heal_time:
        system.run_for(heal_time - system.runtime.now)
    step, waited, caught_up = 0.25, 0.0, False
    while waited <= converge_budget:
        try:
            system.sync(observed_peer, key)
            replica = system.user(observed_peer).documents[key]
            if replica.applied_ts == system.last_ts(key):
                caught_up = True
                break
        except ReproError:
            pass  # ring still re-merging; keep stepping
        system.run_for(step)
        waited += step
    time_to_converge = round(system.runtime.now - heal_time, 3) if caught_up else None
    final = checker.final_check(system, settle=1.0)
    summary = tracker.summary()
    return {
        "partition_s": partition_s,
        "edit_interval": edit_interval,
        "commits_attempted": summary["probes_attempted"],
        "commits_ok": summary["probes_ok"],
        "success_fraction": round(summary["success_fraction"], 3),
        "last_ts": system.last_ts(key),
        "time_to_converge_s": time_to_converge,
        "checker_snapshots": len(checker.snapshots),
        "violations": len(checker.violations()),
        "injection_errors": len(nemesis.errors),
        "converged": final.ok,
    }


def partition_heal_spec(
    partition_durations: Sequence[float] = (2.0, 4.0),
    edit_intervals: Sequence[float] = (1.0,),
    peers: int = 8,
    converge_budget: float = 15.0,
    seed: int = 14,
) -> ScenarioSpec:
    """Convergence after a partition, swept over duration and edit rate."""
    return ScenarioSpec(
        scenario_id="E14",
        title="E14 Partition-heal convergence sweep",
        description=(
            "Nemesis scenario: two non-Master peers are cut away while the "
            "majority keeps committing, then the partition heals and the "
            "islanded peers re-join.  The convergence checker snapshots the "
            "commit invariants at every fault boundary; the headline column "
            "is how long the stale minority replica needs to catch up after "
            "the heal."
        ),
        columns=(
            "partition_s", "edit_interval", "commits_attempted", "commits_ok",
            "success_fraction", "last_ts", "time_to_converge_s",
            "checker_snapshots", "violations", "injection_errors", "converged",
        ),
        grid={
            "partition_s": tuple(partition_durations),
            "edit_interval": tuple(edit_intervals),
        },
        constants={"peers": peers, "converge_budget": converge_budget},
        seed=seed,
        nemesis=_e14_plan,
        measure=_measure_partition_heal,
        notes=(
            "expected shape: success fraction stays high (the Master side keeps "
            "serving), no probe is in the log twice (last_ts = commits_attempted "
            "+ the base revision: a probe re-sent across the split is answered, "
            "not committed again, and the edit of a probe that failed goes in "
            "with the next one, under the identity it had), violations stay 0, and "
            "time-to-converge grows with the partition duration (more suffix to "
            "retrieve) but not with edit rate",
        ),
    )


# ---------------------------------------------------------------------------
# E15 — Master crash-restart takeover under load (nemesis) — engine-native
# ---------------------------------------------------------------------------


def _e15_plan(ctx: ScenarioContext, system: LtrSystem) -> FaultPlan:
    """Crash the Master-key peer mid-load; restart it amnesiac later."""
    restart_delay = ctx.params["restart_delay"]
    _writer, master, _minority = _nemesis_cast(system, NEMESIS_KEY)
    return FaultPlan().crash(
        at=1.5, peer=master, restart_after=restart_delay, amnesia=True
    )


def _measure_master_takeover(ctx: ScenarioContext) -> dict:
    restart_delay = ctx.params["restart_delay"]
    load_interval = ctx.params["load_interval"]
    peers = ctx.params["peers"]
    tail = ctx.params["tail"]
    system = ctx.build_system(peers, ltr_config=NEMESIS_LTR_CONFIG)
    key = NEMESIS_KEY
    writer, master, _minority = _nemesis_cast(system, key)
    system.edit_and_commit(writer, key, "base revision")
    system.run_for(2.0)  # let the counter/log replicas reach the *-Succ peers

    checker = ConvergenceChecker(keys=[key])
    tracker = RecoveryTracker()
    nemesis = ctx.install_nemesis(system, observers=(checker, tracker))
    horizon = 1.5 + restart_delay + tail
    probes = max(1, int(horizon / load_interval))
    masters_observed = set()
    start = _drive_probes(
        system, tracker, writer, key,
        interval=load_interval, count=probes,
        on_tick=lambda: masters_observed.add(system.master_of(key)),
    )

    final = checker.final_check(system, settle=2.0)
    crash_time = next(
        (when for when, label in tracker.faults if label.startswith("crash")),
        start + 1.5,
    )
    recovery = tracker.recovery_time(crash_time)
    summary = tracker.summary()
    return {
        "restart_delay": restart_delay,
        "load_interval": load_interval,
        "commits_attempted": summary["probes_attempted"],
        "commits_ok": summary["probes_ok"],
        "success_fraction": round(summary["success_fraction"], 3),
        "recovery_time_s": round(recovery, 3) if recovery is not None else None,
        "takeover_observed": any(name != master for name in masters_observed),
        "master_restored": system.master_of(key) == master,
        "last_ts": system.last_ts(key),
        "violations": len(checker.violations()),
        "injection_errors": len(nemesis.errors),
        "converged": final.ok,
    }


def master_takeover_spec(
    restart_delays: Sequence[float] = (3.0,),
    load_intervals: Sequence[float] = (0.75,),
    peers: int = 8,
    tail: float = 4.0,
    seed: int = 15,
) -> ScenarioSpec:
    """Master crash + amnesiac restart under sustained commit load."""
    return ScenarioSpec(
        scenario_id="E15",
        title="E15 Master crash-restart takeover under load",
        description=(
            "Nemesis scenario: the Master-key peer of a hot document "
            "crashes while a writer keeps committing, and restarts "
            "amnesiac (fresh hardware) a few seconds later.  The "
            "Master-key-Succ must take over from its counter replica with "
            "no timestamp gap; the rows report how quickly commits flow "
            "again and that the invariants held across crash, takeover and "
            "the restarted peer's re-join."
        ),
        columns=(
            "restart_delay", "load_interval", "commits_attempted", "commits_ok",
            "success_fraction", "recovery_time_s", "takeover_observed",
            "master_restored", "last_ts", "violations", "injection_errors",
            "converged",
        ),
        grid={
            "restart_delay": tuple(restart_delays),
            "load_interval": tuple(load_intervals),
        },
        constants={"peers": peers, "tail": tail},
        seed=seed,
        nemesis=_e15_plan,
        measure=_measure_master_takeover,
        notes=(
            "paper claim under the harshest schedule: the Master-key-Succ takes "
            "over the counter (continuous timestamps) and the amnesiac restart "
            "re-joins without forking the sequence; recovery is a small multiple "
            "of the failure-detection interval",
        ),
    )


# ---------------------------------------------------------------------------
# E16 — Live cluster: multi-process ring over the wire codec — engine-native
# ---------------------------------------------------------------------------


def _measure_live_cluster(ctx: ScenarioContext) -> dict:
    """Commit through a real N-process ring, kill the Master's process, heal.

    The only scenario that leaves the building: the launcher spawns one OS
    process per cluster host (``python -m repro.cluster host``), every
    cross-process RPC is serialized through the versioned wire codec over
    Unix-domain sockets, and the nemesis SIGKILLs the process hosting the
    hot document's Master-key peer mid-run.  The offline placement math
    (:mod:`repro.cluster.placement`) guarantees the Master's successor —
    holder of the replicated last-ts and KTS counter — survives in a
    different process, so the run measures the paper's Master-failure
    takeover across a genuine process boundary.  All timing columns are
    wall-clock; like E13, E16 rows are outside the byte-identical
    determinism contract.
    """
    from ..cluster import ClusterConfig, run_live_cluster

    config = ClusterConfig(
        processes=ctx.params["processes"],
        peers_per_process=ctx.params["peers_per_process"],
        seed=ctx.seed,
    )
    report = run_live_cluster(
        config, commits=ctx.params["commits"], kill=ctx.params["kill"]
    )
    report.pop("nemesis", None)  # full record is diagnostic, not a column
    report["killed_process"] = (
        -1 if report["killed_process"] is None else report["killed_process"]
    )
    return report


def live_cluster_spec(
    process_counts: Sequence[int] = (3,),
    peers_per_process: int = 2,
    commits: int = 18,
    kill: bool = True,
    seed: int = 16,
) -> ScenarioSpec:
    """Commit throughput + takeover on a real multi-process deployment."""
    return ScenarioSpec(
        scenario_id="E16",
        title="E16 Live cluster: multi-process ring over the wire codec",
        description=(
            "Deployment extension: the ring is split across real OS "
            "processes (the paper's one-JVM-per-peer model), every "
            "cross-process RPC travels the versioned wire codec over "
            "Unix-domain stream sockets, and the launcher's client peer "
            "drives commits through the full lookup/validation/publication "
            "path.  Mid-run the nemesis SIGKILLs the process hosting the "
            "document's Master-key peer; commits ride out the takeover and "
            "the log is verified continuous afterwards.  Throughput and "
            "latency columns are wall-clock."
        ),
        columns=(
            "processes", "peers_per_process", "ring_size", "commits_ok",
            "commits_failed", "mean_attempts", "last_ts", "wall_clock_s",
            "commits_per_s", "p50_latency_ms", "p95_latency_ms",
            "killed_process", "kill_applied", "post_kill_ok", "log_continuous",
            "frames_out", "frames_in",
        ),
        grid={"processes": tuple(process_counts)},
        constants={
            "peers_per_process": peers_per_process,
            "commits": commits,
            "kill": kill,
        },
        seed=seed,
        measure=_measure_live_cluster,
        notes=(
            "live cluster: rows carry wall-clock measurements across real OS "
            "processes and are machine-dependent; kill_applied, "
            "log_continuous and post_kill_ok > 0 must always hold",
        ),
    )


# ---------------------------------------------------------------------------
# E17 — Adversarial misbehavior sweep (byzantine peers + Master equivocation)
# ---------------------------------------------------------------------------

#: The misbehavior kinds E17 sweeps: three byzantine-storage modes plus a
#: Master that forks the timestamp sequence it serves.
E17_MISBEHAVIORS = ("drop", "corrupt", "replay", "equivocate")

#: Nemesis config with authenticated patches on: every commit is signed
#: with the author's HMAC key and every retrieval re-verifies, which is
#: what lets byzantine lies be *masked* (tampered copies skipped at fetch
#: time) or *detected* (checker signature scan) instead of silently
#: corrupting replicas.  A short checkpoint interval makes checkpoint-shaped
#: writes part of the attack surface too.
E17_LTR_CONFIG = replace(
    NEMESIS_LTR_CONFIG,
    auth_enabled=True,
    checkpoint_interval=4,
)


def _e17_cast(system: LtrSystem) -> tuple[str, str, str]:
    """(writer, master, victim) for the adversarial sweep.

    The victim — the peer whose storage turns byzantine — is never the
    writer, the Master-key peer or the Master's counter-replica successor,
    so the lies target the replicated log/checkpoint copies it custodies
    rather than trivially killing the control path.
    """
    writer, master, minority = _nemesis_cast(system, NEMESIS_KEY)
    return writer, master, minority[0]


def _e17_plan(ctx: ScenarioContext, system: LtrSystem) -> FaultPlan:
    """One misbehaving actor per cell: a byzantine store or a forking Master."""
    misbehavior = ctx.params["misbehavior"]
    rate = ctx.params["rate"]
    _writer, master, victim = _e17_cast(system)
    if misbehavior == "equivocate":
        count = max(1, round(rate * ctx.params["probes"]))
        return FaultPlan().master_equivocation(at=1.0, peer=master, count=count)
    return FaultPlan().byzantine(at=1.0, peer=victim, mode=misbehavior, rate=rate)


def _measure_adversarial_sweep(ctx: ScenarioContext) -> dict:
    misbehavior = ctx.params["misbehavior"]
    rate = ctx.params["rate"]
    peers = ctx.params["peers"]
    probes = ctx.params["probes"]
    edit_interval = ctx.params["edit_interval"]
    system = ctx.build_system(peers, ltr_config=E17_LTR_CONFIG)
    key = NEMESIS_KEY
    writer, master, victim = _e17_cast(system)
    system.edit_and_commit(writer, key, "base revision")

    checker = ConvergenceChecker(keys=[key])
    tracker = RecoveryTracker()
    ctx.install_nemesis(system, observers=(checker, tracker))
    _drive_probes(system, tracker, writer, key,
                  interval=edit_interval, count=probes)
    final = checker.final_check(system, settle=1.0)

    findings = checker.findings()
    named = {str(finding["peer"]) for finding in findings}
    culprit = master if misbehavior == "equivocate" else victim
    detected = bool(checker.violations())
    # Masked: despite the lies every replica converged on the canonical
    # replay and the log stayed retrievable end to end.
    masked = bool(final.keys.get(key, {}).get("converged", False))
    summary = tracker.summary()
    return {
        "misbehavior": misbehavior,
        "rate": rate,
        "commits_attempted": summary["probes_attempted"],
        "commits_ok": summary["probes_ok"],
        "success_fraction": round(summary["success_fraction"], 3),
        "detections": len(findings),
        "violations": len(checker.violations()),
        "detected": detected,
        "masked": masked,
        # The sweep's invariant: a misbehaving run may be masked, detected,
        # or both — but never neither.  A row with silent_divergence=True
        # means replicas forked and no detector said a word.
        "silent_divergence": (not masked) and (not detected),
        "culprit_named": (not detected) or (culprit in named),
    }


def adversarial_sweep_spec(
    misbehaviors: Sequence[str] = E17_MISBEHAVIORS,
    rates: Sequence[float] = (0.5, 1.0),
    peers: int = 8,
    probes: int = 8,
    edit_interval: float = 0.5,
    seed: int = 17,
) -> ScenarioSpec:
    """Misbehavior-kind × rate sweep with authenticated patches on."""
    return ScenarioSpec(
        scenario_id="E17",
        title="E17 Adversarial misbehavior sweep",
        description=(
            "Adversarial scenario: one peer's storage turns byzantine "
            "(ack-then-drop, corrupt or replay every k-th log/checkpoint "
            "write) or the Master-key peer equivocates (forks the timestamp "
            "sequence across placements), while a writer keeps committing "
            "signed patches.  The convergence checker re-verifies every "
            "surviving copy against its HMAC signature and compares content "
            "across placements; every injected misbehavior must be masked "
            "by replication or detected and attributed — silent_divergence "
            "must stay False in every cell."
        ),
        columns=(
            "misbehavior", "rate", "commits_attempted", "commits_ok",
            "success_fraction", "detections", "violations", "detected",
            "masked", "silent_divergence", "culprit_named",
        ),
        grid={
            "misbehavior": tuple(misbehaviors),
            "rate": tuple(rates),
        },
        constants={
            "peers": peers, "probes": probes, "edit_interval": edit_interval,
        },
        seed=seed,
        nemesis=_e17_plan,
        measure=_measure_adversarial_sweep,
        notes=(
            "expected shape: drop is masked by replication (honest copies "
            "survive), corrupt/replay are masked at retrieval and detected by "
            "the signature scan naming the byzantine peer, equivocation is "
            "detected as a placement-aligned fork attributed to the Master; "
            "silent_divergence is False everywhere",
        ),
    )


# ---------------------------------------------------------------------------
# E18 — Kernel scale sweep (warm ring construction + Zipf lookup traffic)
# ---------------------------------------------------------------------------

#: Chord settings for 10^3-10^5-peer rings.  Long maintenance intervals,
#: fully staggered first firings and batched finger repair keep the
#: background timer load proportional to ring size instead of dumping every
#: node's maintenance into one simulated instant; routing converges at the
#: same number of rounds because each round fixes eight fingers.
SCALE_CHORD_CONFIG = replace(
    EXPERIMENT_CHORD_CONFIG,
    stabilize_interval=25.0,
    fix_fingers_interval=50.0,
    check_predecessor_interval=50.0,
    route_cache_ttl=50.0,
    maintenance_stagger=1.0,
    fingers_per_round=8,
)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (0.0 where unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak > 1 << 30:  # pragma: no cover - macOS reports bytes, Linux KiB
        return round(peak / float(1 << 20), 1)
    return round(peak / 1024.0, 1)


def _measure_scale_sweep(ctx: ScenarioContext) -> dict:
    peers = ctx.params["peers"]
    lookups = ctx.params["lookups"]
    documents = ctx.params["documents"]
    zipf_s = ctx.params["zipf_s"]

    started = time.perf_counter()
    ring = ChordRing(config=SCALE_CHORD_CONFIG, seed=ctx.seed,
                     latency=ConstantLatency(0.003))
    ring.bootstrap_warm(peers)
    build_wall = time.perf_counter() - started

    # Ground truth and gateway choice via one sorted snapshot; calling
    # ``responsible_node`` per lookup would re-sort the ring every time.
    ordered = ring.live_nodes()
    identifiers = [node.node_id for node in ordered]
    gateways = [node.address.name for node in ordered]
    weights = zipf_weights(documents, zipf_s)
    rng = random.Random(ctx.seed * 65537 + peers)

    hops = []
    correct = 0
    events_before_traffic = ring.runtime.processed_events
    traffic_started = time.perf_counter()
    for _ in range(lookups):
        rank = sample_zipf_rank(rng, weights)
        key = f"scale-doc-{rank}"
        via = gateways[rng.randrange(len(gateways))]
        answer = ring.lookup(key, via=via)
        hops.append(answer["hops"])
        identifier = hash_to_id(key, SCALE_CHORD_CONFIG.bits)
        owner = ordered[bisect_left(identifiers, identifier) % len(ordered)]
        if answer["node"] == owner.ref:
            correct += 1
    traffic_wall = time.perf_counter() - traffic_started

    events = ring.runtime.processed_events
    traffic_events = events - events_before_traffic
    return {
        "peers": peers,
        "lookups": lookups,
        "mean_hops": summarize(hops).mean,
        "correct_fraction": correct / lookups,
        "cache_hit_fraction": ring.route_cache_stats()["hit_fraction"],
        "sim_events": events,
        "build_wall_s": round(build_wall, 3),
        "traffic_wall_s": round(traffic_wall, 3),
        # Kernel throughput over the traffic phase only: ring construction
        # is O(N log N) setup work, not event processing.
        "events_per_sec": (
            round(traffic_events / traffic_wall, 1) if traffic_wall > 0 else 0.0
        ),
        "peak_rss_mb": _peak_rss_mb(),
    }


def scale_sweep_spec(
    peer_counts: Sequence[int] = (1000, 2000),
    lookups: int = 120,
    documents: int = 128,
    zipf_s: float = 1.0,
    seed: int = 18,
) -> ScenarioSpec:
    """Kernel scale sweep: warm ring build plus Zipf-skewed lookup traffic."""
    return ScenarioSpec(
        scenario_id="E18",
        title="E18 Kernel scale sweep: warm ring build + Zipf lookup traffic",
        description=(
            "Scale validation of the simulation kernel: a ring of N peers is "
            "wired directly into its converged state (bootstrap_warm), then "
            "serves Zipf-skewed lookups while the staggered maintenance "
            "timers tick in the background.  Headlines are events/sec "
            "through the kernel's binary-heap scheduler and the process peak "
            "RSS; lookup correctness and hop counts double-check that the "
            "warm ring routes exactly like a naturally stabilized one."
        ),
        columns=(
            "peers", "lookups", "mean_hops", "correct_fraction",
            "cache_hit_fraction", "sim_events", "build_wall_s",
            "traffic_wall_s", "events_per_sec", "peak_rss_mb",
        ),
        grid={"peers": tuple(peer_counts)},
        constants={"lookups": lookups, "documents": documents, "zipf_s": zipf_s},
        seed=seed,
        seed_offset=lambda params: params["peers"] % 7919,
        measure=_measure_scale_sweep,
        notes=(
            "expected shape: hop count grows logarithmically while events/sec "
            "stays roughly flat across ring sizes (a heap push or pop is "
            "O(log n) in the pending timers, small beside dispatching the "
            "event); wall-clock columns vary by machine and are excluded "
            "from byte-identity checks",
        ),
    )


# ---------------------------------------------------------------------------
# E19 — Durable restart: recover-from-disk vs re-replicate (storage backends)
# ---------------------------------------------------------------------------

#: The document E19 publishes and recovers.
DURABLE_KEY = "xwiki:durable"


def _log_shard_keys(node) -> list[str]:
    """Owned P2P-Log entry placements held by ``node`` (any hash family).

    Log-entry storage keys look like ``hr2:xwiki:durable#7`` — they carry a
    timestamp separator but are neither checkpoints nor KTS counters.
    """
    return [
        item.key for item in node.storage.owned_items()
        if "#" in item.key and "!ckpt" not in item.key
        and not item.key.startswith("kts:")
    ]


def _durable_victims(system: LtrSystem, protected: set[str]) -> list[str]:
    """The crash pair for E19: the heaviest log-shard holder + its backup.

    Both the peer owning the most log-entry placements *and* its first ring
    successor (which holds the replica copies of that shard) go down in the
    same instant, so the shard genuinely leaves the ring unless a durable
    backend brings it back.  Peers in ``protected`` (writer, Master,
    Master-Succ — the KTS counter must survive in both arms) are excluded,
    as are candidates whose successor is protected.
    """
    ring = system.peer_names()
    best: Optional[tuple[int, str, str]] = None
    for name in ring:
        if name in protected:
            continue
        successor = ring[(ring.index(name) + 1) % len(ring)]
        if successor in protected:
            continue
        shard = len(_log_shard_keys(system.ring.node(name)))
        if best is None or shard > best[0]:
            best = (shard, name, successor)
    assert best is not None, "no crashable pair outside the protected set"
    return [best[1], best[2]]


def _measure_durable_restart(ctx: ScenarioContext) -> dict:
    recovery = ctx.params["recovery"]
    peers = ctx.params["peers"]
    edits = ctx.params["edits"]
    restart_delay = ctx.params["restart_delay"]
    converge_budget = ctx.params["converge_budget"]
    backend = "sqlite" if recovery == "durable" else "memory"
    system = ctx.build_system(
        peers, ltr_config=replace(NEMESIS_LTR_CONFIG, storage_backend=backend)
    )
    try:
        key = DURABLE_KEY
        ring = system.peer_names()
        master = system.master_of(key)
        writer = next(name for name in ring if name != master)
        successor = ring[(ring.index(master) + 1) % len(ring)]
        protected = {writer, master, successor}
        for index in range(edits):
            system.edit_and_commit(writer, key, f"revision {index} of {key}")
        system.run_for(2.0)  # replication settles at the *-Succ peers

        victims = _durable_victims(system, protected)
        shard_before = sum(
            len(_log_shard_keys(system.ring.node(name))) for name in victims
        )
        # Fail both in the same simulated instant: a staggered crash would
        # let the backup promote the primary's shard before going down.
        for name in victims:
            system.ring.crash(name, stabilize=False)
        system.ring.wait_until_stable(max_time=120)

        # Crash detection and stabilization are identical in both arms;
        # the headline counters start at the restart decision.
        sent_before = system.network.stats.snapshot()["sent"]
        t0 = system.runtime.now
        if restart_delay > 0:
            system.run_for(restart_delay)
        rejoins = [
            system.prepare_restart(
                name,
                recover=(recovery == "durable"),
                amnesia=(recovery != "durable"),
            )
            for name in victims
        ]
        # What the restarted processes brought back from disk, counted
        # before the ring re-replicates anything into them.
        entries_recovered = sum(
            len(_log_shard_keys(system.ring.node(name))) for name in victims
        )
        for rejoin in rejoins:
            system.runtime.run(until=system.runtime.process(rejoin))
        system.ring.clear_route_caches()
        system.ring.wait_until_stable(max_time=120)

        reader = next(
            name for name in system.peer_names()
            if name not in protected and name not in victims
        )
        # The reader recovers from the P2P-Log, not from the Master's memory.
        _forget_master_tail(system, key)
        expected_ts = system.last_ts(key)
        step, waited, caught_up = 0.25, 0.0, False
        while waited <= converge_budget:
            try:
                system.sync(reader, key)
                replica = system.user(reader).documents.get(key)
                if replica is not None and replica.applied_ts == expected_ts:
                    caught_up = True
                    break
            except ReproError:
                pass  # placements still resettling; keep stepping
            system.run_for(step)
            waited += step
        recovery_messages = system.network.stats.snapshot()["sent"] - sent_before
        recovery_latency = round(system.runtime.now - t0, 3)
        # With amnesiac restarts the shard may be gone from the ring for
        # good (every salted placement *and* its replicas died with the
        # pair); the full-ring consistency sweep then raises instead of
        # converging.  That is the data-loss outcome the durable arm is
        # being compared against, so report it rather than crash.
        try:
            report = system.check_consistency(key)
            converged = caught_up and report.converged and report.log_continuous
        except ReproError:
            converged = False
        return {
            "recovery": recovery,
            "entries_published": expected_ts,
            "shard_before": shard_before,
            "entries_recovered": entries_recovered,
            "recovery_messages": recovery_messages,
            "recovery_latency_s": recovery_latency,
            "converged": converged,
        }
    finally:
        system.shutdown()


def durable_restart_spec(
    recoveries: Sequence[str] = ("durable", "amnesiac"),
    peers: int = 10,
    edits: int = 16,
    restart_delay: float = 1.0,
    converge_budget: float = 20.0,
    seed: int = 19,
) -> ScenarioSpec:
    """Crash a log shard's owner *and* backup; recover from disk vs rebuild."""
    return ScenarioSpec(
        scenario_id="E19",
        title="E19 Durable restart: recover-from-disk vs re-replicate",
        description=(
            "Storage-backend scenario: after a writer publishes a batch of "
            "revisions, the peer owning the largest P2P-Log shard and its "
            "replica successor crash in the same instant — the shard is "
            "gone from the ring.  The durable arm restarts both peers from "
            "their on-disk SQLite state (FaultPlan durable_restart "
            "semantics); the amnesiac arm restarts them empty, so a cold "
            "reader must fall back to the surviving salted-hash placements "
            "entry by entry.  Headlines compare messages and time from the "
            "restart decision to a cold reader's full convergence."
        ),
        columns=(
            "recovery", "entries_published", "shard_before",
            "entries_recovered", "recovery_messages", "recovery_latency_s",
            "converged",
        ),
        grid={"recovery": tuple(recoveries)},
        constants={
            "peers": peers,
            "edits": edits,
            "restart_delay": restart_delay,
            "converge_budget": converge_budget,
        },
        seed=seed,
        measure=_measure_durable_restart,
        notes=(
            "expected shape: the durable arm restarts holding its shard "
            "(entries_recovered > 0) and converges after strictly fewer "
            "messages than the amnesiac arm, which must re-replicate — and, "
            "when every salted placement of an entry died with the crash "
            "pair, cannot converge at all (converged=False: the shard is "
            "genuinely lost without a disk)",
        ),
    )


# ---------------------------------------------------------------------------
# E20 — Protocol scale sweep (commit pipeline on warm 10^3-10^4-peer rings)
# ---------------------------------------------------------------------------

#: The document the E20 writer edits.
PROTOCOL_SCALE_KEY = "scale-doc"

#: Lines rewritten per E20 edit.  Collaborative page edits touch a handful
#: of lines, not one: a multi-line revision weights the per-operation costs
#: (payload sizing, delivery copies, OT transform) the way real commits do.
PROTOCOL_SCALE_LINES = 16


def protocol_revision_text(index: int, lines: int = PROTOCOL_SCALE_LINES) -> str:
    """The document content staged by edit ``index`` of the E20 workload."""
    return "\n".join(f"revision {index} line {line}" for line in range(lines)) + "\n"


def drive_protocol_edits(system: LtrSystem, writer: str, edits: int, batch: int,
                         lines: int = PROTOCOL_SCALE_LINES) -> int:
    """Stage ``edits`` E20 revisions in chains of ``batch``; returns commits.

    ``system`` must be configured with ``batch_max_edits=batch`` so every
    full batch flushes itself.
    """
    committed = 0
    for index in range(edits):
        outcome = system.stage(
            writer, PROTOCOL_SCALE_KEY, protocol_revision_text(index, lines),
            comment=f"edit-{index}",
        )
        if outcome is not None:
            committed += outcome.edits
    if edits % batch:
        outcome = system.flush(writer, PROTOCOL_SCALE_KEY)
        if outcome is not None:
            committed += outcome.edits
    return committed


def _measure_protocol_scale(ctx: ScenarioContext) -> dict:
    peers = ctx.params["peers"]
    batch = ctx.params["batch"]
    edits = ctx.params["edits"]
    lines = ctx.params["lines"]
    probes = ctx.params["probes"]

    # ``batch == 1`` is the paper's per-edit commit: every staged edit fills
    # its batch and goes out as a chain of one.
    ltr_config = LtrConfig(batch_max_edits=batch)
    # Built directly rather than through ``ctx.build_system``: the scale
    # points need the warm-wired bootstrap (E18's starting point) — growing
    # a 10^4-peer ring join by join would dominate the run many times over.
    build_started = time.perf_counter()
    system = LtrSystem(
        ltr_config=ltr_config,
        chord_config=SCALE_CHORD_CONFIG,
        seed=ctx.seed,
        latency=ConstantLatency(0.003),
    )
    system.bootstrap(peers, warm=True)
    build_wall = time.perf_counter() - build_started

    try:
        writer = system.peer_names()[0]
        key = PROTOCOL_SCALE_KEY
        sent_before = system.network.stats.sent
        events_before = system.runtime.processed_events
        sim_before = system.runtime.now
        started = time.perf_counter()
        committed = drive_protocol_edits(system, writer, edits, batch, lines)
        pipeline_wall = time.perf_counter() - started
        messages = system.network.stats.sent - sent_before
        pipeline_events = system.runtime.processed_events - events_before
        sim_elapsed = system.runtime.now - sim_before

        # Routing probe: where the committed document lives, as seen from
        # random gateways — the hop count a cold reader pays before the
        # route cache warms for it.
        rng = random.Random(ctx.seed * 65537 + peers)
        gateways = system.peer_names()
        hops = []
        for _ in range(probes):
            via = gateways[rng.randrange(len(gateways))]
            hops.append(system.ring.lookup(key, via=via)["hops"])
    finally:
        system.shutdown()

    return {
        "peers": peers,
        "batch": batch,
        "edits": edits,
        "committed": committed,
        "commits_per_sec": (
            round(committed / pipeline_wall, 1) if pipeline_wall > 0 else 0.0
        ),
        "sim_elapsed_s": round(sim_elapsed, 3),
        "messages": messages,
        "events_per_sec": (
            round(pipeline_events / pipeline_wall, 1) if pipeline_wall > 0 else 0.0
        ),
        "mean_hops": summarize(hops).mean,
        "build_wall_s": round(build_wall, 3),
        "peak_rss_mb": _peak_rss_mb(),
    }


def protocol_scale_spec(
    peer_counts: Sequence[int] = (1000,),
    batches: Sequence[int] = (16, 1),
    edits: int = 64,
    lines: int = PROTOCOL_SCALE_LINES,
    probes: int = 16,
    seed: int = 20,
) -> ScenarioSpec:
    """Commit pipeline throughput on warm 10^3-10^4-peer rings."""
    return ScenarioSpec(
        scenario_id="E20",
        title="E20 Protocol scale sweep: commit pipeline on warm rings",
        description=(
            "Protocol-at-scale validation: one writer drives the full "
            "commit pipeline (Master round, KTS timestamps, grouped P2P-Log "
            "writes) against warm-wired rings of 10^3-10^4 peers, batched "
            "(one Master round-trip per batch) and unbatched.  Each edit "
            "rewrites a multi-line document revision, so payload sizing and "
            "per-delivery copies carry realistic weight.  Headlines are "
            "wall-clock commits/sec and kernel events/sec through the "
            "pipeline, message count, cold-reader hop counts to the "
            "document's Master, and process peak RSS."
        ),
        columns=(
            "peers", "batch", "edits", "committed", "commits_per_sec",
            "sim_elapsed_s", "messages", "events_per_sec", "mean_hops",
            "build_wall_s", "peak_rss_mb",
        ),
        grid={"peers": tuple(peer_counts), "batch": tuple(batches)},
        constants={"edits": edits, "lines": lines, "probes": probes},
        seed=seed,
        seed_offset=lambda params: params["peers"] % 7919,
        measure=_measure_protocol_scale,
        notes=(
            "expected shape: batched commits sustain several-fold higher "
            "commits/sec than unbatched at every ring size, and throughput "
            "degrades only mildly from 10^3 to 10^4 peers (hop counts grow "
            "logarithmically); committed == edits at every point; "
            "wall-clock columns vary by machine and are excluded from "
            "byte-identity checks",
        ),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Spec factory per experiment id, in paper order (extensions last).
SPEC_FACTORIES: dict[str, Callable[..., ScenarioSpec]] = {
    "E1": timestamp_generation_spec,
    "E2": concurrent_publishing_spec,
    "E3": master_departure_spec,
    "E4": master_join_spec,
    "E5": response_time_spec,
    "E6": baseline_comparison_spec,
    "E7": log_availability_spec,
    "E8": chord_lookup_spec,
    "E9": hot_document_skew_spec,
    "E10": churn_soak_spec,
    "E11": batched_commit_spec,
    "E12": cold_sync_spec,
    "E13": live_runtime_spec,
    "E14": partition_heal_spec,
    "E15": master_takeover_spec,
    "E16": live_cluster_spec,
    "E17": adversarial_sweep_spec,
    "E18": scale_sweep_spec,
    "E19": durable_restart_spec,
    "E20": protocol_scale_spec,
}

