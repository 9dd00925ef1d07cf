"""Tests for the experiment harness (repro.experiments).

Each experiment is run with very small parameters and its table checked for
the *shape* the paper claims (who wins, what stays continuous/consistent).
The benchmark modules run the same functions with larger parameters.
"""

import pytest

from repro.experiments import (
    EXPERIMENT_DESCRIPTIONS,
    SPEC_FACTORIES,
    iter_all_experiments,
    paper_experiment,
    render_markdown_report,
    render_runs,
    run_all,
    run_experiment,
)
from repro.experiments.scenarios import (
    experiment_baseline_comparison,
    experiment_batched_commit,
    experiment_chord_lookup,
    experiment_churn_soak,
    experiment_concurrent_publishing,
    experiment_hot_document_skew,
    experiment_log_availability,
    experiment_master_departure,
    experiment_master_join,
    experiment_protocol_scale,
    experiment_response_time,
    experiment_timestamp_generation,
)


def test_experiment_registry_covers_all_ids():
    ids = [experiment_id for experiment_id, _fn in iter_all_experiments()]
    assert ids == ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
                   "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"]
    assert ids == list(SPEC_FACTORIES)
    assert set(ids).issubset(EXPERIMENT_DESCRIPTIONS)


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("E99")


def test_run_all_rejects_unknown_ids():
    with pytest.raises(KeyError):
        run_all(quick=True, only=["E3", "E99"])


def test_paper_experiment_groups_every_spec():
    experiment = paper_experiment(quick=True)
    assert experiment.scenario_ids() == list(SPEC_FACTORIES)
    assert experiment.spec("E8").constants["lookups"] == 20


def test_e1_timestamp_generation_shape():
    table = experiment_timestamp_generation(peer_counts=(6,), documents=12,
                                            updates_per_document=2, seed=101)
    assert len(table) == 1
    row = dict(zip(table.columns, table.rows[0]))
    assert row["continuous_sequences"] is True
    assert row["masters_used"] >= 2  # responsibility is distributed
    assert 0 < row["fairness"] <= 1
    assert row["mean_gen_ts_latency_s"] > 0


def test_e2_concurrent_publishing_shape():
    table = experiment_concurrent_publishing(updater_counts=(2, 4), peers=8, seed=102)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert all(row["converged"] for row in rows)
    assert [row["validated_ts"] for row in rows] == [2, 4]
    # more updaters means more retrieval work per commit on average
    assert rows[1]["mean_retrieved"] >= rows[0]["mean_retrieved"]


def test_e3_master_departure_shape():
    table = experiment_master_departure(events=("leave", "crash"), peers=8, seed=103)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert len(rows) == 2
    assert all(row["continuity_preserved"] for row in rows)
    assert all(row["converged"] for row in rows)
    assert all(row["ts_after_recovery"] == row["ts_before"] for row in rows)


def test_e4_master_join_shape():
    table = experiment_master_join(joiners=1, peers=5, documents=10, seed=104)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["counters_correct"] is True
    assert row["post_join_commit_ok"] is True
    assert row["converged_sample"] is True


def test_e5_response_time_shape():
    table = experiment_response_time(peer_counts=(6,), latency_presets=("lan", "wan"),
                                     commits_per_setting=3, seed=105)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    lan = next(row for row in rows if row["latency_preset"] == "lan")
    wan = next(row for row in rows if row["latency_preset"] == "wan")
    # higher network latency must translate into higher response time
    assert wan["mean_commit_latency_s"] > lan["mean_commit_latency_s"]


def test_e6_baseline_comparison_shape():
    table = experiment_baseline_comparison(updater_counts=(3,), peers=8, seed=106)
    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    assert rows["p2p-ltr"]["survives_coordinator_crash"] is True
    assert rows["central"]["survives_coordinator_crash"] is False
    assert rows["p2p-ltr"]["all_updates_preserved"] is True
    assert rows["lww"]["lost_updates"] > 0


def test_e7_log_availability_shape():
    table = experiment_log_availability(replication_factors=(1, 3), crashed_log_peers=1,
                                        peers=10, entries=4, seed=107)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert rows[-1]["retrievable_fraction"] == 1.0
    # more placements survive with a larger hash family
    assert rows[-1]["mean_available_placements"] >= rows[0]["mean_available_placements"]


def test_e8_chord_lookup_shape():
    table = experiment_chord_lookup(peer_counts=(6,), lookups=15, hot_lookups=6, seed=108)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["correct_fraction"] == 1.0
    assert row["mean_hops"] <= row["max_hops"]
    # The route cache removes the hop chain for repeated same-key lookups.
    assert row["hot_mean_hops_uncached"] >= 1.0
    assert row["hot_mean_hops_cached"] < row["hot_mean_hops_uncached"]
    assert row["cache_hit_fraction"] > 0.0


def test_e9_hot_document_skew_shape():
    table = experiment_hot_document_skew(
        zipf_exponents=(0.0, 2.5), peers=8, documents=10, waves=4,
        writers_per_wave=2, seed=109,
    )
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    uniform, skewed = rows
    # Growing the exponent concentrates the edits on fewer documents...
    assert skewed["hot_document_share"] > uniform["hot_document_share"]
    assert skewed["distinct_documents"] <= uniform["distinct_documents"]
    # ...and onto fewer Master-key peers.
    assert skewed["masters_used"] <= uniform["masters_used"]
    assert all(row["converged_hot"] for row in rows)
    assert all(row["edits"] == 8 for row in rows)


def test_e10_churn_soak_shape():
    table = experiment_churn_soak(
        profiles=("stable", "gentle"), peers=8, duration=10.0,
        commit_interval=2.0, seed=110,
    )
    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    assert rows["stable"]["churn_events"] == 0
    assert rows["stable"]["commits_ok"] == rows["stable"]["commits_attempted"] == 5
    assert rows["stable"]["final_ts"] == 5
    assert all(row["log_continuous"] for row in rows.values())
    assert all(row["converged"] for row in rows.values())
    assert rows["gentle"]["commits_attempted"] == 5


def test_e11_batched_commit_shape():
    table = experiment_batched_commit(batch_sizes=(1, 8), peers=8, edits=16, seed=111)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    single, batched = rows
    assert all(row["converged"] for row in rows)
    assert all(row["last_ts"] == row["edits"] == 16 for row in rows)
    # batching raises throughput and cuts coordination per edit
    assert batched["commits_per_s"] > single["commits_per_s"]
    assert batched["kts_allocations"] < single["kts_allocations"]
    assert batched["flushes"] == 2 and single["flushes"] == 16


def test_e20_protocol_scale_shape():
    # Two chains of 16 vs 32 chains of one: a single chain's 48 placement
    # lookups all go out cold, so its message saving (one validation round
    # and one KTS push per chain) only shows from the second chain on.
    table = experiment_protocol_scale(peer_counts=(64,), batches=(16, 1),
                                      edits=32, probes=8, seed=120)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    batched, single = rows
    assert batched["batch"] == 16 and single["batch"] == 1
    # every staged edit commits, at both chain lengths
    assert all(row["committed"] == row["edits"] == 32 for row in rows)
    # batching cuts coordination: fewer simulated seconds and messages
    assert batched["sim_elapsed_s"] < single["sim_elapsed_s"]
    assert batched["messages"] < single["messages"]
    assert all(row["mean_hops"] >= 0 for row in rows)
    assert all(row["commits_per_sec"] > 0 for row in rows)


def test_run_all_subset_and_rendering():
    runs = run_all(quick=True, only=["E3"])
    assert len(runs) == 1
    assert runs[0].experiment_id == "E3"
    text = render_runs(runs)
    assert "E3" in text
    markdown = render_markdown_report(runs)
    assert markdown.startswith("# Experiment results")
    assert "Master-key" in markdown


def test_run_all_writes_artifacts(tmp_path):
    runs = run_all(quick=True, only=["E3"], artifacts_dir=tmp_path)
    assert (tmp_path / "E3.json").exists()
    assert runs[0].result is not None
    assert runs[0].result.rows[0]["event"] == "leave"
