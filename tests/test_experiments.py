"""Tests for the experiment harness (repro.experiments).

Each experiment is run through :func:`run_experiment` — the one runner —
with small parameters and its rows checked for the *shape* the paper claims
(who wins, what stays continuous/consistent).  The gate tests drive
``python -m repro.experiments --check`` against doctored copies of the
committed baselines in ``benchmarks/artifacts``.
"""

import inspect
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments import (
    FULL_PARAMETERS,
    SPEC_FACTORIES,
    render_markdown_report,
    render_runs,
    run_all,
    run_experiment,
)
from repro.experiments.__main__ import main
from repro.experiments.runner import _spec

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "artifacts"


def rows_of(experiment_id, **overrides):
    """The row dicts of one experiment run at the quick profile + overrides."""
    return run_experiment(experiment_id, overrides=overrides).rows


def test_experiment_registry_covers_all_ids():
    ids = list(SPEC_FACTORIES)
    assert ids == ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
                   "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"]
    # Every registered spec describes itself: the report renders that text.
    assert all(SPEC_FACTORIES[experiment_id]().description for experiment_id in ids)
    # The one override table names only registered experiments and only
    # keyword arguments their factories take.
    assert list(FULL_PARAMETERS) == ids
    for experiment_id, overrides in FULL_PARAMETERS.items():
        accepted = inspect.signature(SPEC_FACTORIES[experiment_id]).parameters
        assert set(overrides) <= set(accepted), experiment_id


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("E99")


def test_run_all_rejects_unknown_ids():
    with pytest.raises(KeyError):
        run_all(quick=True, only=["E3", "E99"])


def test_profiles_are_the_factory_defaults_and_full_parameters_on_top():
    assert _spec("E8", quick=True).constants == SPEC_FACTORIES["E8"]().constants
    assert _spec("E8", quick=True).constants["lookups"] == 20
    assert _spec("E8", quick=False).constants["lookups"] == 40


def test_e1_timestamp_generation_shape():
    (row,) = rows_of("E1", peer_counts=(6,), documents=12,
                     updates_per_document=2, seed=101)
    assert row["continuous_sequences"] is True
    assert row["masters_used"] >= 3  # responsibility is distributed
    assert 0 < row["fairness"] <= 1
    assert row["mean_gen_ts_latency_s"] > 0


def test_e2_concurrent_publishing_shape():
    rows = rows_of("E2", updater_counts=(2, 4, 8), peers=8, seed=102)
    assert all(row["converged"] for row in rows)
    assert [row["validated_ts"] for row in rows] == [2, 4, 8]
    # What E2 is about: the Master serialises the updaters of one document.
    # (Pinned ``mean_attempts`` growing with the updaters: a loser was sent
    # back and came round again.  Nobody is sent back now — the Master
    # transforms a stale patch over what it missed — so every commit takes one
    # attempt, and the serialisation shows in what comes back with the ok: the
    # k-th in line integrates the k - 1 patches committed ahead of it.)
    assert [row["mean_attempts"] for row in rows] == [1.0, 1.0, 1.0]
    assert [row["mean_retrieved"] for row in rows] == [0.5, 1.5, 3.5]  # mean of 0 .. n - 1
    # (Pinned the slowest commit growing with the updaters, 98.5, 98.5 and
    # 136.5 ms: it waited for one publish per updater ahead of it.)  The
    # updaters that arrive while the first publish runs ride the next one
    # together, so the slowest of eight waits for two rounds like the slowest
    # of two — 79.5, 70 and 80 ms: none later than one publish each would
    # have made it, and eight updaters nowhere near four times two.  The
    # *mean* latency is not pinned (with four updaters one of them is the
    # document's Master).
    slowest = [round(row["p95_commit_latency_s"], 9) for row in rows]
    assert all(now <= one_by_one
               for now, one_by_one in zip(slowest, [0.0985, 0.0985, 0.1365]))
    assert slowest[-1] < 1.5 * slowest[0]


def test_e3_master_departure_shape():
    rows = rows_of("E3", events=("leave", "crash"), peers=8, seed=103)
    assert len(rows) == 2
    assert all(row["continuity_preserved"] for row in rows)
    assert all(row["converged"] for row in rows)
    assert all(row["ts_after_recovery"] == row["ts_before"] for row in rows)
    assert all(row["new_master_differs"] for row in rows)


def test_e4_master_join_shape():
    rows = rows_of("E4", joiners=2, peers=5, documents=10, seed=104)
    assert len(rows) == 2
    assert all(row["counters_correct"] is True for row in rows)
    assert all(row["post_join_commit_ok"] is True for row in rows)
    assert all(row["converged_sample"] is True for row in rows)
    # at least one joiner actually took over some keys (hash-dependent)
    assert sum(row["keys_taken_over"] for row in rows) >= 1


def test_e5_response_time_shape():
    rows = rows_of("E5", peer_counts=(6, 24), latency_presets=("lan", "wan"),
                   commits_per_setting=3, seed=105)
    latency = {(row["peers"], row["latency_preset"]): row["mean_commit_latency_s"]
               for row in rows}
    # higher network latency must translate into higher response time
    assert latency[6, "wan"] > latency[6, "lan"]
    assert latency[24, "wan"] > latency[24, "lan"]
    # growing the ring 4x does not grow LAN response time 4x (lookups are
    # logarithmic and cached, validation is a constant number of hops)
    assert latency[24, "lan"] < 4 * latency[6, "lan"] + 0.05


def test_e6_baseline_comparison_shape():
    rows = {row["system"]: row for row in rows_of("E6", updater_counts=(3,), peers=8, seed=106)}
    assert rows["p2p-ltr"]["survives_coordinator_crash"] is True
    assert rows["central"]["survives_coordinator_crash"] is False
    assert rows["p2p-ltr"]["all_updates_preserved"] is True
    assert rows["lww"]["lost_updates"] > 0


def test_e7_log_availability_shape():
    rows = rows_of("E7", replication_factors=(1, 2, 3), crashed_log_peers=2,
                   peers=12, entries=4, seed=107)
    assert [row["replication_factor"] for row in rows] == [1, 2, 3]
    # with |Hr| >= 2 every patch stays retrievable after two Log-Peer crashes
    assert all(row["retrievable_fraction"] == 1.0
               for row in rows if row["replication_factor"] >= 2)
    # more placements survive with a larger hash family
    assert rows[-1]["mean_available_placements"] > rows[0]["mean_available_placements"]


def test_e8_chord_lookup_shape():
    rows = rows_of("E8", peer_counts=(6, 32), lookups=15, hot_lookups=6, seed=108)
    for row in rows:
        assert row["correct_fraction"] == 1.0
        assert row["mean_hops"] <= row["max_hops"] <= row["peers"]
        # The route cache removes the hop chain for repeated same-key lookups.
        assert row["hot_mean_hops_uncached"] >= 1.0
        assert row["hot_mean_hops_cached"] < row["hot_mean_hops_uncached"]
        assert row["cache_hit_fraction"] > 0.0
    # logarithmic growth: 5x the peers needs far fewer than 5x the hops
    assert rows[-1]["mean_hops"] <= 4 * max(rows[0]["mean_hops"], 1.0)


def test_e9_hot_document_skew_shape():
    rows = rows_of("E9", zipf_exponents=(0.0, 2.5), peers=8, documents=10,
                   waves=4, writers_per_wave=2, seed=109)
    uniform, skewed = rows
    # Growing the exponent concentrates the edits on fewer documents...
    assert skewed["hot_document_share"] > uniform["hot_document_share"]
    assert skewed["distinct_documents"] <= uniform["distinct_documents"]
    # ...and onto fewer Master-key peers.
    assert skewed["masters_used"] <= uniform["masters_used"]
    assert all(row["converged_hot"] for row in rows)
    assert all(row["edits"] == 8 for row in rows)


def test_e10_churn_soak_shape():
    rows = {row["profile"]: row for row in rows_of(
        "E10", profiles=("stable", "gentle"), peers=8, duration=10.0,
        commit_interval=2.0, seed=110)}
    assert rows["stable"]["churn_events"] == 0
    assert rows["stable"]["commits_ok"] == rows["stable"]["commits_attempted"] == 5
    assert rows["stable"]["final_ts"] == 5
    assert all(row["log_continuous"] for row in rows.values())
    assert all(row["converged"] for row in rows.values())
    assert rows["gentle"]["commits_attempted"] == 5


def test_e11_batched_commit_shape():
    rows = {row["batch_size"]: row for row in rows_of(
        "E11", batch_sizes=(1, 4, 16), peers=8, edits=32, seed=111)}
    assert all(row["converged"] for row in rows.values())
    assert all(row["last_ts"] == row["edits"] == 32 for row in rows.values())
    assert rows[16]["flushes"] == 2 and rows[1]["flushes"] == 32
    # batching multiplies throughput (>= 3x at chain length 16 vs. 1) and
    # cuts coordination per edit, monotonically
    assert rows[16]["commits_per_s"] >= 3 * rows[1]["commits_per_s"]
    assert (rows[16]["kts_allocations"] < rows[4]["kts_allocations"]
            < rows[1]["kts_allocations"])
    assert rows[16]["network_messages"] < rows[1]["network_messages"]


def test_e12_cold_sync_shape():
    all_rows = rows_of("E12", histories=(48, 256), peers=10, checkpoint_interval=32)
    rows = [row for row in all_rows if not row["master_tail"]]
    # A Master that still holds the history (256 entries at most) answers
    # with it: nothing probed, nothing left to read, cheaper than either
    # arm that reads the log (what remains is the route to the Master).
    served = [row for row in all_rows if row["master_tail"]]
    assert len(served) == 4
    for row in served:
        assert row["synced_ts"] == row["retrieved_patches"] == row["history"]
        assert row["converged"] is True and row["used_checkpoint"] is False
        assert row["sync_messages"] < min(
            other["sync_messages"] for other in rows if other["history"] == row["history"]
        )
    # Without it, the checkpoints and the P2P-Log.
    for row in rows:
        # both arms fully catch up on the identical history and converge
        assert row["synced_ts"] == row["history"]
        assert row["converged"] is True
        assert row["used_checkpoint"] is row["checkpointing"]
        if row["checkpointing"]:
            # the fast path fetches only a suffix bounded by the interval
            assert row["retrieved_patches"] <= 32
        else:
            assert row["retrieved_patches"] == row["history"]
    # The >= 5x message saving is a property of long histories (the quick
    # profile's 24/48-revision rows are too short to show it): it is held
    # against the history-256 rows, the scale it was stated at.
    full_replay, checkpointed = (row for row in rows if row["history"] == 256)
    assert checkpointed["sync_messages"] * 5 <= full_replay["sync_messages"]


def test_e13_live_runtime_shape():
    rows = rows_of("E13")
    assert [row["editors"] for row in rows] == [2, 4]
    for row in rows:
        assert row["edits_committed"] == row["last_ts"] == 24
        assert row["dense_timestamps"] is True
        assert row["log_continuous"] is True
        assert row["converged"] is True
        # loose wall-clock floor (an order of magnitude under any healthy
        # host): catches a retry loop burning its delay budget per commit
        assert row["commits_per_s"] >= 5.0


def test_e14_partition_heal_shape():
    (row,) = rows_of("E14", partition_durations=(6.0,), edit_intervals=(0.5,),
                     peers=10, converge_budget=20.0)
    # the Master side never stops serving: every probe commit lands — once:
    # 18 probes and the base revision under 19 timestamps (21 while a probe
    # re-sent across the split was committed again: the at-most-once regression)
    assert row["success_fraction"] == 1.0
    assert row["commits_ok"] == row["commits_attempted"] == 18
    assert row["last_ts"] == row["commits_ok"] + 1
    # the checker snapshotted every fault boundary and found nothing
    assert row["checker_snapshots"] >= 4
    assert row["violations"] == 0
    assert row["injection_errors"] == 0
    assert row["converged"] is True
    # the stale minority replica caught up promptly after the heal: it only
    # has the partition window's worth of suffix to retrieve
    assert row["time_to_converge_s"] is not None
    assert row["time_to_converge_s"] <= 5.0


def test_e15_master_takeover_shape():
    (row,) = rows_of("E15")
    assert row["takeover_observed"] is True
    assert row["master_restored"] is True
    assert row["commits_ok"] == row["commits_attempted"]
    assert row["last_ts"] == row["commits_ok"] + 1  # the base revision
    assert row["violations"] == 0 and row["injection_errors"] == 0
    assert row["converged"] is True


def test_e16_live_cluster_shape():
    (row,) = rows_of("E16")
    assert row["ring_size"] == row["processes"] * row["peers_per_process"] + 1
    assert row["commits_ok"] == row["last_ts"] == 18 and row["commits_failed"] == 0
    assert row["kill_applied"] is True and row["killed_process"] >= 0
    assert row["post_kill_ok"] > 0
    assert row["log_continuous"] is True
    assert row["frames_out"] > 0 and row["frames_in"] > 0


def test_e17_adversarial_sweep_shape():
    rows = rows_of("E17")
    assert {row["misbehavior"] for row in rows} == {"drop", "corrupt", "replay", "equivocate"}
    for row in rows:
        # masked by replication, or detected and attributed — never neither
        assert row["silent_divergence"] is False
        assert row["culprit_named"] is True
        assert row["detected"] is (row["misbehavior"] != "drop")
        assert row["success_fraction"] == 1.0


def test_e18_scale_sweep_shape():
    small, large = rows_of("E18")
    assert (small["peers"], large["peers"]) == (1000, 2000)
    assert small["correct_fraction"] == large["correct_fraction"] == 1.0
    # doubling the ring adds about one hop, not a doubling
    assert small["mean_hops"] < large["mean_hops"] < 2 * small["mean_hops"]
    assert large["sim_events"] > small["sim_events"]
    assert small["events_per_sec"] > 0 and small["peak_rss_mb"] > 0


def test_e19_durable_restart_shape():
    rows = {row["recovery"]: row for row in rows_of("E19")}
    durable, amnesiac = rows["durable"], rows["amnesiac"]
    assert durable["shard_before"] == amnesiac["shard_before"] > 0
    # the durable arm restarts holding its shard and converges after
    # strictly fewer messages than the arm that must re-replicate
    assert durable["entries_recovered"] == durable["shard_before"]
    assert amnesiac["entries_recovered"] == 0
    assert durable["converged"] is True
    assert durable["recovery_messages"] < amnesiac["recovery_messages"]
    assert durable["recovery_latency_s"] < amnesiac["recovery_latency_s"]


def test_e20_protocol_scale_shape():
    # Two chains of 16 vs 32 chains of one: a single chain's 48 placement
    # lookups all go out cold, so its message saving (one validation round
    # and one KTS push per chain) only shows from the second chain on.
    rows = rows_of("E20", peer_counts=(64,), batches=(16, 1), edits=32,
                   probes=8, seed=120)
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
    results = run_all(quick=True, only=["E3"])
    assert len(results) == 1
    assert results[0].scenario_id == "E3"
    text = render_runs(results)
    assert "E3" in text
    markdown = render_markdown_report(results)
    assert markdown.startswith("# Experiment results")
    assert results[0].spec.description in markdown
    assert "Parameters: `events=('leave', 'crash'), peers=10`" in markdown


def test_run_all_writes_artifacts(tmp_path):
    results = run_all(quick=True, only=["E3"], artifacts_dir=tmp_path / "a")
    assert [path.name for path in (tmp_path / "a").iterdir()] == ["BENCH_E3.json"]
    assert results[0].rows[0]["event"] == "leave"
    # A simulated experiment's artifact repeats to the byte, and is the
    # committed baseline.
    run_all(quick=True, only=["E3"], artifacts_dir=tmp_path / "b")
    written = (tmp_path / "a" / "BENCH_E3.json").read_bytes()
    assert written == (tmp_path / "b" / "BENCH_E3.json").read_bytes()
    assert written == (BASELINES / "BENCH_E3.json").read_bytes()
    payload = json.loads(written)
    assert payload["profile"] == "quick" and "wall_clock_s" not in payload
    # ...and --full stamps its own profile
    run_all(quick=False, only=["E3"], artifacts_dir=tmp_path / "full")
    assert json.loads((tmp_path / "full" / "BENCH_E3.json").read_text())["profile"] == "full"


# ------------------------------------------------------------------ gate --


def doctored(tmp_path, experiment_id, edit=None):
    """A one-file baseline directory: the committed artifact, ``edit``-ed."""
    target = tmp_path / f"BENCH_{experiment_id}.json"
    shutil.copy(BASELINES / target.name, target)
    if edit is not None:
        payload = json.loads(target.read_text())
        edit(payload)
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(tmp_path)


def test_check_passes_on_a_clean_baseline(tmp_path, capsys):
    assert main(["--check", doctored(tmp_path, "E3")]) == 0
    assert "gate passed: 1 experiment(s)" in capsys.readouterr().out


def test_check_fails_on_a_deterministic_headline_off_by_one_digit(tmp_path, capsys):
    def nudge(payload):
        value = payload["headline"]["mean_mean_hops"]
        payload["headline"]["mean_mean_hops"] = float(repr(value)[:-1] + "6")
        assert payload["headline"]["mean_mean_hops"] != value
    assert main(["--check", doctored(tmp_path, "E8", nudge)]) == 1
    out = capsys.readouterr().out
    assert "E8: FAIL" in out and "mean_mean_hops" in out and "gate FAILED" in out


def test_check_fails_on_a_metric_missing_from_or_added_to_the_baseline(tmp_path, capsys):
    def drop(payload):
        del payload["headline"]["fraction_converged"]
    assert main(["--check", doctored(tmp_path, "E3", drop)]) == 1
    assert "new metric 'fraction_converged'" in capsys.readouterr().out

    def add(payload):
        payload["headline"]["mean_vanished_latency_s"] = 0.5
    assert main(["--check", doctored(tmp_path, "E3", add)]) == 1
    assert "'mean_vanished_latency_s' disappeared" in capsys.readouterr().out


def test_check_reports_but_does_not_compare_host_dependent_headlines(tmp_path, capsys):
    def slower_host(payload):
        payload["headline"]["mean_events_per_sec"] /= 10
        payload["headline"]["mean_peak_rss_mb"] *= 3
    assert main(["--check", doctored(tmp_path, "E18", slower_host)]) == 0
    out = capsys.readouterr().out
    assert "mean_events_per_sec" in out and "not compared" in out


def test_check_compares_correctness_flags_even_on_live_experiments(tmp_path, capsys):
    def break_flag(payload):
        payload["headline"]["fraction_converged"] = 0.5
    assert main(["--check", doctored(tmp_path, "E13", break_flag)]) == 1
    out = capsys.readouterr().out
    assert "E13: fraction_converged = 1.0 differs from baseline 0.5" in out
    assert "mean_mean_attempts" in out and "not compared" in out


def test_check_refuses_unusable_baselines(tmp_path, capsys):
    def full(payload):
        payload["profile"] = "full"
    directory = doctored(tmp_path, "E3", full)
    assert main(["--check", directory]) == 2
    assert "refresh it without --full" in capsys.readouterr().err
    # an unknown id, or a known one without a baseline, exits 2 as well
    assert main(["E99", "--check", directory]) == 2
    assert "unknown experiment ids ['E99']" in capsys.readouterr().err
    assert main(["E4", "--check", directory]) == 2
    assert "no committed baseline for ['E4']" in capsys.readouterr().err
    assert main(["E99"]) == 2
