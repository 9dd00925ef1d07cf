"""Self-tests of ltrbench (outside tier-1).

Run from the repository root::

    python -m pytest benchmarks/ltrbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import spans
import workloads
from repro.chord import ChordConfig
from repro.core import LtrConfig

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_cli(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True, text=True, timeout=170,
    )


# -- BENCHMARK.json and the catalogue agree ----------------------------------


def test_benchmark_json_matches_the_catalogue():
    assert BENCHMARK["paths"] == ["benchmarks/ltrbench"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/ltrbench/run.py"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.DRIVER_WORKLOADS]
    for section, catalogue in (("end_to_end", metrics.END_TO_END),
                               ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]] \
            == [(m.name, m.unit, m.better) for m in catalogue]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


def test_names_units_and_bounds_obey_the_contract():
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60


# -- inputs and configuration ---------------------------------------------------


def test_schedule_is_seeded_and_exactly_zipf():
    def drain(schedule):
        edits = []
        while (edit := schedule.take()) is not None:
            edits.append(edit)
        return edits

    first = drain(workloads.Schedule(7, list(range(8)), 400))
    assert first == drain(workloads.Schedule(7, list(range(8)), 400))
    other = drain(workloads.Schedule(8, list(range(8)), 400))
    assert first != other
    per_document = lambda edits: sorted(edit[0] for edit in edits)  # noqa: E731
    assert per_document(first) == per_document(other)  # only the order moves
    assert len(first) == 400
    assert all(len(edit[3]) == workloads.LINE_CHARS for edit in first)


def test_dropped_knobs_are_reported_not_fatal():
    dropped: list[str] = []
    config = workloads.tolerant(
        LtrConfig, {"log_replication_factor": 2, "knob_of_the_past": True}, dropped)
    assert config.log_replication_factor == 2
    assert dropped == ["LtrConfig.knob_of_the_past"]
    for workload in workloads.WORKLOADS:  # today every knob still exists
        unknown: list[str] = []
        workloads.tolerant(LtrConfig, workload.ltr, unknown)
        workloads.tolerant(ChordConfig, workload.chord, unknown)
        assert unknown == []


def test_percentile_rate_and_stall_share():
    assert metrics.percentile([], 0.5) is None
    assert metrics.percentile([1.0, 2.0, 4.0, 8.0], 0.5) == 3.0
    assert metrics.percentile([1.0, 2.0, 4.0, 8.0], 1.0) == 8.0
    steady = [0.01 * number for number in range(400)]
    assert metrics.lane_rate(steady) == pytest.approx(100.0)
    # Three one-second stalls in the middle move the mean, not the median slice.
    stalled = [moment + sum(number > at for at in (100, 200, 300))
               for number, moment in enumerate(steady)]
    assert metrics.lane_rate(stalled) == pytest.approx(100.0)
    assert metrics.steady_rate([steady, stalled]) == pytest.approx(200.0)
    assert metrics.steady_rate([steady, [0.0, 1.0], [], [2.0]]) == pytest.approx(101.0)
    assert metrics.steady_rate([[], [2.0]]) is None
    assert metrics.stalled_share([1.0] * 99 + [11.0]) == 0.01


def test_a_simulated_round_repeats_to_the_last_digit(tmp_path):
    workload = workloads.WORKLOAD_BY_NAME["sim-zipf-unbatched"]

    def values(seed):
        result = workloads.run_round(workload, seed, 0.05, tmp_path / "scratch", [])
        assert result.failed == 0
        row = dict(metrics.end_to_end(result), **metrics.driver_layers(workload, result))
        return [row[name] for name in metrics.DETERMINISTIC]

    first = values(4)
    assert None not in first
    assert values(4) == first
    assert values(5) != first


# -- span wrappers ----------------------------------------------------------------


def _patched_slots():
    """Every (owner, name) pair the full installation replaces."""
    with spans.install(spans.Recorder()) as installation:
        return [(owner, name) for owner, name, _original in installation._patched]


def test_every_wrapper_restores_the_original_attribute():
    slots = _patched_slots()
    assert len(slots) > 30
    before = [vars(owner)[name] for owner, name in slots]
    with spans.install(spans.Recorder()) as installation:
        assert installation.warnings == []
        during = [vars(owner)[name] for owner, name in slots]
        assert all(new is not old for new, old in zip(during, before))
    assert all(vars(owner)[name] is old
               for (owner, name), old in zip(slots, before))
    with pytest.raises(RuntimeError):
        with spans.install(spans.Recorder()):
            raise RuntimeError("interrupted")
    assert all(vars(owner)[name] is old
               for (owner, name), old in zip(slots, before))


def test_callers_resolve_the_wrapper_through_their_own_import():
    import repro.net.codec
    import repro.net.transport

    original = repro.net.codec.copy_message
    assert repro.net.transport.copy_message is original
    with spans.install(spans.Recorder()):
        assert repro.net.transport.copy_message is not original
        assert repro.net.transport.copy_message is repro.net.codec.copy_message
    assert repro.net.transport.copy_message is original


def test_a_vanished_target_is_a_warning_not_a_crash():
    gone = [spans.Target("x.gone", "repro.core.user_peer:UserPeer.no_such", "sync"),
            spans.Target("x.gone", "repro.no_such_module:function", "gen")]
    with spans.install(spans.Recorder(), gone) as installation:
        assert len(installation.warnings) == 2
        assert installation.installed == set()


def test_recorder_splits_counts_by_phase():
    recorder = spans.Recorder()
    recorder.bump("a")
    recorder.begin_phase("write")
    recorder.bump("a", 2)
    recorder.begin_phase("read")
    recorder.bump("a", 4)
    assert recorder.phases("write").counter("a") == 2
    assert recorder.phases("write", "read").counter("a") == 6
    assert recorder.phases("setup").counter("a") == 1


# -- correctness is checked, and failures fail the run ------------------------------


def test_smoke_round_is_clean_and_traced_layers_are_measured(tmp_path):
    recorder = spans.Recorder()
    workload = workloads.WORKLOAD_BY_NAME["sim-zipf-batched"]
    result = workloads.run_round(workload, 3, 0.05, tmp_path / "scratch", [],
                                 recorder)
    assert result.failed == 0 and result.violations == []
    assert result.commits == 128 and result.syncs == 4 * 32  # the size floor
    layers = metrics.span_layers(recorder, result)
    for name in ("ot.integrate_us_per_patch", "master.validate_ms_p50",
                 "kts.ts_per_alloc", "p2plog.publish_ms_p50",
                 "chord.hops_per_lookup", "net.rpc_ms_p50", "storage.put_us"):
        assert layers[name] is not None and layers[name] > 0, name
    assert layers["codec.encode_us_per_frame"] is None  # no wire on this one


def test_a_corrupted_reader_replica_fails_the_run():
    completed = run_cli("--workload", "sim-zipf-unbatched", "--scale", "0.05",
                        "--rounds", "1", "--self-test-corrupt-reader")
    assert completed.returncode != 0
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] <= line["attempted"]


def test_a_clean_run_prints_exactly_the_contract_line():
    completed = run_cli("--workload", "sim-zipf-unbatched", "--scale", "0.05",
                        "--rounds", "1", "--seed", "2")
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m.name for m in metrics.END_TO_END]
    assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_cluster_leaves_no_process_or_socket_directory_behind(tmp_path):
    workload = workloads.WORKLOAD_BY_NAME["wire-cluster"]
    scratch = tmp_path / "scratch"
    seen = []

    def interrupt(deployment):
        seen.extend(deployment.cluster.processes)
        raise RuntimeError("interrupted mid-run")

    with pytest.raises(RuntimeError):
        workloads.run_round(workload, 1, 0.05, scratch, [], corrupt=interrupt)
    assert len(seen) == 2
    assert all(process.poll() is not None for process in seen)
    assert not scratch.exists()

    def remember(deployment):
        seen.extend(deployment.cluster.processes)

    result = workloads.run_round(workload, 1, 0.05, scratch, [], corrupt=remember)
    assert result.failed == 0
    assert all(process.poll() is not None for process in seen)
    assert not scratch.exists()


# -- comparing two sets ----------------------------------------------------------


def _cell(*runs: float) -> dict:
    first, third = run._quartiles(list(runs))
    return {"runs": list(runs), "median": sorted(runs)[len(runs) // 2],
            "q1": first, "q3": third}


def test_verdicts():
    steady = _cell(100, 101, 102)
    assert run.verdict(steady, _cell(100.5, 101, 101.5), "lower", 0.1)[0] == "within bound"
    assert run.verdict(steady, _cell(120, 121, 122), "lower", 0.1)[0] == "worse"
    assert run.verdict(steady, _cell(80, 81, 82), "lower", 0.1)[0] == "better"
    assert run.verdict(steady, _cell(120, 121, 122), "higher", 0.1)[0] == "better"
    noisy = _cell(80, 100, 125)
    assert run.verdict(noisy, _cell(85, 104, 120), "lower", 0.1)[0] == "unresolved"
