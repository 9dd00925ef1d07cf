#!/usr/bin/env python3
"""ltrbench: the commit-and-sync benchmark of the P2P-LTR reproduction.

One run (the form ``BENCHMARK.json`` names; one workload, one process)::

    python3 benchmarks/ltrbench/run.py --workload sim-zipf-unbatched \\
        --seed 1 --seconds 45 --trace 0

prints every metric by name and unit, then one JSON object as the last
line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of rounds run with the span wrappers installed.

A set of runs (every workload, interleaved A B C D, A B C D, ..., each run
in a fresh interpreter), written to ``benchmarks/ltrbench/out/``::

    python3 benchmarks/ltrbench/run.py --repeats 3 --traced
    python3 benchmarks/ltrbench/run.py --compare out/A.json out/B.json
    python3 benchmarks/ltrbench/run.py --smoke

See README.md in this directory for the workloads, the metrics and how a
later change cites a number.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: Rounds a run makes whatever ``--seconds`` says (set-up time is a median);
#: a traced run makes steps of one untraced and one traced round.
MIN_ROUNDS = 3
#: ``peak_rss_mb`` is read after this many rounds (or the last one, if fewer):
#: the peak creeps up by about 1 MiB a round, and how many rounds fit in
#: ``--seconds`` is the host's speed, not the program's memory.
RSS_ROUNDS = MIN_ROUNDS
MIN_TRACED_STEPS = 1
#: ``setup_s`` is a median over every untraced round's set-up plus up to this
#: many set-up-only probes after it, as many as fit in the seconds below: 8 on
#: the simulated rings (milliseconds each), none on the cluster (1.4 s).
SETUP_PROBES = 8
SETUP_PROBE_SECONDS = 0.3
#: Round ``i`` of a run with ``--seed s`` draws its inputs from seed
#: ``s * ROUND_SEEDS + i``: a run samples several inputs and reports their
#: median, and round ``i`` of seed ``s`` is the same in every run.
ROUND_SEEDS = 1000
#: Rounds per run in a set (steps in its traced runs): fixed counts, so that
#: two sets with one seed agree to the last digit on every simulated-clock value.
SET_ROUNDS = 4
SET_TRACED_STEPS = 2


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"ltrbench: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _median(values: list[Optional[float]]) -> Optional[float]:
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else None


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _second, third = statistics.quantiles(values, n=4)
    return first, third


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------


def run_once(arguments: argparse.Namespace) -> int:
    """One workload in this process: rounds until ``--seconds`` are spent."""
    process_started = time.perf_counter()
    _import_program()
    import metrics
    from replay import replay
    from spans import Recorder
    from workloads import WORKLOAD_BY_NAME, run_round, setup_only

    workload = WORKLOAD_BY_NAME.get(arguments.workload)
    if workload is None:
        sys.exit(f"ltrbench: unknown workload {arguments.workload!r}; "
                 f"known: {', '.join(WORKLOAD_BY_NAME)}")
    traced_run = bool(arguments.trace)
    os.chdir(ROOT)  # socket and database paths are kept relative to the root
    scratch = OUT / f"tmp-{os.getpid()}"
    warnings: list[str] = []
    results: list[Any] = []                       # RoundResult of every round
    per_round: list[tuple[bool, dict]] = []       # (traced, its values)
    recorder: Optional[Recorder] = None           # of the last traced round
    setups: list[float] = []                      # every untraced set-up, seconds
    steps = (False, True) if traced_run else (False,)
    minimum = (arguments.rounds or
               (MIN_TRACED_STEPS if traced_run else MIN_ROUNDS)) * len(steps)
    # A traced run ends with the layer replay: keep time for it.
    replay_seconds = 0.5 if arguments.scale >= 1.0 else 0.05
    reserve = 6 * replay_seconds + 1.0 if traced_run else 0.0
    longest = 0.0
    peak_rss_mb = 0.0
    corrupt = None
    if arguments.self_test_corrupt_reader:
        def corrupt(deployment: Any) -> None:
            replica = deployment.readers[0].document("doc-00")
            replica.lines.append("a line no editor wrote")
    try:
        while True:
            elapsed = time.perf_counter() - process_started
            step = longest * len(steps)
            if len(results) >= minimum and (
                    arguments.rounds
                    or elapsed + step + reserve > arguments.seconds):
                break
            # Every round has inputs of its own, derived from the seed; the
            # untraced and the traced round of one step share theirs.
            round_seed = arguments.seed * ROUND_SEEDS + len(results) // len(steps)
            for traced in steps:
                recorder = Recorder(round_seed) if traced else None
                started = time.perf_counter()
                result = run_round(workload, round_seed, arguments.scale,
                                   scratch, warnings, recorder, corrupt)
                if not traced:
                    setups.append(result.setup_s)
                    probes = min(SETUP_PROBES,
                                 int(SETUP_PROBE_SECONDS / result.setup_s))
                    setups.extend(setup_only(workload, round_seed, scratch, warnings)
                                  for _ in range(probes))
                longest = max(longest, time.perf_counter() - started)
                results.append(result)
                if len(results) == RSS_ROUNDS:
                    peak_rss_mb = metrics.peak_rss_mb()
                row = dict(metrics.end_to_end(result),
                           **metrics.driver_layers(workload, result),
                           write_wall_s=result.write_wall_s)
                if recorder is not None:
                    row.update(metrics.span_layers(recorder, result))
                per_round.append((traced, row))
        values = summarize(metrics, per_round)
        values["setup_s"] = statistics.median(setups)
        if recorder is not None:
            values.update(replay(recorder.captures, scratch, replay_seconds))
            OUT.mkdir(parents=True, exist_ok=True)
            recorder.write_spans(OUT / f"{workload.name}.spans.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values["peak_rss_mb"] = (peak_rss_mb if len(results) >= RSS_ROUNDS
                             else metrics.peak_rss_mb())

    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    violations = [line for result in results for line in result.violations]
    correct = failed == 0
    if workload.backend == "sim" and traced_run:
        # The two rounds of a step have the same inputs: on a simulated
        # clock they must agree to the last digit, wrappers or not.
        rows = [row for _traced, row in per_round]
        for plain, heavy in zip(rows[0::2], rows[1::2]):
            for name in metrics.DETERMINISTIC:
                if plain[name] != heavy[name]:
                    correct = False
                    violations.append(
                        f"not deterministic: {name} read {plain[name]!r} untraced "
                        f"and {heavy[name]!r} traced on the same inputs")
    values["failed_share"] = failed / attempted if attempted else 1.0
    warnings = sorted(set(warnings))

    reported = metrics.PER_LAYER if traced_run else metrics.END_TO_END
    print(f"ltrbench {workload.name} seed={arguments.seed} "
          f"rounds={len(results)} scale={arguments.scale} traced={traced_run}")
    for metric in metrics.CATALOGUE:
        value = values[metric.name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric.name:<40} {shown:>14} {metric.unit}")
    for line in warnings:
        print(f"  warning: {line}")
    for line in violations[:20]:
        print(f"  violation: {line}")

    if arguments.detail:
        detail = {
            "workload": workload.name, "seed": arguments.seed,
            "seconds": arguments.seconds, "scale": arguments.scale,
            "traced": traced_run, "rounds": len(results),
            "sizes": {
                "peers": workload.peers, "editors": workload.editors,
                "documents": workload.documents, "readers": workload.readers,
                "batch": workload.batch,
                "commits_per_round": results[0].commits,
            },
            "values": values, "per_round": [row for _flag, row in per_round],
            "setup_samples": setups,
            "attempted": attempted, "failed": failed, "correct": correct,
            "warnings": warnings, "violations": violations,
        }
        Path(arguments.detail).write_text(json.dumps(detail, indent=1) + "\n")

    # The contract line has no null: a metric that does not apply to this
    # workload (codec on a simulated ring) reads 0 there, n/a above.
    line = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            metric.name: {"value": values.get(metric.name) or 0.0,
                          "unit": metric.unit}
            for metric in reported
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def summarize(metrics: Any, per_round: list[tuple[bool, dict]]) -> dict:
    """Median over rounds of every per-round value.

    Whatever the driver can time or count without a wrapper (the end-to-end
    values and ``metrics.driver_layers``) comes from untraced rounds only.
    What needs the wrappers comes from the traced rounds of a traced run,
    and the tracing overhead is their write phase against the untraced one.
    """
    plain = [row for traced, row in per_round if not traced]
    heavy = [row for traced, row in per_round if traced]
    values: dict[str, Optional[float]] = {}
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        rows = plain if metric.name in plain[0] else heavy
        values[metric.name] = _median([row.get(metric.name) for row in rows])
    if heavy:
        untraced = _median([row["write_wall_s"] for row in plain])
        values["trace.overhead_share"] = (
            _median([row["write_wall_s"] for row in heavy]) - untraced) / untraced
    return values


# --------------------------------------------------------------------------
# A set of runs
# --------------------------------------------------------------------------


def host_fingerprint() -> dict[str, Any]:
    _import_program()
    from repro.net import codec

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "wire_format": codec.WIRE_FORMAT,
        "sqlite": sqlite3.sqlite_version,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _spawn_run(workload: str, seed: int, seconds: int, trace: int,
               detail: Path, extra: list[str]) -> dict[str, Any]:
    """One run in a fresh interpreter; returns its detail record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--detail", str(detail), *extra,
    ]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=600)
    if not detail.is_file():
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"ltrbench: run of {workload} produced no result "
                         f"(exit code {completed.returncode})")
    record = json.loads(detail.read_text())
    detail.unlink()
    record["exit_code"] = completed.returncode
    return record


def run_set(arguments: argparse.Namespace) -> int:
    """Every workload ``--repeats`` times, interleaved, plus traced runs."""
    extra = ["--scale", str(arguments.scale)]
    _import_program()
    from workloads import WORKLOADS

    # All four, not only the two BENCHMARK.json names for the PR driver: the
    # live ones are measured here, in sets and pairs (README, "Workloads").
    names = [workload.name for workload in WORKLOADS]
    seconds = arguments.seconds or load_benchmark()["run_seconds"]
    OUT.mkdir(parents=True, exist_ok=True)
    host = host_fingerprint()
    stamp = time.strftime("%Y%m%d-%H%M%S")
    detail = OUT / f"detail-{os.getpid()}.json"
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    for repeat in range(arguments.repeats):
        for name in names:
            print(f"[{repeat + 1}/{arguments.repeats}] {name}", flush=True)
            runs[name].append(_spawn_run(
                name, arguments.seed, seconds, 0, detail,
                extra + ["--rounds", str(arguments.rounds or SET_ROUNDS)]))
    if arguments.traced:
        for name in names:
            print(f"[traced] {name}", flush=True)
            traced[name] = _spawn_run(
                name, arguments.seed, seconds, 1, detail,
                extra + ["--rounds", str(arguments.rounds or SET_TRACED_STEPS)])

    import metrics

    # Each metric with its unit, direction, layer and what it should move.
    catalogue = {metric.name: dataclasses.asdict(metric)
                 for metric in metrics.CATALOGUE}
    ok = True
    workloads: dict[str, Any] = {}
    for name in names:
        records = runs[name] + ([traced[name]] if name in traced else [])
        ok = ok and all(record["correct"] and record["exit_code"] == 0
                        for record in records)
        end_to_end = {}
        for metric in metrics.END_TO_END + (metrics.FAILED_SHARE,):
            raw = [record["values"][metric.name] for record in runs[name]]
            first, third = _quartiles(raw)
            end_to_end[metric.name] = {
                "unit": metric.unit, "runs": raw, "n": len(raw),
                "median": statistics.median(raw), "q1": first, "q3": third,
            }
        problems = []
        if name.startswith("sim-"):
            # Same seed, same commit: simulated-clock values repeat exactly
            # between runs too, not only between the rounds of one run.
            for metric_name in metrics.DETERMINISTIC:
                seen = {record["values"][metric_name] for record in runs[name]}
                if len(seen) > 1:
                    ok = False
                    problems.append(f"not deterministic across runs: "
                                    f"{metric_name} read {sorted(seen)}")
        workloads[name] = {
            "sizes": runs[name][0]["sizes"],
            "rounds_per_run": [record["rounds"] for record in runs[name]],
            "end_to_end": end_to_end,
            "driver_layers": {
                metric.name: _median([record["values"].get(metric.name)
                                      for record in runs[name]])
                for metric in metrics.PER_LAYER
            },
            "per_layer": traced[name]["values"] if name in traced else None,
            "warnings": sorted({line for record in records
                                for line in record["warnings"]}),
            "violations": problems + [line for record in records
                                      for line in record["violations"]],
        }
    result = {
        "benchmark": "ltrbench", "claim": None, "stamp": stamp, "host": host,
        "seed": arguments.seed, "seconds": seconds, "repeats": arguments.repeats,
        "scale": arguments.scale, "metrics": catalogue, "workloads": workloads,
    }
    path = Path(arguments.out) if arguments.out else OUT / f"ltrbench-{stamp}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_set(result)
    print(f"\nwrote {path}")
    return 0 if ok else 1


def print_set(result: dict[str, Any]) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n{name}  ({result['repeats']} runs, seed {result['seed']}, "
              f"{entry['sizes']['commits_per_round']} commits per round)")
        for metric, cell in entry["end_to_end"].items():
            print(f"  {metric:<22} {cell['median']:>14.6g} {cell['unit']:<6} "
                  f"[q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n={cell['n']}]")
        for metric, value in (entry["per_layer"] or {}).items():
            if metric in entry["end_to_end"]:
                continue
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<40} {shown:>14} {result['metrics'][metric]['unit']}")
        for line in entry["warnings"]:
            print(f"  warning: {line}")
        for line in entry["violations"]:
            print(f"  violation: {line}")


# --------------------------------------------------------------------------
# Comparing two sets
# --------------------------------------------------------------------------


def verdict(before: dict, after: dict, better: str, bound: float) -> tuple[str, float]:
    """How ``after`` stands against ``before`` for one metric of one workload.

    ``unresolved`` when the run-to-run spread of either side is wider than
    the bound, unless every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = before["median"]
    change = sign * (after["median"] - base) / base if base else 0.0
    spread = max(
        (cell["q3"] - cell["q1"]) / abs(cell["median"]) if cell["median"] else 0.0
        for cell in (before, after)
    )
    a_runs = [sign * value for value in before["runs"]]
    b_runs = [sign * value for value in after["runs"]]
    if max(b_runs) < min(a_runs):
        return "better", change
    if min(b_runs) > max(a_runs) and change > bound:
        return "worse", change
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change > spread and change < 0:
        return "better", change
    return "within bound", change


def compare(first: Path, second: Path) -> int:
    benchmark = load_benchmark()
    rules = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    before = json.loads(first.read_text())
    after = json.loads(second.read_text())
    worse = 0
    for name, entry in before["workloads"].items():
        other = after["workloads"].get(name)
        if other is None:
            print(f"{name}: missing from {second}")
            continue
        print(f"\n{name}")
        for metric, cell in entry["end_to_end"].items():
            rule = rules.get(metric)
            other_cell = other["end_to_end"][metric]
            if rule is None:  # failed_share: must not rise
                state = "worse" if other_cell["median"] > cell["median"] else "within bound"
                change = other_cell["median"] - cell["median"]
            else:
                state, change = verdict(cell, other_cell, rule["better"],
                                        rule["bound"])
            worse += state == "worse"
            print(f"  {metric:<22} {cell['median']:>12.6g} -> "
                  f"{other_cell['median']:>12.6g}  {change:+8.2%} worse  {state}")
    return 1 if worse else 0


# --------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="ltrbench: the commit-and-sync benchmark (see README.md)")
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="how long one run measures (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per workload in a set")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload to the set")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, traced, one round")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path)
    parser.add_argument("--out", help="where a set writes its result")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's commits per round")
    parser.add_argument("--rounds", type=int, default=0,
                        help="make exactly this many rounds, whatever --seconds "
                             f"says (default in a set: {SET_ROUNDS}, and "
                             f"{SET_TRACED_STEPS} steps in a traced run)")
    parser.add_argument("--detail", help="also write this run's record here")
    parser.add_argument("--self-test-corrupt-reader", action="store_true",
                        help=argparse.SUPPRESS)  # test_ltrbench.py: must fail
    arguments = parser.parse_args(argv)

    if arguments.compare:
        return compare(*arguments.compare)
    if arguments.workload:
        if not arguments.seconds:
            arguments.seconds = load_benchmark()["run_seconds"]
        return run_once(arguments)
    if arguments.smoke:
        arguments.repeats, arguments.traced = 1, True
        arguments.scale, arguments.rounds = 0.05, 1
    return run_set(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
