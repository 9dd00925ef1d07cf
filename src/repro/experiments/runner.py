"""Experiment runner: one way to run an experiment, and the gate over it.

:func:`run_experiment` instantiates one registered spec factory
(:data:`~repro.experiments.scenarios.SPEC_FACTORIES`) and runs it through
the engine; :func:`run_all` is a loop over it that can also snapshot one
``BENCH_<id>.json`` artifact per experiment; ``python -m repro.experiments``
is the command line over both.  The factories' keyword defaults are the
quick profile; :data:`FULL_PARAMETERS` is the only override table.

:func:`check_baselines` is the gate: it compares fresh quick-profile runs
with committed artifacts, *equality-or-explained* — simulated-clock values
and counts repeat exactly, so any deterministic headline that moves is a
behavioural change and must be re-baselined on purpose (``--artifacts``
into the baseline directory, the diff explained in the PR).  Host-dependent
headlines are printed, never compared: wall-clock claims belong to
``benchmarks/ltrbench`` pairs, not to single-shot fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..engine import (
    ScenarioResult,
    ScenarioSpec,
    headline_metrics,
    read_artifact,
    run_scenario,
    write_artifact,
)
from ..metrics import ResultTable, render_tables
from .scenarios import SPEC_FACTORIES

#: Parameters closer to the paper's demonstration scale (slower), applied
#: over the spec factories' keyword defaults (which are the quick profile).
FULL_PARAMETERS: dict[str, dict] = {
    "E1": {"peer_counts": (8, 16, 32, 64), "documents": 64, "updates_per_document": 3},
    "E2": {"updater_counts": (2, 4, 8, 16), "peers": 24},
    "E3": {"events": ("leave", "crash", "leave", "crash"), "peers": 16},
    "E4": {"joiners": 4, "peers": 12, "documents": 32},
    "E5": {"peer_counts": (8, 16, 32), "latency_presets": ("lan", "campus", "wan"),
           "commits_per_setting": 10},
    "E6": {"updater_counts": (2, 4, 8), "peers": 16},
    "E7": {"replication_factors": (1, 2, 3, 4), "crashed_log_peers": 2, "peers": 16,
           "entries": 12},
    "E8": {"peer_counts": (8, 16, 32, 64), "lookups": 40, "hot_lookups": 16},
    "E9": {"zipf_exponents": (0.0, 0.8, 1.5, 2.5), "peers": 16, "documents": 24,
           "waves": 8, "writers_per_wave": 4},
    "E10": {"profiles": ("stable", "gentle", "aggressive"), "peers": 14,
            "duration": 30.0, "commit_interval": 1.0},
    "E11": {"batch_sizes": (1, 2, 4, 8, 16, 32), "peers": 16, "edits": 96},
    "E12": {"histories": (64, 128, 256), "peers": 12, "checkpoint_interval": 32},
    "E13": {"editor_counts": (2, 4, 8), "peers": 16, "edits": 200},
    "E14": {"partition_durations": (2.0, 4.0, 8.0), "edit_intervals": (0.5, 1.0),
            "peers": 12, "converge_budget": 25.0},
    "E15": {"restart_delays": (2.0, 5.0, 8.0), "load_intervals": (0.5, 1.0),
            "peers": 12, "tail": 6.0},
    "E16": {"process_counts": (3, 5), "peers_per_process": 2, "commits": 48},
    "E17": {"misbehaviors": ("drop", "corrupt", "replay", "equivocate"),
            "rates": (0.25, 0.5, 1.0), "peers": 12, "probes": 16},
    "E18": {"peer_counts": (1000, 10000, 100000), "lookups": 1000, "documents": 256},
    "E19": {"recoveries": ("durable", "amnesiac"), "peers": 12, "edits": 48,
            "converge_budget": 40.0},
    "E20": {"peer_counts": (1000, 3000, 10000), "batches": (16, 1),
            "edits": 256, "probes": 32},
}

#: Experiments whose every metric is wall-clock-dependent (live backends).
WALL_CLOCK_EXPERIMENTS = frozenset({"E13", "E16"})

#: Headline-name fragments marking a metric as host-machine-dependent.
WALL_CLOCK_TAGS = ("wall", "per_sec", "per_s", "rss")


@dataclass
class ExperimentRun:
    """The outcome of running one experiment."""

    result: ScenarioResult

    @property
    def experiment_id(self) -> str:
        return self.result.scenario_id

    @property
    def table(self) -> ResultTable:
        return self.result.table


def _require_known(experiment_ids: Sequence[str]) -> None:
    """Raise :class:`KeyError` naming every id that is not registered."""
    unknown = [experiment_id for experiment_id in experiment_ids
               if experiment_id not in SPEC_FACTORIES]
    if unknown:
        raise KeyError(
            f"unknown experiment ids {unknown}; known: {list(SPEC_FACTORIES)}"
        )


def _spec(experiment_id: str, quick: bool, overrides: Optional[dict] = None) -> ScenarioSpec:
    """The registered spec at the quick or full profile, overrides on top."""
    _require_known([experiment_id])
    parameters = {} if quick else dict(FULL_PARAMETERS.get(experiment_id, {}))
    parameters.update(overrides or {})
    return SPEC_FACTORIES[experiment_id](**parameters)


def run_experiment(experiment_id: str, *, quick: bool = True,
                   overrides: Optional[dict] = None) -> ExperimentRun:
    """Run one experiment by id (``"E1"`` .. ``"E20"``).

    ``quick`` selects the profile (factory defaults, or
    :data:`FULL_PARAMETERS` over them); ``overrides`` are factory keyword
    arguments applied last.  Unknown ids raise :class:`KeyError`.
    """
    return ExperimentRun(run_scenario(_spec(experiment_id, quick, overrides)))


def run_all(
    *,
    quick: bool = True,
    only: Optional[Sequence[str]] = None,
    artifacts_dir: Optional[Union[str, Path]] = None,
) -> list[ExperimentRun]:
    """Run every experiment (or the subset in ``only``), in registry order.

    Unknown ids in ``only`` raise :class:`KeyError` before anything runs.
    When ``artifacts_dir`` is given, one ``BENCH_<id>.json`` artifact per
    experiment (rows + headline + profile) is written there.
    """
    if only is not None:
        _require_known(only)
    runs = [
        run_experiment(experiment_id, quick=quick)
        for experiment_id in SPEC_FACTORIES
        if only is None or experiment_id in only
    ]
    if artifacts_dir is not None:
        for run in runs:
            write_artifact(run.result, artifacts_dir, prefix="BENCH_",
                           profile="quick" if quick else "full")
    return runs


def render_runs(runs: Sequence[ExperimentRun]) -> str:
    """Human-readable rendering of a list of experiment runs."""
    return render_tables([run.table for run in runs])


# ------------------------------------------------------------------ gate --


def load_baselines(directory: Union[str, Path],
                   only: Optional[Sequence[str]] = None) -> dict[str, dict]:
    """The committed ``BENCH_<id>.json`` payloads the gate compares against.

    Every baseline in ``directory`` (or the ``only`` subset), keyed by
    experiment id.  Raises :class:`KeyError` for an id that is not a
    registered experiment or has no baseline file, and :class:`ValueError`
    for a baseline that was not snapshotted with the quick profile (the
    gate re-runs quick parameters, so comparing would be meaningless).
    """
    available = {
        path.stem.removeprefix("BENCH_"): path
        for path in Path(directory).glob("BENCH_*.json")
    }
    selected = list(only) if only else list(available)
    _require_known(selected)
    missing = [experiment_id for experiment_id in selected
               if experiment_id not in available]
    if missing or not selected:
        raise KeyError(
            f"no committed baseline for {missing or 'any experiment'} in {directory}; "
            f"snapshot one with --artifacts {directory}"
        )
    baselines = {}
    for experiment_id in selected:
        payload = read_artifact(available[experiment_id])
        if payload.get("profile") != "quick":
            raise ValueError(
                f"{available[experiment_id]} was snapshotted with the "
                f"{payload.get('profile')!r} profile; the gate re-runs the quick "
                f"profile, so refresh it without --full"
            )
        baselines[experiment_id] = payload
    return baselines


def host_dependent(experiment_id: str, metric: str) -> bool:
    """Whether a headline is measured in host seconds or host memory.

    ``fraction_*`` correctness flags never are: a live run's invariants must
    hold on every host.
    """
    if metric.startswith("fraction_"):
        return False
    return (experiment_id in WALL_CLOCK_EXPERIMENTS
            or any(tag in metric for tag in WALL_CLOCK_TAGS))


def compare_headlines(experiment_id: str, baseline: dict[str, float],
                      fresh: dict[str, float]) -> tuple[list[str], list[str]]:
    """``(problems, notes)`` for one experiment's headline metrics.

    A metric present on one side only is a problem whatever its kind; a
    deterministic metric (and every ``fraction_*`` flag) must be *equal* to
    its baseline; a host-dependent metric is reported as a note.
    """
    problems: list[str] = []
    notes: list[str] = []
    for metric in sorted(set(baseline) | set(fresh)):
        if metric not in fresh:
            problems.append(f"{experiment_id}: metric {metric!r} disappeared "
                            f"(baseline {baseline[metric]!r})")
        elif metric not in baseline:
            problems.append(f"{experiment_id}: new metric {metric!r} has no "
                            f"committed baseline (got {fresh[metric]!r})")
        elif host_dependent(experiment_id, metric):
            notes.append(f"{experiment_id}: {metric} = {fresh[metric]!r} on this host "
                         f"(baseline {baseline[metric]!r}, not compared)")
        elif fresh[metric] != baseline[metric]:
            problems.append(f"{experiment_id}: {metric} = {fresh[metric]!r} differs "
                            f"from baseline {baseline[metric]!r}")
    return problems, notes


def check_baselines(runs: Sequence[ExperimentRun],
                    baselines: dict[str, dict]) -> tuple[str, int]:
    """Compare quick-profile ``runs`` with their baselines.

    Returns the gate report and the number of problems (0 = passed).
    """
    lines: list[str] = []
    failures = 0
    for run in runs:
        baseline = baselines[run.experiment_id]["headline"]
        problems, notes = compare_headlines(
            run.experiment_id, baseline, headline_metrics(run.result)
        )
        status = "FAIL" if problems else "ok"
        lines.append(f"{run.experiment_id}: {status} ({len(baseline)} metrics)")
        lines.extend(f"  {line}" for line in problems + notes)
        failures += len(problems)
    if failures:
        lines.append(f"gate FAILED: {failures} headline(s) differ from the committed "
                     f"baselines (re-baseline with --artifacts if intended, and "
                     f"explain the diff)")
    else:
        lines.append(f"gate passed: {len(runs)} experiment(s) match their baselines")
    return "\n".join(lines), failures
