"""Machine-readable experiment artifacts.

Every engine run can be snapshotted as one JSON file per scenario, so the
trajectory of the reproduction is diffable across commits
(``python -m repro.experiments --artifacts DIR`` writes the committed
``BENCH_<id>.json`` baselines this way) and reports can be re-rendered
without re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .runner import ScenarioResult


def headline_metrics(result: ScenarioResult) -> dict[str, float]:
    """Aggregate headline numbers for a scenario (perf-trajectory tracking).

    Every numeric column whose name mentions a latency, hop count, attempt
    or validation/retrieval count is averaged over the rows; booleans named
    like correctness flags are reported as a fraction.
    """
    interesting = ("latency", "hops", "attempts", "retrieved", "validated",
                   "fairness", "fraction", "hit", "per_sec", "rss", "messages")
    metrics: dict[str, float] = {}
    for column in result.spec.columns:
        if not any(tag in column for tag in interesting):
            continue
        values = [row[column] for row in result.rows]
        numeric = [float(value) for value in values
                   if isinstance(value, (int, float)) and not isinstance(value, bool)]
        if numeric:
            metrics[f"mean_{column}"] = sum(numeric) / len(numeric)
    flags = [column for column in result.spec.columns
             if any(row.get(column) is True or row.get(column) is False
                    for row in result.rows)]
    for column in flags:
        values = [row[column] for row in result.rows if isinstance(row[column], bool)]
        if values:
            metrics[f"fraction_{column}"] = sum(1 for value in values if value) / len(values)
    return metrics


def write_artifact(
    result: ScenarioResult,
    directory: Union[str, Path],
    *,
    prefix: str = "",
    profile: Optional[str] = None,
) -> Path:
    """Write one scenario's JSON artifact; returns the file path.

    The payload is the result's rows and spec plus the ``headline``
    aggregates; ``profile`` (when given) records which parameter profile
    produced it, so a gate can refuse to compare across profiles.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    payload = result.to_json_dict()
    payload["headline"] = headline_metrics(result)
    if profile is not None:
        payload["profile"] = profile
    path = target / f"{prefix}{result.scenario_id}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


def read_artifact(path: Union[str, Path]) -> dict[str, Any]:
    """Load a previously written artifact."""
    return json.loads(Path(path).read_text())
