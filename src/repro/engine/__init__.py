"""The declarative scenario/experiment engine.

Instead of hand-building rings, loops and tables, an experiment declares a
:class:`ScenarioSpec` — topology, parameter grid, repeat count, measurement
callback — and the engine does the sweeping, seeding, tabulation and
artifact writing.  ``repro.experiments`` defines E1..E20 (the paper's
scenarios plus extensions) as specs over this engine; examples and one-off
studies can declare their own in a few lines.
"""

from .artifacts import headline_metrics, read_artifact, write_artifact
from .runner import Experiment, ScenarioResult, render_results, run_scenario
from .spec import (
    EXPERIMENT_CHORD_CONFIG,
    NemesisFn,
    ParamDict,
    ScenarioContext,
    ScenarioSpec,
    Topology,
    resolve_latency,
    with_parameters,
)

__all__ = [
    "EXPERIMENT_CHORD_CONFIG",
    "Experiment",
    "NemesisFn",
    "ParamDict",
    "ScenarioContext",
    "ScenarioResult",
    "ScenarioSpec",
    "Topology",
    "headline_metrics",
    "read_artifact",
    "render_results",
    "resolve_latency",
    "run_scenario",
    "with_parameters",
    "write_artifact",
]
