"""The declarative scenario engine.

Instead of hand-building rings, loops and tables, an experiment declares a
:class:`ScenarioSpec` — parameter grid, repeat count, measurement
callback — and :func:`run_scenario` does the sweeping, seeding and
tabulation into one :class:`ScenarioResult`, which
:func:`write_artifact` snapshots as JSON.  ``repro.experiments`` defines
E1..E20 (the paper's scenarios plus extensions) as spec factories over this
engine and is the one campaign runner; examples and one-off studies can
declare their own specs in a few lines.
"""

from .artifacts import headline_metrics, read_artifact, write_artifact
from .runner import ScenarioResult, run_scenario
from .spec import (
    ParamDict,
    ScenarioContext,
    ScenarioSpec,
    resolve_latency,
)

__all__ = [
    "ParamDict",
    "ScenarioContext",
    "ScenarioResult",
    "ScenarioSpec",
    "headline_metrics",
    "read_artifact",
    "resolve_latency",
    "run_scenario",
    "write_artifact",
]
