"""Experiment harness: the code that regenerates every scenario and figure.

There is one of each: one registry (:data:`SPEC_FACTORIES` — experiment id
to :class:`~repro.engine.ScenarioSpec` factory, whose keyword defaults are
the quick profile), one runner (:func:`run_experiment`; :func:`run_all` is
a loop over it), one override table (:data:`FULL_PARAMETERS`), one artifact
format (``BENCH_<id>.json``: rows + headline + profile) and one command
line (``python -m repro.experiments``), whose ``--check`` is the
equality-or-explained gate against the committed baselines in
``benchmarks/artifacts``.
"""

from .report import EXPERIMENT_DESCRIPTIONS, render_markdown_report
from .runner import (
    FULL_PARAMETERS,
    ExperimentRun,
    check_baselines,
    load_baselines,
    render_runs,
    run_all,
    run_experiment,
)
from .scenarios import SPEC_FACTORIES

__all__ = [
    "EXPERIMENT_DESCRIPTIONS",
    "ExperimentRun",
    "FULL_PARAMETERS",
    "SPEC_FACTORIES",
    "check_baselines",
    "load_baselines",
    "render_markdown_report",
    "render_runs",
    "run_all",
    "run_experiment",
]
