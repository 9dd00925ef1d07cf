"""The scenario engine runner: expand specs, run them, collect results.

``run_scenario`` executes one :class:`~repro.engine.spec.ScenarioSpec`;
:class:`Experiment` groups several specs (the paper's evaluation is one
``Experiment`` with scenarios E1..E20) and runs them in order.  Both emit
:class:`ScenarioResult` objects carrying the rendered
:class:`~repro.metrics.ResultTable` *and* the raw rows, so reports can be
re-generated and artifacts diffed across runs without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..metrics import ResultTable
from .spec import ParamDict, ScenarioContext, ScenarioSpec, with_parameters


@dataclass
class ScenarioResult:
    """The outcome of running one scenario spec."""

    spec: ScenarioSpec
    table: ResultTable
    rows: list[ParamDict] = field(default_factory=list)

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def to_json_dict(self) -> dict[str, Any]:
        """Machine-readable form (what the JSON artifacts contain)."""
        return {
            "scenario_id": self.spec.scenario_id,
            "title": self.spec.title,
            "description": self.spec.description,
            "seed": self.spec.seed,
            "repeats": self.spec.repeats,
            "grid": {name: list(values) for name, values in self.spec.grid.items()},
            "constants": dict(self.spec.constants),
            "columns": list(self.spec.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.spec.notes),
        }


def run_scenario(spec: ScenarioSpec, **overrides: Any) -> ScenarioResult:
    """Run one scenario: every grid point, every repeat, one table.

    ``overrides`` are applied with :func:`~repro.engine.spec.with_parameters`
    before running (convenient for quick/full parameter profiles).
    """
    if overrides:
        spec = with_parameters(spec, **overrides)
    table = ResultTable(title=spec.title, columns=list(spec.columns))
    for note in spec.notes:
        table.add_note(note)
    rows: list[ParamDict] = []
    for point in spec.grid_points():
        params = {**spec.constants, **point}
        for repeat in range(spec.repeats):
            context = ScenarioContext(
                spec=spec,
                params=params,
                repeat=repeat,
                seed=spec.context_seed(params, repeat),
            )
            produced = spec.measure(context)
            if isinstance(produced, dict):
                produced = [produced]
            for row in produced:
                row = dict(row)
                if "repeat" in spec.columns and "repeat" not in row:
                    row["repeat"] = repeat
                table.add_row(**row)
                rows.append(row)
    return ScenarioResult(spec=spec, table=table, rows=rows)


@dataclass
class Experiment:
    """A named group of scenario specs run as one campaign."""

    name: str
    specs: list[ScenarioSpec] = field(default_factory=list)
    description: str = ""

    def scenario_ids(self) -> list[str]:
        return [spec.scenario_id for spec in self.specs]

    def spec(self, scenario_id: str) -> ScenarioSpec:
        """The spec registered under ``scenario_id``."""
        for candidate in self.specs:
            if candidate.scenario_id == scenario_id:
                return candidate
        raise KeyError(
            f"unknown scenario {scenario_id!r} in experiment {self.name!r}; "
            f"known: {self.scenario_ids()}"
        )

    def run(
        self,
        *,
        only: Optional[Sequence[str]] = None,
        overrides: Optional[dict[str, dict[str, Any]]] = None,
    ) -> list[ScenarioResult]:
        """Run every spec (or the ``only`` subset) in registration order.

        ``overrides`` maps scenario id to parameter overrides for that
        scenario (applied via :func:`~repro.engine.spec.with_parameters`).
        """
        if only is not None:
            known = set(self.scenario_ids())
            unknown = [scenario_id for scenario_id in only if scenario_id not in known]
            if unknown:
                raise KeyError(
                    f"unknown scenario ids {unknown}; known: {sorted(known)}"
                )
        results = []
        for spec in self.specs:
            if only is not None and spec.scenario_id not in only:
                continue
            per_spec = (overrides or {}).get(spec.scenario_id, {})
            results.append(run_scenario(spec, **per_spec))
        return results


def render_results(results: Iterable[ScenarioResult]) -> str:
    """Aligned-text rendering of several scenario results."""
    return "\n".join(result.table.render() for result in results)
