"""The scenario engine runner: expand one spec, run it, collect the result.

``run_scenario`` executes one :class:`~repro.engine.spec.ScenarioSpec` and
returns a :class:`ScenarioResult` carrying the rendered
:class:`~repro.metrics.ResultTable` *and* the raw rows, so reports can be
re-generated and artifacts diffed across runs without re-simulating.  A
campaign over several specs is :func:`repro.experiments.run_all`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..metrics import ResultTable
from .spec import ParamDict, ScenarioContext, ScenarioSpec


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


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario: every grid point, every repeat, one table."""
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
