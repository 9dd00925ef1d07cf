"""Report generation: turn experiment runs into an EXPERIMENTS.md-style document."""

from __future__ import annotations

from typing import Sequence

from ..engine import ScenarioResult


def render_markdown_report(results: Sequence[ScenarioResult], *,
                           title: str = "Experiment results") -> str:
    """Render results as a markdown document (tables + spec descriptions)."""
    lines = [f"# {title}", ""]
    for result in results:
        spec = result.spec
        title = result.table.title
        if title.startswith(f"{result.scenario_id} "):
            title = title[len(result.scenario_id) + 1:]
        lines.append(f"## {result.scenario_id} — {title}")
        if spec.description:
            lines.append("")
            lines.append(spec.description)
        # The parameters in force, read off the spec that ran: swept axes
        # (tuples) and constants, whatever profile or override set them.
        parameters = {**{name: tuple(values) for name, values in spec.grid.items()},
                      **spec.constants}
        if parameters:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(parameters.items()))
            lines.append("")
            lines.append(f"Parameters: `{rendered}`")
        lines.append("")
        lines.append(result.table.to_markdown())
        for note in result.table.notes:
            lines.append(f"*{note}*")
            lines.append("")
    return "\n".join(lines)
