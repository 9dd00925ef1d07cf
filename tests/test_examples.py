"""The four simulated examples run clean, with stdout captured.

The examples are the scenario engine's callers outside the package
(``ScenarioSpec``, ``run_scenario``), so each is executed as a
script, the way a reader runs it, and its printed verdict is checked.
``examples/live_wiki.py`` runs on the wall-clock asyncio backend and is left
to its own ``--quick`` invocation.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Example script -> a line its printout must contain.
VERDICTS = {
    "quickstart": "log continuous: True; replicas converged: True",
    "churn_tolerance": "fresh-peer -> ts=6 (sequence continues without a gap)",
    "collaborative_wiki": "page now has 4 revisions",
    "baseline_showdown": "P2P-LTR   : kept all 5 contributions=True, "
                         "survives coordinator crash=True",
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_example_runs_and_prints_its_verdict(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert VERDICTS[name] in out
