"""Command-line entry point: run experiments, print tables, snapshot, gate.

Usage::

    python -m repro.experiments                   # quick profile, all of E1..E20
    python -m repro.experiments --full            # paper-scale parameters (slower)
    python -m repro.experiments E2 E3             # only selected experiments
    python -m repro.experiments --markdown --output EXPERIMENTS.md
    python -m repro.experiments --artifacts out/  # also write BENCH_<id>.json
    python -m repro.experiments --check benchmarks/artifacts   # the gate

``--check DIR`` re-runs the quick profile of every experiment that has a
``BENCH_<id>.json`` baseline in DIR (or of the ids named) and exits 1 when
a deterministic headline or a ``fraction_*`` correctness flag differs from
the baseline; host-dependent headlines are printed, not compared.
Re-baseline on purpose with ``--artifacts DIR`` and explain the diff.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .report import render_markdown_report
from .runner import check_baselines, load_baselines, render_runs, run_all


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiments; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (default: all of E1..E20)")
    parser.add_argument("--full", action="store_true",
                        help="use the slower, paper-scale parameters")
    parser.add_argument("--markdown", action="store_true",
                        help="render the results as a markdown report")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the rendering to PATH instead of stdout")
    parser.add_argument("--artifacts", metavar="DIR", default=None,
                        help="also write one BENCH_<id>.json artifact per experiment to DIR")
    parser.add_argument("--check", metavar="DIR", default=None,
                        help="compare headlines with the BENCH_<id>.json baselines in DIR")
    arguments = parser.parse_args(argv)
    if arguments.check and arguments.full:
        parser.error("--check re-runs the quick profile; it cannot be combined with --full")

    only = arguments.experiments or None
    try:
        baselines = load_baselines(arguments.check, only) if arguments.check else None
        if baselines is not None:
            only = list(baselines)
        runs = run_all(quick=not arguments.full, only=only,
                       artifacts_dir=arguments.artifacts)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if arguments.markdown:
        rendering = render_markdown_report(runs)
    else:
        rendering = render_runs(runs)
    if arguments.output:
        Path(arguments.output).write_text(rendering + "\n")
        print(f"wrote {arguments.output}")
    else:
        print(rendering)
    if baselines is None:
        return 0
    report, failures = check_baselines(runs, baselines)
    print(report)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    sys.exit(main())
