"""Measurement helpers: statistics, recovery tracking and result tables."""

from .recovery import ProbeOutcome, RecoveryTracker
from .stats import Summary, jains_fairness, percentile, summarize
from .tables import ResultTable, render_tables

__all__ = [
    "ProbeOutcome",
    "RecoveryTracker",
    "ResultTable",
    "Summary",
    "jains_fairness",
    "percentile",
    "render_tables",
    "summarize",
]
