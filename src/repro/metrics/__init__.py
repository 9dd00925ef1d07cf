"""Measurement helpers: statistics, collectors and result tables."""

from .collector import MetricsCollector
from .recovery import ProbeOutcome, RecoveryTracker
from .stats import Summary, jains_fairness, percentile, summarize
from .tables import ResultTable, render_tables

__all__ = [
    "MetricsCollector",
    "ProbeOutcome",
    "RecoveryTracker",
    "ResultTable",
    "Summary",
    "jains_fairness",
    "percentile",
    "render_tables",
    "summarize",
]
