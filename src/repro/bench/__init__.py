"""Benchmark harness: experiment runners and paper-vs-measured reporting."""

from .reporting import ComparisonRow, ExperimentReport
from .scaleout import (
    check_scaleout_report,
    format_scaleout_report,
    run_scaleout,
)

__all__ = [
    "ComparisonRow",
    "ExperimentReport",
    "check_scaleout_report",
    "format_scaleout_report",
    "run_scaleout",
]
