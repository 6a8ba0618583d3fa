"""Old import path of :func:`repro.workloads.q1_style_plan`.

Kept because ``perfbench/suite.py`` imports it from here.
"""

from ..workloads import q1_style_plan  # noqa: F401
