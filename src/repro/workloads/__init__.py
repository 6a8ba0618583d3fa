"""Workloads: TPC-H-like, TPC-DS-like, and operator micro-benchmarks."""

from .generator import (
    choice_strings,
    clustered_skew,
    sequential_keys,
    uniform_dates,
    uniform_ints,
    zipf_ints,
)
from .micro import (
    JoinMicroWorkload,
    SelectMicroWorkload,
    SkewedSelectWorkload,
    join_micro_workload,
    select_micro_workload,
    skewed_select_workload,
)
from .tpcds import ALL_DS_QUERIES, TpcdsDataset
from .tpch import (
    ALL_QUERIES,
    COMPLEX_QUERIES,
    SIMPLE_QUERIES,
    TpchDataset,
    q1_style_plan,
)

__all__ = [
    "ALL_DS_QUERIES",
    "ALL_QUERIES",
    "COMPLEX_QUERIES",
    "JoinMicroWorkload",
    "SIMPLE_QUERIES",
    "SelectMicroWorkload",
    "SkewedSelectWorkload",
    "TpcdsDataset",
    "TpchDataset",
    "choice_strings",
    "clustered_skew",
    "join_micro_workload",
    "q1_style_plan",
    "select_micro_workload",
    "sequential_keys",
    "skewed_select_workload",
    "uniform_dates",
    "uniform_ints",
    "zipf_ints",
]
