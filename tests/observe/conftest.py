"""Shared scenario builders for the observability suite.

Two canonical scenarios mirror the acceptance criteria: a TPC-H
Q1-style single execution (scan-heavy reporting shape) and a Figure-15
join-micro *adaptive instance* (runs + mutations + memoization on one
timeline).  Both are pure functions of the seed, so their canonical
exports are byte-stable across machines -- that is what the golden
fixtures assert.
"""

from __future__ import annotations

import pytest

from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.engine import execute
from repro.observe import Observer
from repro.workloads import JoinMicroWorkload, TpchDataset, q1_style_plan

#: Adaptive-run cap for the join-micro scenario: enough runs to cover
#: mutations and memo hits; small enough for CI.
JOIN_MAX_RUNS = 5


@pytest.fixture(scope="session")
def tpch_sf1() -> TpchDataset:
    return TpchDataset(scale_factor=1)


def observe_q1(dataset: TpchDataset, *, host_time: bool = False) -> Observer:
    """One traced execution of the Q1-style plan."""
    observer = Observer(host_time=host_time)
    execute(q1_style_plan(dataset), dataset.sim_config(), trace=observer)
    observer.finish()
    return observer


def observe_join_adaptive(
    *,
    memoize: bool = True,
    faults=None,
) -> Observer:
    """One traced adaptive instance over the join micro-benchmark."""
    workload = JoinMicroWorkload(outer_mb=16, inner_mb=4)
    config = workload.sim_config()
    observer = Observer()
    parallelizer = AdaptiveParallelizer(
        config,
        convergence=ConvergenceParams(
            number_of_cores=config.effective_threads, max_runs=JOIN_MAX_RUNS
        ),
        memoize=memoize,
        faults=faults,
        observe=observer,
    )
    try:
        parallelizer.optimize(workload.plan())
    finally:
        parallelizer.close()
    observer.finish()
    return observer
