"""Property-based tests of the chaos harness determinism contract.

Whatever seed and fault mix we throw at the system: (1) a fixed seed
gives a bit-identical fault schedule and WorkloadReport, (2) completed
results under faults and retries equal fault-free results, and (3) the
retry budget is never exceeded.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultPlan
from repro.concurrency import ClientSpec, ResilienceConfig, ResilientWorkload
from repro.config import SimulationConfig, laptop_machine
from repro.core import HeuristicParallelizer
from repro.engine import execute
from repro.errors import InjectedFaultError
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.storage import Catalog, LNG, Table


def build_catalog() -> Catalog:
    rng = np.random.default_rng(4321)
    catalog = Catalog()
    catalog.add(
        Table.from_arrays(
            "t",
            {
                "a": (LNG, rng.integers(0, 1_000, 8_000)),
                "b": (LNG, rng.integers(0, 100, 8_000)),
            },
        )
    )
    return catalog


CATALOG = build_catalog()


def build_plan():
    b = PlanBuilder(CATALOG)
    sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
    proj = b.fetch(sel, b.scan("t", "b"))
    return b.build(b.aggregate("sum", proj))


PLAN = HeuristicParallelizer(4).parallelize(build_plan())


def fault_plans() -> st.SearchStrategy[FaultPlan]:
    return st.builds(
        FaultPlan,
        operator_exception_rate=st.floats(0.0, 0.05),
        straggler_rate=st.floats(0.0, 0.2),
        straggler_slowdown=st.floats(1.0, 8.0),
        mem_pressure_rate=st.floats(0.0, 0.2),
        mem_pressure_factor=st.floats(1.0, 4.0),
        disconnect_rate=st.floats(0.0, 0.1),
    )


def run_workload(seed: int, faults: FaultPlan, *, max_retries: int = 3):
    config = SimulationConfig(
        machine=laptop_machine(4), data_scale=100.0, seed=seed
    )
    workload = ResilientWorkload(
        config,
        [ClientSpec(name=f"c{i}", plans=[PLAN]) for i in range(3)],
        horizon=0.5,
        faults=faults,
        resilience=ResilienceConfig(timeout=0.4, max_retries=max_retries),
    )
    return workload.run()


@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(seed=st.integers(0, 2**32 - 1), faults=fault_plans())
def test_same_seed_same_schedule_and_report(seed, faults):
    first = run_workload(seed, faults)
    second = run_workload(seed, faults)
    assert first.fault_schedule == second.fault_schedule
    assert first.as_dict() == second.as_dict()


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    straggler=st.floats(0.0, 0.4),
    spike=st.floats(0.0, 0.4),
)
def test_timing_faults_preserve_results(seed, straggler, spike):
    config = SimulationConfig(
        machine=laptop_machine(4), data_scale=100.0, seed=seed
    )
    clean = execute(PLAN.copy(), config)
    faults = FaultPlan(
        straggler_rate=straggler,
        straggler_slowdown=8.0,
        mem_pressure_rate=spike,
        mem_pressure_factor=4.0,
    )
    chaotic = execute(PLAN.copy(), config, faults=faults)
    assert chaotic.outputs[0].value == clean.outputs[0].value
    assert chaotic.response_time >= clean.response_time


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(seed=st.integers(0, 2**32 - 1))
def test_exception_faults_with_retry_preserve_results(seed):
    config = SimulationConfig(
        machine=laptop_machine(4), data_scale=100.0, seed=seed
    )
    clean = execute(PLAN.copy(), config)
    injector = FaultInjector(
        FaultPlan(operator_exception_rate=0.02), seed=seed
    )
    # Retry until a run survives the injector's exception stream; the
    # rate makes success overwhelmingly likely within the bound.
    for __ in range(50):
        try:
            survived = execute(PLAN.copy(), config, faults=injector)
            break
        except InjectedFaultError:
            continue
    else:
        raise AssertionError("no execution survived a 2% exception rate")
    assert survived.outputs[0].value == clean.outputs[0].value


@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_retries=st.integers(0, 3),
)
def test_retries_never_exceed_bound(seed, max_retries):
    faults = FaultPlan(
        operator_exception_rate=0.05,
        straggler_rate=0.1,
        disconnect_rate=0.1,
    )
    report = run_workload(seed, faults, max_retries=max_retries)
    # Every query resolves as completed, disconnected, or abandoned,
    # and each consumed at most ``max_retries`` retries.
    resolved = report.completed() + report.disconnects + report.abandoned
    assert report.retries <= max_retries * max(resolved, 1)
    if max_retries == 0:
        assert report.retries == 0
        assert report.shed_dop == 0
