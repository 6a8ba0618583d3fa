"""The resilient workload service under injected chaos.

Closed-loop clients with stragglers, crashes, and disconnects: the
service's disciplines (timeout, bounded retry with backoff, DOP
shedding, admission control) must keep the workload healthy --
throughput degrades gracefully with the fault rate, in-flight work
stays bounded, and no client starves.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan
from repro.concurrency import ClientSpec, ResilienceConfig, ResilientWorkload
from repro.concurrency.service import backoff
from repro.config import SimulationConfig, laptop_machine
from repro.core import HeuristicParallelizer
from repro.errors import ReproError
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.storage import Catalog, LNG, Table


@pytest.fixture()
def catalog(rng) -> Catalog:
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            "t",
            {
                "a": (LNG, rng.integers(0, 1000, 20_000)),
                "b": (LNG, rng.integers(0, 100, 20_000)),
            },
        )
    )
    return cat


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(8), data_scale=300.0, seed=11)


@pytest.fixture()
def plan(catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
    proj = b.fetch(sel, b.scan("t", "b"))
    return HeuristicParallelizer(4).parallelize(
        b.build(b.aggregate("sum", proj))
    )


def run_workload(
    config,
    plan,
    *,
    faults=None,
    resilience=None,
    clients=6,
    horizon=2.0,
    max_in_flight=None,
):
    workload = ResilientWorkload(
        config,
        [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(clients)],
        horizon=horizon,
        faults=faults,
        resilience=resilience,
        max_in_flight=max_in_flight,
    )
    return workload.run()


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            ResilienceConfig(timeout=0.0)
        with pytest.raises(ReproError):
            ResilienceConfig(max_retries=-1)

    def test_backoff_is_exponential(self):
        assert backoff(0) == pytest.approx(0.02)
        assert backoff(1) == pytest.approx(0.04)
        assert backoff(3) == pytest.approx(0.16)


class TestResilientWorkload:
    def test_fault_free_matches_plain_closed_loop_shape(self, config, plan):
        report = run_workload(config, plan)
        assert report.completed() > 0
        assert report.faults_injected == 0
        assert report.retries == 0
        assert report.fault_schedule == ()

    def test_throughput_degrades_monotonically_with_fault_rate(
        self, config, plan
    ):
        def chaos(scale: float) -> FaultPlan | None:
            if scale == 0.0:
                return None
            return FaultPlan(
                operator_exception_rate=0.01 * scale,
                straggler_rate=0.05 * scale,
                straggler_slowdown=8.0,
                mem_pressure_rate=0.03 * scale,
                mem_pressure_factor=4.0,
                disconnect_rate=0.03 * scale,
            )

        throughputs = [
            run_workload(config, plan, faults=chaos(scale)).throughput()
            for scale in (0.0, 1.0, 3.0)
        ]
        assert throughputs[0] > 0
        # Graceful degradation: more chaos, no more throughput (small
        # tolerance for discrete completion-count effects).
        assert throughputs[1] <= throughputs[0] * 1.05
        assert throughputs[2] <= throughputs[1] * 1.05

    def test_admission_control_bounds_in_flight(self, config, plan):
        report = run_workload(
            config,
            plan,
            clients=8,
            max_in_flight=3,
        )
        assert report.peak_in_flight <= 3
        # Eight closed-loop clients against three slots must queue.
        assert report.admission_waits > 0
        assert report.peak_queue_depth > 0
        assert report.completed() > 0

    def test_no_client_starves_under_chaos(self, config, plan):
        faults = FaultPlan(
            operator_exception_rate=0.01,
            straggler_rate=0.08,
            straggler_slowdown=6.0,
            disconnect_rate=0.05,
        )
        report = run_workload(
            config,
            plan,
            clients=8,
            faults=faults,
            resilience=ResilienceConfig(timeout=1.0),
            max_in_flight=3,
        )
        for i in range(8):
            assert report.completed(f"c{i}") > 0, f"client c{i} starved"

    def test_timeouts_and_shedding_are_counted(self, config, plan):
        faults = FaultPlan(straggler_rate=0.3, straggler_slowdown=8.0)
        report = run_workload(
            config,
            plan,
            faults=faults,
            resilience=ResilienceConfig(timeout=0.12, max_retries=2),
        )
        assert report.timeouts > 0
        assert report.retries > 0
        # Retrying sheds DOP while the plan still has threads to shed.
        assert report.shed_dop > 0
        # Even with aggressive timeouts some queries finish in time.
        assert report.completed() > 0

    def test_run_is_repeatable(self, config, plan):
        faults = FaultPlan(straggler_rate=0.1, disconnect_rate=0.05)
        workload = ResilientWorkload(
            config,
            [ClientSpec(name="c0", plans=[plan]), ClientSpec(name="c1", plans=[plan])],
            horizon=1.0,
            faults=faults,
        )
        assert workload.run().as_dict() == workload.run().as_dict()

    def test_rejects_bad_arguments(self, config, plan):
        with pytest.raises(ReproError):
            ResilientWorkload(config, [], horizon=1.0)
        with pytest.raises(ReproError):
            ResilientWorkload(
                config,
                [ClientSpec(name="c0", plans=[plan])],
                horizon=0.0,
            )
        with pytest.raises(ReproError):
            ResilientWorkload(
                config,
                [ClientSpec(name="c0", plans=[plan])],
                horizon=1.0,
                max_in_flight=0,
            )

    def test_percentiles_available(self, config, plan):
        report = run_workload(config, plan, horizon=1.0)
        assert 0 < report.p50_response <= report.p99_response
