"""Failure injection: broken operators and malformed plans must fail
loudly and leave the system usable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.engine import IntermediateCache, Simulator, execute
from repro.errors import OperatorError, ReproError
from repro.operators import Aggregate, RangePredicate, Scan, Select
from repro.operators.base import Operator, WorkProfile
from repro.plan import Plan, PlanBuilder
from repro.storage import LNG, Column


class ExplodingOperator(Operator):
    """Raises on every evaluation."""

    kind = "exploding"

    def evaluate(self, inputs):
        raise OperatorError("injected operator failure")

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_out=1)


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(4), data_scale=10.0)


def failing_plan() -> Plan:
    plan = Plan()
    boom = plan.add(ExplodingOperator())
    plan.set_outputs([boom])
    return plan


def good_plan(catalog) -> Plan:
    builder = PlanBuilder(catalog)
    return builder.build(
        builder.aggregate("count", builder.scan("facts", "val"))
    )


class TestOperatorFailures:
    def test_failure_propagates_with_message(self, config):
        with pytest.raises(OperatorError, match="injected"):
            execute(failing_plan(), config)

    def test_failure_mid_plan(self, config, small_catalog):
        builder = PlanBuilder(small_catalog)
        sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=500))
        plan = builder.build(builder.aggregate("count", sel))
        boom = plan.add(ExplodingOperator())
        plan.set_outputs([plan.outputs[0], boom])
        with pytest.raises(OperatorError):
            execute(plan, config)

    def test_simulator_usable_after_failed_submission(self, config, small_catalog):
        simulator = Simulator(config)
        simulator.submit(failing_plan())
        with pytest.raises(OperatorError):
            simulator.run()
        # A fresh simulator on the same config is unaffected.
        builder = PlanBuilder(small_catalog)
        plan = builder.build(
            builder.aggregate("count", builder.scan("facts", "val"))
        )
        result = execute(plan, config)
        assert result.outputs[0].value == len(small_catalog.table("facts"))

    def test_adaptive_driver_surfaces_operator_failure(self, config):
        from repro.core import AdaptiveParallelizer

        with pytest.raises(OperatorError):
            AdaptiveParallelizer(config).optimize(failing_plan())

    def test_memo_consistent_after_failure(self, config, small_catalog):
        memo = IntermediateCache()
        builder = PlanBuilder(small_catalog)
        sel = builder.select(
            builder.scan("facts", "val"), RangePredicate(hi=500)
        )
        plan = builder.build(builder.aggregate("count", sel))
        poisoned = plan.copy()
        poisoned.set_outputs(
            [poisoned.outputs[0], poisoned.add(ExplodingOperator())]
        )
        with pytest.raises(OperatorError):
            execute(poisoned, config, memo=memo)
        # Entries cached by the failed run replay to the exact values a
        # memo-free execution computes.
        cached = execute(plan.copy(), config, memo=memo)
        fresh = execute(plan.copy(), config)
        assert cached.outputs[0].value == fresh.outputs[0].value
        assert cached.response_time == fresh.response_time

    def test_on_failure_handler_suppresses_raise(self, config, small_catalog):
        failures: list[tuple[int, Exception]] = []
        simulator = Simulator(config)
        bad = simulator.submit(
            failing_plan(),
            on_failure=lambda sid, error: failures.append((sid, error)),
        )
        ok = simulator.submit(good_plan(small_catalog))
        simulator.run()  # does not raise: the handler took the error
        assert [sid for sid, __ in failures] == [bad]
        assert isinstance(failures[0][1], OperatorError)
        assert simulator.result(ok).outputs[0].value == len(
            small_catalog.table("facts")
        )
        with pytest.raises(OperatorError):
            simulator.result(bad)


class TestMalformedPlans:
    def test_missing_value_input_is_an_operator_error(self, config):
        col = Column("v", LNG, np.arange(10))
        plan = Plan()
        scan = plan.add(Scan(col))
        # Aggregate over a select would be fine; aggregate over the raw
        # candidates of a sum is not.
        sel = plan.add(Select(RangePredicate(hi=5)), [scan])
        bad = plan.add(Aggregate("sum"), [sel])  # sum needs values
        plan.set_outputs([bad])
        with pytest.raises(ReproError):
            execute(plan, config)

    def test_arity_violation_detected_at_execute(self, config):
        col = Column("v", LNG, np.arange(10))
        plan = Plan()
        scan = plan.add(Scan(col))
        bad = plan.add(Select(RangePredicate(hi=5)), [scan, scan, scan])
        plan.set_outputs([bad])
        with pytest.raises(ReproError):
            execute(plan, config)
