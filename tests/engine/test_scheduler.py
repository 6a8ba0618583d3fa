"""The discrete-event scheduler: data-flow execution, contention, DOP caps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NoiseConfig, SimulationConfig, laptop_machine
from repro.core.heuristic import HeuristicParallelizer
from repro.engine import EvalFailure, Simulator, execute, settle_job
from repro.errors import OperatorError, SchedulerError
from repro.operators import Aggregate, Fetch, RangePredicate, Scan, Select
from repro.operators.base import Operator, WorkProfile
from repro.plan import Plan, PlanBuilder
from repro.storage import LNG, Catalog, Column, Scalar, Table


def pipeline_plan(catalog: Catalog) -> Plan:
    builder = PlanBuilder(catalog)
    sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=500))
    proj = builder.fetch(sel, builder.scan("facts", "qty"))
    return builder.build(builder.aggregate("sum", proj))


def expected_sum(catalog: Catalog) -> int:
    facts = catalog.table("facts")
    mask = facts.column("val").values <= 500
    return int(facts.column("qty").values[mask].sum())


class TestExecution:
    def test_result_matches_numpy(self, small_catalog, sim_config):
        result = execute(pipeline_plan(small_catalog), sim_config)
        assert result.outputs[0].value == expected_sum(small_catalog)

    def test_response_time_positive_and_finite(self, small_catalog, sim_config):
        result = execute(pipeline_plan(small_catalog), sim_config)
        assert 0 < result.response_time < 1e6

    def test_profile_has_record_per_node(self, small_catalog, sim_config):
        plan = pipeline_plan(small_catalog)
        result = execute(plan, sim_config)
        assert len(result.profile.records) == len(plan.nodes())

    def test_profile_intervals_within_span(self, small_catalog, sim_config):
        result = execute(pipeline_plan(small_catalog), sim_config)
        profile = result.profile
        for record in profile.records:
            assert profile.submit_time <= record.start <= record.end
            assert record.end <= profile.finish_time + 1e-9

    def test_dataflow_ordering(self, small_catalog, sim_config):
        """A consumer may not start before its producers finish."""
        plan = pipeline_plan(small_catalog)
        result = execute(plan, sim_config)
        finish = {r.node.nid: r.end for r in result.profile.records}
        start = {r.node.nid: r.start for r in result.profile.records}
        for node in plan.nodes():
            for child in node.inputs:
                assert start[node.nid] >= finish[child.nid] - 1e-9

    def test_deterministic_across_runs(self, small_catalog, sim_config):
        t1 = execute(pipeline_plan(small_catalog), sim_config).response_time
        t2 = execute(pipeline_plan(small_catalog), sim_config).response_time
        assert t1 == t2

    def test_unfinished_result_rejected(self, small_catalog, sim_config):
        sim = Simulator(sim_config)
        sid = sim.submit(pipeline_plan(small_catalog))
        with pytest.raises(SchedulerError):
            sim.result(sid)


class TestParallelismEffects:
    def _column_catalog(self) -> Catalog:
        rng = np.random.default_rng(7)
        catalog = Catalog()
        catalog.add(
            Table.from_arrays(
                "facts",
                {
                    "val": (LNG, rng.integers(0, 1000, 100_000)),
                    "qty": (LNG, rng.integers(0, 10, 100_000)),
                },
            )
        )
        return catalog

    def test_parallel_plan_is_faster(self):
        catalog = self._column_catalog()
        config = SimulationConfig(machine=laptop_machine(8), data_scale=1000.0)
        serial = execute(pipeline_plan(catalog), config)
        parallel_plan = HeuristicParallelizer(8).parallelize(pipeline_plan(catalog))
        parallel = execute(parallel_plan, config)
        assert parallel.response_time < serial.response_time
        assert parallel.outputs[0].value == serial.outputs[0].value

    def test_dop_cap_limits_threads(self):
        catalog = self._column_catalog()
        config = SimulationConfig(machine=laptop_machine(8), data_scale=1000.0)
        plan = HeuristicParallelizer(8).parallelize(pipeline_plan(catalog))
        capped = execute(plan, config.with_threads(2))
        assert capped.profile.threads_used() <= 2
        free = execute(plan, config)
        assert free.response_time < capped.response_time

    def test_speedup_saturates_with_bandwidth(self):
        """Memory-bound work stops scaling once the socket saturates."""
        catalog = self._column_catalog()
        config = SimulationConfig(machine=laptop_machine(16), data_scale=2000.0)
        times = {}
        for dop in (1, 4, 16):
            plan = HeuristicParallelizer(dop).parallelize(pipeline_plan(catalog))
            times[dop] = execute(plan, config.with_threads(dop)).response_time
        speedup_4 = times[1] / times[4]
        speedup_16 = times[1] / times[16]
        assert speedup_4 > 2.0
        # Far from linear at 16 threads: bandwidth roofline bites.
        assert speedup_16 < 12.0

    def test_concurrent_submissions_share_the_machine(self):
        catalog = self._column_catalog()
        config = SimulationConfig(machine=laptop_machine(8), data_scale=1000.0)
        plan = HeuristicParallelizer(8).parallelize(pipeline_plan(catalog))
        solo = execute(plan, config).response_time

        sim = Simulator(config)
        sids = [sim.submit(plan.copy()) for __ in range(4)]
        sim.run()
        times = [sim.result(sid).response_time for sid in sids]
        assert max(times) > solo  # contention slows somebody down
        for sid in sids:
            value = sim.result(sid).outputs[0].value
            assert value == expected_sum(catalog)


class TestNoise:
    def test_noise_changes_times_not_results(self, small_catalog):
        base = SimulationConfig(machine=laptop_machine(8), data_scale=100.0)
        noisy = base.with_noise(NoiseConfig(jitter=0.2))
        clean = execute(pipeline_plan(small_catalog), base)
        jittered = execute(pipeline_plan(small_catalog), noisy)
        assert clean.outputs[0].value == jittered.outputs[0].value
        assert clean.response_time != jittered.response_time

    def test_noise_deterministic_per_seed(self, small_catalog):
        config = SimulationConfig(
            machine=laptop_machine(8),
            data_scale=100.0,
            noise=NoiseConfig(jitter=0.2, peak_probability=0.1, peak_magnitude=5.0),
        )
        t1 = execute(pipeline_plan(small_catalog), config).response_time
        t2 = execute(pipeline_plan(small_catalog), config).response_time
        assert t1 == t2

    def test_different_seeds_differ(self, small_catalog):
        config = SimulationConfig(
            machine=laptop_machine(8),
            data_scale=100.0,
            noise=NoiseConfig(jitter=0.2),
        )
        t1 = execute(pipeline_plan(small_catalog), config).response_time
        t2 = execute(pipeline_plan(small_catalog), config.with_seed(99)).response_time
        assert t1 != t2


class TestProfileMetrics:
    def test_utilization_bounds(self, small_catalog, sim_config):
        result = execute(pipeline_plan(small_catalog), sim_config)
        util = result.profile.multicore_utilization(8)
        assert 0.0 < util <= 1.0

    def test_time_by_kind_sums_to_busy_time(self, small_catalog, sim_config):
        profile = execute(pipeline_plan(small_catalog), sim_config).profile
        assert sum(profile.time_by_kind().values()) == pytest.approx(
            profile.busy_core_seconds()
        )

    def test_ranked_is_sorted(self, small_catalog, sim_config):
        profile = execute(pipeline_plan(small_catalog), sim_config).profile
        durations = [r.duration for r in profile.ranked()]
        assert durations == sorted(durations, reverse=True)

    def test_records_by_thread_sorted_by_start(self, small_catalog, sim_config):
        profile = execute(pipeline_plan(small_catalog), sim_config).profile
        for records in profile.records_by_thread().values():
            starts = [r.start for r in records]
            assert starts == sorted(starts)


class TestMemoryAccounting:
    def test_peak_memory_positive_and_bounded(self, small_catalog, sim_config):
        result = execute(pipeline_plan(small_catalog), sim_config)
        peak = result.profile.peak_memory_bytes
        assert peak > 0
        # Peak cannot exceed the sum of every intermediate ever produced.
        total = sum(r.mem_bytes for r in result.profile.records) + 1e12
        assert peak < total

    def test_parallel_plan_uses_more_memory_than_serial(self, small_catalog, sim_config):
        """Clones materialize partition intermediates concurrently."""
        serial = execute(pipeline_plan(small_catalog), sim_config)
        parallel_plan = HeuristicParallelizer(8).parallelize(
            pipeline_plan(small_catalog)
        )
        parallel = execute(parallel_plan, sim_config)
        assert (
            parallel.profile.peak_memory_bytes
            >= serial.profile.peak_memory_bytes * 0.5
        )

    def test_peak_scales_with_data_scale(self, small_catalog):
        lo = execute(
            pipeline_plan(small_catalog),
            SimulationConfig(machine=laptop_machine(8), data_scale=10.0),
        )
        hi = execute(
            pipeline_plan(small_catalog),
            SimulationConfig(machine=laptop_machine(8), data_scale=1000.0),
        )
        assert hi.profile.peak_memory_bytes == pytest.approx(
            100 * lo.profile.peak_memory_bytes, rel=1e-6
        )


class _Exploding(Operator):
    """Raises ``boom-<tag>`` on every evaluation."""

    kind = "exploding"

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag

    def evaluate(self, inputs):
        raise OperatorError(f"boom-{self.tag}")

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_out=1)


class _Recording(Operator):
    """Appends its tag to a shared log when evaluated."""

    kind = "recording"

    def __init__(self, log: list[str], tag: str) -> None:
        super().__init__()
        self.log = log
        self.tag = tag

    def evaluate(self, inputs):
        self.log.append(self.tag)
        return Scalar(1, LNG)

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_out=1)


class TestDispatchFailures:
    """Operator exceptions settle in the evaluate step of a dispatch round
    and are resolved by the dispatch-order commit."""

    def test_settled_failure_does_not_abort_siblings(self, sim_config):
        def boom():
            raise ValueError("boom")

        failed = settle_job(boom)()
        assert isinstance(failed, EvalFailure)
        assert isinstance(failed.error, ValueError)
        assert settle_job(lambda: 2)() == 2
        # In the simulator: the raising operator is dispatched first, and
        # its sibling in the same round is still evaluated.
        log: list[str] = []
        plan = Plan()
        plan.set_outputs([plan.add(_Exploding("a")), plan.add(_Recording(log, "b"))])
        simulator = Simulator(sim_config)
        simulator.submit(plan)
        with pytest.raises(OperatorError, match="boom-a"):
            simulator.run()
        assert log == ["b"]

    def test_first_error_in_dispatch_order_is_raised(self, sim_config):
        def tagged(tag: str) -> Plan:
            plan = Plan()
            plan.set_outputs([plan.add(_Exploding(tag))])
            return plan

        simulator = Simulator(sim_config)
        simulator.submit(tagged("first"))
        simulator.submit(tagged("second"))
        with pytest.raises(OperatorError, match="boom-first"):
            simulator.run()
        # The second submission's failure is still pending; the event
        # loop surfaces it on the next drive.
        with pytest.raises(OperatorError, match="boom-second"):
            simulator.run()
