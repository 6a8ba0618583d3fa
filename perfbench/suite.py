"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
``setup_s``) and then runs *passes*: a pass is a fixed sequence of units
(instances, executions or service runs) that repeats exactly, so pass 0
gives the simulated metrics and each unit's host time can be taken at its
fastest repetition.  A pass also checks the program's outputs against an
independent execution and reports every mismatch as a failure.

Every call into the program goes through a probe: the timed runs use
:class:`~tracing.NullProbe` (a plain call), the traced run a
:class:`~tracing.Tracer` (one span per call).  Checks run inside
``probe.quiet()`` so the traced run books them as ``bench.check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable

from repro.bench.wallclock import q1_style_plan
from repro.chaos.faults import FaultPlan
from repro.chaos.injector import FaultInjector
from repro.cluster import (
    ClusterAdaptiveParallelizer,
    ScaleoutWorkload,
    cluster_execute,
    execute_with_failover,
)
from repro.core import (
    DEFAULT_GME_THRESHOLD,
    AdaptiveParallelizer,
    HeuristicParallelizer,
    intermediates_equal,
)
from repro.engine import execute
from repro.engine.memo import IntermediateCache
from repro.serve.loadgen import PRESETS, build_service
from repro.sql import plan_sql
from repro.storage.column import Scalar
from repro.workloads import TpchDataset

@dataclass
class Sizes:
    """Input sizes of one benchmark size class (``full`` or ``tiny``)."""

    tpch_queries: tuple[str, ...]
    sweep_sf: int
    sweep_dops: tuple[int, ...]
    serve_preset: str
    serve_windows: int
    scaleout_tuples_m: int
    scaleout_min_runs: int


SIZES = {
    "full": Sizes(
        tpch_queries=("q4", "q8", "q13", "q14", "q17"),
        sweep_sf=300,
        sweep_dops=(1, 8, 64, 256),
        serve_preset="quick",
        serve_windows=8,
        scaleout_tuples_m=200,
        scaleout_min_runs=1000,
    ),
    "tiny": Sizes(
        tpch_queries=("q4", "q14"),
        sweep_sf=1,
        sweep_dops=(1, 8),
        serve_preset="tiny",
        serve_windows=2,
        scaleout_tuples_m=20,
        scaleout_min_runs=60,
    ),
}


@dataclass
class Unit:
    """The host measurements of one unit of a pass: an adaptive instance, an
    execution or a service run.  Passes repeat their units exactly, so a unit
    can be compared with the same unit of another pass."""

    host_s: float = 0.0
    #: Host milliseconds per operation (adaptive run, execution, or
    #: completed query of a service run).
    run_ms: list[float] = field(default_factory=list)
    runs: int = 0
    queries: int = 0
    nodes: int = 0


@dataclass
class PassResult:
    """Host units, counts, simulated values and check outcomes of one pass."""

    units: list[Unit] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Simulated outcomes; identical for every pass of one seed.
    speedups: list[float] = field(default_factory=list)
    runs_to_gme: int = 0
    sim_latency_ms: list[float] = field(default_factory=list)
    slo_missed: int = 0
    slo_total: int = 0
    #: Per-layer counters (mutations accepted, serve outcomes, ...).
    counts: dict[str, float] = field(default_factory=dict)

    def unit(self) -> Unit:
        unit = Unit()
        self.units.append(unit)
        return unit

    def fail(self, message: str, operations: int) -> None:
        self.failures.append(message)
        self.failed += operations

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sim_signature(self) -> tuple:
        return (
            tuple(self.speedups),
            self.runs_to_gme,
            tuple(self.sim_latency_ms),
            self.slo_missed,
            self.slo_total,
        )


def _same(a: Any, b: Any) -> bool:
    # q8's share is 0/0 on some seeds at SF1: serial and parallel plans both
    # give NaN, which ``intermediates_equal`` reports as unequal to itself.
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        if math.isnan(a.value) and math.isnan(b.value):
            return True
    return intermediates_equal(a, b)


def outputs_equal(expected: list, actual: list) -> bool:
    return len(expected) == len(actual) and all(
        _same(a, b) for a, b in zip(expected, actual)
    )


def ladder(times: list[float]) -> tuple[float, int, int]:
    """Serial/best speedup, the first rung inside the GME band, rungs outside."""
    best = min(times)
    limit = best * (1.0 + DEFAULT_GME_THRESHOLD)
    first = next(i for i, t in enumerate(times) if t <= limit)
    return times[0] / best, first, sum(1 for t in times if t > limit)


class Workload:
    """Base class: seeded set-up, repeatable passes."""

    name = ""

    def __init__(self, seed: int, size: str = "full", corrupt: bool = False) -> None:
        self.seed = seed
        self.sizes = SIZES[size]
        #: Deliberately corrupt one expected output (to prove the check bites).
        self.corrupt = corrupt

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, probe: Any) -> PassResult:
        raise NotImplementedError

    def expect(self, outputs: list) -> list:
        """The reference outputs a check compares against."""
        if not self.corrupt:
            return outputs
        first = outputs[0]
        if isinstance(first, Scalar):
            wrong = 1.0 if math.isnan(first.value) else first.value * 2 + 1
            return [Scalar(wrong, first.dtype), *outputs[1:]]
        return outputs[1:]


def _timed_runner(
    probe: Any,
    span: str,
    execute_fn: Callable[[Any, int], Any],
    unit: Unit,
) -> tuple[Callable[[Any, int], Any], list[float]]:
    """An adaptive ``runner=`` hook making the default runner's call.

    It reads the clock after each execution, so consecutive reads bracket one
    adaptive run: the mutate step that produced the plan plus its execution.
    """
    mark = [0.0]

    def runner(plan: Any, run_index: int) -> Any:
        result = probe.call(span, execute_fn, plan, run_index)
        now = perf_counter()
        unit.run_ms.append((now - mark[0]) * 1000.0)
        mark[0] = now
        unit.nodes += len(result.profile.records)
        probe.next_op()
        return result

    return runner, mark


class AdaptiveTpch(Workload):
    """The paper's loop: AP with its defaults over five TPC-H queries."""

    name = "adaptive_tpch"

    def setup(self) -> None:
        self.dataset = TpchDataset(scale_factor=1, seed=self.seed)
        self.config = self.dataset.sim_config(seed=self.seed)
        self.plans = {q: self.dataset.plan(q) for q in self.sizes.tpch_queries}
        self.reference: dict[str, list] = {}

    def run_pass(self, probe: Any) -> PassResult:
        out = PassResult()
        for query, plan in self.plans.items():
            unit = out.unit()
            parallelizer: AdaptiveParallelizer

            def execute_run(p: Any, run_index: int) -> Any:
                config = self.config.with_seed(self.config.seed + run_index)
                return execute(p, config, memo=parallelizer.memo)

            runner, mark = _timed_runner(probe, "engine.execute", execute_run, unit)
            parallelizer = AdaptiveParallelizer(self.config, runner=runner)
            start = mark[0] = perf_counter()
            result = parallelizer.optimize(plan)
            unit.host_s = perf_counter() - start
            unit.runs = result.total_runs
            unit.queries = 1
            out.attempted += result.total_runs
            out.count("mutations_accepted", len(result.mutations))
            _adaptive_sim(out, result)
            with probe.quiet():
                if query not in self.reference:
                    self.reference[query] = execute(plan, self.config).outputs
                expected = self.expect(self.reference[query])
                for label, final in (("GME", result.best_plan),
                                     ("final", result.final_plan)):
                    got = execute(final, self.config).outputs
                    if not outputs_equal(expected, got):
                        out.fail(f"{query}: {label} plan output differs from "
                                 "the serial plan", result.total_runs)
        return out


def _adaptive_sim(out: PassResult, result: Any) -> None:
    out.speedups.append(result.speedup)
    out.runs_to_gme += result.runs_to_gme
    times = result.exec_times()
    out.sim_latency_ms.extend(t * 1000.0 for t in times)
    limit = result.gme_time * (1.0 + result.gme_threshold)
    out.slo_missed += sum(1 for t in times if t > limit)
    out.slo_total += len(times)


class ExecDopSweep(Workload):
    """Fixed plans at SF300: serial and HP at DOP 8/64/256, one shared memo."""

    name = "exec_dop_sweep"

    def setup(self) -> None:
        self.dataset = TpchDataset(scale_factor=self.sizes.sweep_sf, seed=self.seed)
        self.config = self.dataset.sim_config(seed=self.seed)
        plans = {"q1_style": q1_style_plan(self.dataset)}
        plans.update({q: self.dataset.plan(q) for q in ("q9", "q14", "q19")})
        self.ladders = {
            q: [
                plan if dop == 1 else HeuristicParallelizer(dop).parallelize(plan)
                for dop in self.sizes.sweep_dops
            ]
            for q, plan in plans.items()
        }
        self.reference: dict[str, list] = {}

    def run_pass(self, probe: Any) -> PassResult:
        out = PassResult()
        memo = IntermediateCache()
        for query, rungs in self.ladders.items():
            with probe.quiet():
                if query not in self.reference:
                    self.reference[query] = execute(rungs[0], self.config).outputs
            expected = self.expect(self.reference[query])
            times = []
            for dop, plan in zip(self.sizes.sweep_dops, rungs):
                start = perf_counter()
                result = probe.call("engine.execute", execute, plan, self.config,
                                    memo=memo)
                elapsed = perf_counter() - start
                probe.next_op()
                out.units.append(Unit(host_s=elapsed, run_ms=[elapsed * 1000.0],
                                      runs=1, queries=1,
                                      nodes=len(result.profile.records)))
                out.attempted += 1
                times.append(result.response_time)
                if not outputs_equal(expected, result.outputs):
                    out.fail(f"{query}: DOP {dop} output differs from the serial "
                             "plan run without the memo", 1)
            speedup, first, missed = ladder(times)
            out.speedups.append(speedup)
            out.runs_to_gme += first
            out.sim_latency_ms.extend(t * 1000.0 for t in times)
            out.slo_missed += missed
            out.slo_total += len(times)
        return out


#: Static DOPs each serve statement is also executed at, solo, for the check
#: and for the serve workload's ``sim_gme_speedup`` / ``sim_runs_to_gme``.
SERVE_LADDER = (1, 8, 64)


class ServeTenants(Workload):
    """The multi-tenant service: the loadgen mix under CHAOS_LIGHT.

    A pass is several service runs over the preset's horizon, each with its
    own client seed derived from the workload seed, so the simulated latency
    percentiles pool several independent arrival sequences.
    """

    name = "serve_tenants"

    def setup(self) -> None:
        self.dataset = TpchDataset(scale_factor=1, seed=self.seed)
        self.config = self.dataset.sim_config().with_seed(self.seed)
        self.spec = replace(PRESETS[self.sizes.serve_preset], chaos="light",
                            seed=self.seed)
        self.service = build_service(self.spec, config=self.config,
                                     catalog=self.dataset.catalog)
        self.statement_check: PassResult | None = None

    def _check_statements(self) -> PassResult:
        """Solo executions of every mix statement against a fresh serial plan."""
        out = PassResult()
        for mix, load in zip(self.spec.mixes, self.service.loads):
            for text, template in zip(mix.statements, load.plans):
                serial = execute(plan_sql(text, self.dataset.catalog), self.config)
                expected = self.expect(serial.outputs)
                times = []
                for dop in SERVE_LADDER:
                    plan = template.copy()
                    if dop > 1:
                        plan = HeuristicParallelizer(dop).parallelize(plan)
                    result = execute(plan, self.config, memo=IntermediateCache())
                    times.append(result.response_time)
                    if not outputs_equal(expected, result.outputs):
                        out.fail(f"{mix.tenant}: statement at DOP {dop} differs "
                                 "from its serial plan", 1)
                speedup, first, __ = ladder(times)
                out.speedups.append(speedup)
                out.runs_to_gme += first
        return out

    def _run_window(self, probe: Any, seed: int, out: PassResult) -> None:
        """One service run over the preset's horizon, with its own client seed."""
        start = perf_counter()
        report = probe.call("serve.service", self.service.run, seed=seed)
        elapsed = perf_counter() - start
        probe.next_op()
        completed = report.completed()
        unit = out.unit()
        unit.host_s = elapsed
        unit.runs = unit.queries = completed
        unit.run_ms.append(elapsed * 1000.0 / max(completed, 1))
        for mix, load in zip(self.spec.mixes, self.service.loads):
            outcome = report.tenants[mix.tenant]
            out.attempted += outcome.issued
            # The service draws statements uniformly, so a completed query
            # counts at its tenant's mean statement size.
            mean_nodes = sum(len(p.nodes()) for p in load.plans) / len(load.plans)
            unit.nodes += round(outcome.completed * mean_nodes)
            target = outcome.spec.slo.p99_target
            over = sum(1 for t in outcome.response_times if t > target)
            out.slo_missed += (outcome.rejected + outcome.timeouts
                               + outcome.abandoned + over)
            out.slo_total += outcome.issued
            out.sim_latency_ms.extend(t * 1000.0 for t in outcome.response_times)
            if outcome.issued != outcome.completed + outcome.rejected + outcome.abandoned:
                out.fail(f"{mix.tenant}: issued {outcome.issued} != completed + "
                         "rejected + abandoned", outcome.issued)
            for key in ("admitted", "rejected", "admission_waits", "retries",
                        "timeouts", "abandoned"):
                out.count(key, getattr(outcome, key))
            out.counts["peak_queue_depth"] = max(
                out.counts.get("peak_queue_depth", 0), outcome.peak_queue_depth)
        out.count("faults_injected", report.faults_injected)

    def run_pass(self, probe: Any) -> PassResult:
        out = PassResult()
        for window in range(self.sizes.serve_windows):
            self._run_window(probe, self.seed * 1_000 + window, out)
        with probe.quiet():
            if self.statement_check is None:
                self.statement_check = self._check_statements()
        check = self.statement_check
        out.speedups = list(check.speedups)
        out.runs_to_gme = check.runs_to_gme
        for message in check.failures:
            out.fail(message, 1)
        return out


#: One injected operator exception per failover run (as ``bench --scaleout``).
FAILOVER_FAULTS = FaultPlan(
    operator_exception_rate=0.1,
    straggler_rate=0.0,
    mem_pressure_rate=0.0,
    disconnect_rate=0.0,
    max_faults=1,
)
SCALEOUT_NODES = 4
#: Threads per node: few, so hoarded shards queue and skew shows.
NODE_THREADS = 2


@dataclass
class _ScaleoutInstance:
    workload: ScaleoutWorkload
    cluster: Any
    config: Any
    skewed: Any
    plan: Any
    uniform_map: Any


class ScaleoutSkew(Workload):
    """Placement adaptivity on a skewed 4-node cluster, then a failover run."""

    name = "scaleout_skew"

    def _instance(self, index: int) -> _ScaleoutInstance:
        workload = ScaleoutWorkload(tuples_m=self.sizes.scaleout_tuples_m,
                                    seed=self.seed * 1_000 + index)
        cluster = workload.cluster(SCALEOUT_NODES, threads=NODE_THREADS)
        skewed = workload.sharded(SCALEOUT_NODES, skewed=True)
        return _ScaleoutInstance(
            workload=workload,
            cluster=cluster,
            config=workload.sim_config(cluster),
            skewed=skewed,
            plan=workload.plan(skewed),
            uniform_map=workload.sharded(SCALEOUT_NODES).shard_map,
        )

    def setup(self) -> None:
        # Enough instances for the usual pass (70-90 runs each); a pass that
        # needs more builds them on demand and keeps them for later passes.
        count = self.sizes.scaleout_min_runs // 70 + 1
        self.instances = [self._instance(i) for i in range(count)]
        self.values: dict[int, int] = {}

    def run_pass(self, probe: Any) -> PassResult:
        out = PassResult()
        index = 0
        # Repeat over derived seeds until the pass has enough runs for a p99;
        # the instance list is extended once and reused by later passes.
        while sum(unit.runs for unit in out.units) < self.sizes.scaleout_min_runs:
            if index == len(self.instances):
                self.instances.append(self._instance(index))
            inst = self.instances[index]
            self._run_instance(probe, inst, index, out)
            index += 1
        return out

    def _run_instance(self, probe: Any, inst: _ScaleoutInstance, index: int,
                      out: PassResult) -> None:
        unit = out.unit()
        parallelizer: ClusterAdaptiveParallelizer

        def execute_run(p: Any, run_index: int) -> Any:
            config = inst.config.with_seed(inst.config.seed + run_index)
            return cluster_execute(p, inst.cluster, config, memo=parallelizer.memo)

        runner, mark = _timed_runner(probe, "cluster.execute", execute_run, unit)
        parallelizer = ClusterAdaptiveParallelizer(
            inst.cluster, inst.skewed.shard_map, inst.config, runner=runner)
        start = mark[0] = perf_counter()
        result = parallelizer.optimize(inst.plan)
        unit.host_s = perf_counter() - start
        injector = FaultInjector(FAILOVER_FAULTS,
                                 seed=inst.config.derive_seed("chaos"))
        start = perf_counter()
        failover = probe.call("cluster.failover", execute_with_failover,
                              inst.workload.plan_for_map, inst.uniform_map,
                              inst.cluster, inst.config, faults=injector)
        unit.host_s += perf_counter() - start
        probe.next_op()
        unit.runs = result.total_runs
        unit.queries = 1
        unit.nodes += len(failover.result.profile.records)
        out.attempted += result.total_runs + 1
        out.count("faults_injected", injector.stats.total)
        for mutation in result.mutations:
            if mutation.scheme == "placement-replica":
                out.count("moves_free", 1)
            elif mutation.scheme == "placement-move":
                out.count("moves_paid", 1)
            else:
                out.count("mutations_accepted", 1)
        _adaptive_sim(out, result)
        with probe.quiet():
            if index not in self.values:
                # The value on a uniform map, at 1, 2 and 4 nodes.
                sweep = set()
                for nodes in (1, 2, SCALEOUT_NODES):
                    cluster = inst.workload.cluster(nodes, threads=NODE_THREADS)
                    plan = inst.workload.plan(inst.workload.sharded(nodes))
                    run = cluster_execute(plan, cluster,
                                          inst.workload.sim_config(cluster))
                    sweep.add(int(run.outputs[0].value))
                if len(sweep) != 1:
                    out.fail(f"instance {index}: value differs across the "
                             "node sweep", 1)
                self.values[index] = sweep.pop()
            expected = self.values[index] + (1 if self.corrupt else 0)
            for label, plan in (("skewed", inst.plan), ("adapted", result.best_plan)):
                run = cluster_execute(plan, inst.cluster, inst.config)
                if int(run.outputs[0].value) != expected:
                    out.fail(f"instance {index}: {label} value differs",
                             result.total_runs)
            if int(failover.result.outputs[0].value) != expected:
                out.fail(f"instance {index}: failover value differs", 1)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AdaptiveTpch, ExecDopSweep, ServeTenants, ScaleoutSkew)
}


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
