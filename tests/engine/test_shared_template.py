"""Concurrent submissions of one shared plan object.

Closed-loop clients re-issue a few templates many times; the simulator
shares one execution skeleton per template (:meth:`Simulator.share`) and
every submission executes the same plan nodes.  All per-execution state is
keyed by submission, so sharing must be invisible: outputs, operator
timings and the fault schedule equal those of submitting separate copies.
"""

from __future__ import annotations

from repro.analysis.sanitize import checksum_intermediate
from repro.chaos import CHAOS_LIGHT, FaultInjector
from repro.concurrency import ClientSpec, ResilientWorkload
from repro.config import SimulationConfig, laptop_machine
from repro.core import HeuristicParallelizer
from repro.engine import Simulator
from repro.engine.memo import IntermediateCache
from repro.operators import RangePredicate
from repro.plan import PlanBuilder

SUBMISSIONS = 8


def make_plan(catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=600))
    keys = b.fetch(sel, b.scan("facts", "fk"))
    vals = b.fetch(sel, b.scan("facts", "qty"))
    matched = b.aggregate("count", b.join(keys, b.scan("dims", "pk")))
    plan = b.build([b.group_aggregate("sum", keys, vals), matched])
    return HeuristicParallelizer(4).parallelize(plan)


def run_submissions(plan, config, *, shared: bool):
    """Submit ``plan`` SUBMISSIONS times at t=0; return what they produced."""
    injector = FaultInjector(CHAOS_LIGHT, seed=11)
    sim = Simulator(config, memo=IntermediateCache(), faults=injector)
    if shared:
        sim.share(plan)
    failed: dict[int, str] = {}

    def on_failure(sid, error):
        failed[sid] = type(error).__name__

    sids = [
        sim.submit(
            plan if shared else plan.copy(),
            client=f"c{i}",
            max_threads=3,
            on_failure=on_failure,
        )
        for i in range(SUBMISSIONS)
    ]
    sim.run()
    outcome = {}
    for sid in sids:
        if sid in failed:
            outcome[sid] = failed[sid]
            continue
        result = sim.result(sid)
        outcome[sid] = (
            [checksum_intermediate(value) for value in result.outputs],
            [
                (r.kind, r.start.hex(), r.end.hex(), r.thread_id, r.mem_bytes.hex())
                for r in result.profile.records
            ],
        )
    return outcome, [event.as_tuple() for event in injector.schedule]


def test_shared_plan_matches_separate_copies(small_catalog):
    config = SimulationConfig(machine=laptop_machine(8), data_scale=500.0)
    plan = make_plan(small_catalog)
    shared, shared_faults = run_submissions(plan, config, shared=True)
    copies, copy_faults = run_submissions(plan, config, shared=False)
    assert shared_faults, "the seed must inject at least one fault"
    assert shared_faults == copy_faults
    assert shared == copies


def test_template_mutated_after_build_does_not_change_report(small_catalog):
    config = SimulationConfig(machine=laptop_machine(8), data_scale=500.0)

    def workload(template):
        return ResilientWorkload(
            config,
            [ClientSpec(name=f"c{i}", plans=[template]) for i in range(4)],
            horizon=0.3,
            faults=CHAOS_LIGHT,
        )

    template = make_plan(small_catalog)
    built = workload(template)
    expected = workload(template.copy()).run().as_dict()
    # Drop the grouped aggregate: a cheaper plan from here on.
    root = template.outputs[0]
    template.replace_node(root, root.inputs[0])
    assert built.run().as_dict() == expected
    assert workload(template).run().as_dict() != expected
