"""The determinism matrix: canonical output is bit-identical across
repeated seeded runs, with and without memoization, and under
CHAOS_LIGHT.

Bit-identity is asserted *within* each configuration cell; memoization
on versus off legitimately differ in memo counters, never in spans or
simulated times.
"""

from __future__ import annotations

import json

from repro.chaos import CHAOS_LIGHT
from repro.concurrency import ClientSpec, ResilienceConfig, ResilientWorkload
from repro.observe import Observer
from repro.workloads import JoinMicroWorkload

from tests.observe.conftest import observe_join_adaptive


def _observe_service(faults) -> Observer:
    workload = JoinMicroWorkload(outer_mb=16, inner_mb=4)
    config = workload.sim_config()
    observer = Observer()
    service = ResilientWorkload(
        config,
        [ClientSpec(f"c{i}", [workload.plan()], max_queries=3) for i in range(3)],
        horizon=2.0,
        faults=faults,
        resilience=ResilienceConfig(timeout=0.05),
        observe=observer,
    )
    service.run()
    observer.finish()
    return observer


def test_adaptive_identical_across_repeats():
    assert (
        observe_join_adaptive().canonical_json()
        == observe_join_adaptive().canonical_json()
    )


def test_memoization_changes_bookkeeping_not_simulation():
    """Memo on/off differ in cache bookkeeping spans and counters,
    never in what the simulation did: task and run spans (the simulated
    execution) are identical."""
    with_memo = json.loads(observe_join_adaptive(memoize=True).canonical_json())
    without = json.loads(observe_join_adaptive(memoize=False).canonical_json())

    def simulated(doc):
        return [
            {k: v for k, v in span.items() if k not in ("span_id", "parent_id")}
            for span in doc["trace"]
            if span["kind"] in ("task", "run", "submission", "mutation", "adaptive")
        ]

    assert simulated(with_memo) == simulated(without)
    assert with_memo["metrics"]["repro_memo_hits_total"] > 0
    assert "repro_memo_hits_total" not in without["metrics"]
    # Simulated task time is memo-invariant too.
    key = "repro_task_sim_seconds"
    assert with_memo["metrics"][key] == without["metrics"][key]


def test_chaos_light_identical_across_repeats():
    first = _observe_service(CHAOS_LIGHT)
    second = _observe_service(CHAOS_LIGHT)
    assert first.canonical_json() == second.canonical_json()


def test_chaos_light_fault_spans_present_and_ordered():
    """Fault events appear in the trace, identically ordered in every
    repeated run (the injector draws in dispatch order only)."""
    orders = []
    for __ in range(2):
        observer = _observe_service(CHAOS_LIGHT)
        faults = [s for s in observer.tracer.spans if s.kind == "fault"]
        assert faults, "CHAOS_LIGHT run produced no fault spans"
        orders.append([(s.span_id, s.name, s.t0) for s in faults])
    assert orders[0] == orders[1]


def test_clean_service_identical_across_repeats():
    assert (
        _observe_service(None).canonical_json()
        == _observe_service(None).canonical_json()
    )


def test_adaptive_under_chaos_identical_across_repeats():
    assert (
        observe_join_adaptive(faults=CHAOS_LIGHT).canonical_json()
        == observe_join_adaptive(faults=CHAOS_LIGHT).canonical_json()
    )
