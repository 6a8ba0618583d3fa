"""THE determinism matrix: every observable, every execution surface.

Each *scenario* reduces a run to a canonical byte fingerprint (blake2b
over its canonical bytes).  The digest of every scenario is pinned as a
literal, so any drift in simulated results or canonical output fails,
and each scenario is re-run in the same process and must reproduce its
digest exactly.

Scenario axes covered:

* plain execution (response time + result bytes),
* the adaptive convergence trace plus memo-cache counters,
* chaos: the resilient-workload canonical observe document under
  ``CHAOS_LIGHT``, and a cluster node-failure failover,
* the multi-tenant serve layer's SLO report,
* the cluster: node counts 1 and 3 (full canonical trace, so exchange
  transfers and the scheduler barrier are pinned too).

The cluster scenarios carry ``cluster`` in their id so CI can smoke just
them with ``-k cluster``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import CHAOS_LIGHT
from repro.chaos.faults import FaultPlan
from repro.cluster import (
    ScaleoutWorkload,
    cluster_execute,
    execute_with_failover,
)
from repro.concurrency import ClientSpec, ResilienceConfig, ResilientWorkload
from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.engine import execute
from repro.observe import Observer
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.serve import preset, run_loadgen
from repro.workloads import JoinMicroWorkload

#: The digest of every scenario.  A change here is a change to simulated
#: results or canonical bytes: a bug, not a refresh.
PINNED = {
    "adaptive_memo": "9d4ac7875ed4801f389f1c1fbbfcb7b3",
    "chaos_resilient": "9c716bbe5a27db5af12d7a4e7c7b0c13",
    "cluster_failover_chaos": "145ec3511dee71d27078efa77977d779",
    "cluster_nodes1": "4b1f4713f5e788166698d142a5045bc0",
    "cluster_nodes3": "ed9334ddf4053067b52ddd785795a6ad",
    "execute": "dea4f406a3b1c9db25e56e596a9edb23",
    "serve": "f5149767ac5a79b8d8e7b04c09db7318",
}


def _digest(payload: str) -> str:
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _q1_style_plan(catalog):
    builder = PlanBuilder(catalog)
    sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=700))
    proj = builder.fetch(sel, builder.scan("facts", "qty"))
    return builder.build(builder.aggregate("sum", proj))


def _scenario_execute(small_catalog, sim_config):
    result = execute(_q1_style_plan(small_catalog), sim_config)
    return _digest(
        _json(
            {
                "response": float(result.response_time).hex(),
                "value": int(result.outputs[0].value),
            }
        )
    )


def _scenario_adaptive_memo(small_catalog, sim_config):
    workload = JoinMicroWorkload(outer_mb=64, inner_mb=16)
    parallelizer = AdaptiveParallelizer(
        workload.sim_config(seed=11),
        convergence=ConvergenceParams(number_of_cores=8, max_runs=6),
    )
    try:
        result = parallelizer.optimize(workload.plan())
        memo = (
            parallelizer.memo.stats() if parallelizer.memo is not None else None
        )
    finally:
        parallelizer.close()
    return _digest(
        _json(
            {
                "exec_times": [t.hex() for t in result.exec_times()],
                "gme": [result.gme_run, result.gme_time.hex()],
                "total_runs": result.total_runs,
                "memo": repr(memo),
            }
        )
    )


#: ``WorkloadReport.as_dict()`` digest of the ``chaos_resilient`` run.
CHAOS_RESILIENT_REPORT = "12e9cd546d860630a8b97ae9f36f1fd0"


def _chaos_resilient_run(observer=None):
    workload = JoinMicroWorkload(outer_mb=16, inner_mb=4)
    service = ResilientWorkload(
        workload.sim_config(),
        [
            ClientSpec(f"c{i}", [workload.plan()], max_queries=3)
            for i in range(3)
        ],
        horizon=2.0,
        faults=CHAOS_LIGHT,
        resilience=ResilienceConfig(timeout=0.05),
        observe=observer,
    )
    return service.run()


def _scenario_chaos_resilient(small_catalog, sim_config):
    observer = Observer()
    _chaos_resilient_run(observer)
    observer.finish()
    return _digest(observer.canonical_json())


def _scenario_serve(small_catalog, sim_config):
    report = run_loadgen(preset("tiny"))
    return _digest(json.dumps(report.as_dict(), sort_keys=True))


def _cluster_workload():
    return ScaleoutWorkload(tuples_m=10)


def _scenario_cluster(nodes):
    workload = _cluster_workload()
    cluster = workload.cluster(nodes, threads=4)
    observer = Observer()
    result = cluster_execute(
        workload.plan(workload.sharded(nodes)),
        cluster,
        workload.sim_config(cluster),
        trace=observer,
    )
    observer.finish()
    return _digest(
        _json(
            {
                "response": float(result.response_time).hex(),
                "value": int(result.outputs[0].value),
                "trace": observer.canonical_json(),
            }
        )
    )


def _scenario_cluster_failover(small_catalog, sim_config):
    workload = _cluster_workload()
    cluster = workload.cluster(3, threads=4)
    faults = FaultPlan(
        operator_exception_rate=0.1,
        straggler_rate=0.0,
        mem_pressure_rate=0.0,
        disconnect_rate=0.0,
        max_faults=1,
    )
    outcome = execute_with_failover(
        workload.plan_for_map,
        workload.sharded(3).shard_map,
        cluster,
        workload.sim_config(cluster),
        faults=faults,
    )
    return _digest(
        _json(
            {
                "attempts": outcome.attempts,
                "failed": list(outcome.failed_nodes),
                "response": float(outcome.result.response_time).hex(),
                "value": int(outcome.result.outputs[0].value),
            }
        )
    )


SCENARIOS = {
    "execute": _scenario_execute,
    "adaptive_memo": _scenario_adaptive_memo,
    "chaos_resilient": _scenario_chaos_resilient,
    "serve": _scenario_serve,
    "cluster_nodes1": lambda *_: _scenario_cluster(1),
    "cluster_nodes3": lambda *_: _scenario_cluster(3),
    "cluster_failover_chaos": _scenario_cluster_failover,
}


@pytest.fixture(scope="module")
def baselines():
    """Lazily computed digests, one per scenario."""
    return {}


def _baseline(baselines, scenario, small_catalog, sim_config):
    if scenario not in baselines:
        baselines[scenario] = SCENARIOS[scenario](small_catalog, sim_config)
    return baselines[scenario]


@pytest.fixture(scope="module")
def matrix_catalog():
    """Module-scoped copy of the conftest catalog (same seed/content)."""
    import numpy as np

    from repro.storage import DATE, LNG, STR, Catalog, Table

    rng = np.random.default_rng(1234)
    n, m = 2_000, 100
    catalog = Catalog("test")
    catalog.add(
        Table.from_arrays(
            "facts",
            {
                "fk": (LNG, rng.integers(0, m, n)),
                "val": (LNG, rng.integers(0, 1_000, n)),
                "qty": (LNG, rng.integers(1, 50, n)),
                "day": (DATE, rng.integers(8_000, 9_000, n)),
            },
        )
    )
    catalog.add(
        Table.from_arrays(
            "dims",
            {
                "pk": (LNG, np.arange(m)),
                "size": (LNG, rng.integers(1, 10, m)),
                "name": (STR, [f"name-{i % 7}" for i in range(m)]),
            },
        )
    )
    return catalog


@pytest.fixture(scope="module")
def matrix_config():
    from repro.config import SimulationConfig, laptop_machine

    return SimulationConfig(machine=laptop_machine(8), data_scale=100.0)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_matrix_baseline_matches_pinned(
    scenario, baselines, matrix_catalog, matrix_config
):
    actual = _baseline(baselines, scenario, matrix_catalog, matrix_config)
    assert actual == PINNED[scenario], (
        f"scenario {scenario!r} drifted from its pinned digest"
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_matrix_baseline_is_repeatable(
    scenario, baselines, matrix_catalog, matrix_config
):
    expected = _baseline(baselines, scenario, matrix_catalog, matrix_config)
    again = SCENARIOS[scenario](matrix_catalog, matrix_config)
    assert again == expected


def test_chaos_resilient_report_pinned():
    report = _chaos_resilient_run()
    assert _digest(_json(report.as_dict())) == CHAOS_RESILIENT_REPORT


class TestClusterDegeneracy:
    """nodes=1 is not just self-consistent: it IS the single machine."""

    def test_cluster_nodes1_matches_plain_engine(self):
        workload = _cluster_workload()
        cluster = workload.cluster(1, threads=4)
        config = workload.sim_config(cluster)
        plan = workload.plan(workload.sharded(1))
        clustered = cluster_execute(
            workload.plan(workload.sharded(1)), cluster, config
        )
        plain = execute(plan, config)
        assert clustered.response_time == plain.response_time
        assert int(clustered.outputs[0].value) == int(plain.outputs[0].value)

    def test_nodes_change_the_fingerprint(self):
        # Guard against a fingerprint that ignores the cluster: 3 nodes
        # must not hash like 1 node (different trace, different times).
        assert _scenario_cluster(1) != _scenario_cluster(3)
