"""Cluster execution: scaling, network accounting, metrics, failover.

The nodes=1 byte-identity and the worker-count invariance live in
``tests/integration/test_determinism_matrix.py``; here we pin the
*cluster-specific* physics -- shared-nothing speedup, the wire cost of
a paid placement move, per-node observability labels -- and the
retry-on-replica resilience loop end to end.
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import FaultPlan
from repro.cluster import (
    ClusterSimulator,
    ClusterSpec,
    ScaleoutWorkload,
    cluster_execute,
    execute_with_failover,
    move_shard,
)
from repro.config import SimulationConfig, laptop_machine
from repro.errors import ClusterError
from repro.observe import Observer


@pytest.fixture(scope="module")
def workload():
    return ScaleoutWorkload(tuples_m=10)


def one_node_failure_plan() -> FaultPlan:
    return FaultPlan(
        operator_exception_rate=0.1,
        straggler_rate=0.0,
        mem_pressure_rate=0.0,
        disconnect_rate=0.0,
        max_faults=1,
    )


class TestScaling:
    def test_four_nodes_clear_the_acceptance_bar(self, workload):
        times = {}
        for nodes in (1, 4):
            cluster = workload.cluster(nodes, threads=2)
            result = cluster_execute(
                workload.plan(workload.sharded(nodes)),
                cluster,
                workload.sim_config(cluster),
            )
            times[nodes] = result.response_time
        assert times[1] / times[4] > 1.8

    def test_values_identical_at_any_node_count(self, workload):
        values = set()
        for nodes in (1, 2, 3, 4):
            cluster = workload.cluster(nodes, threads=2)
            result = cluster_execute(
                workload.plan(workload.sharded(nodes)),
                cluster,
                workload.sim_config(cluster),
            )
            values.add(int(result.outputs[0].value))
        assert len(values) == 1

    def test_repeat_run_bit_identical(self, workload):
        cluster = workload.cluster(3, threads=2)

        def run():
            return cluster_execute(
                workload.plan(workload.sharded(3)),
                cluster,
                workload.sim_config(cluster),
            )

        first, second = run(), run()
        assert first.response_time == second.response_time
        assert int(first.outputs[0].value) == int(second.outputs[0].value)


class TestNetworkAccounting:
    def test_paid_move_costs_wire_time(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        sharded = workload.sharded(3)
        shard = sharded.shard_map.shards[0]
        baseline = cluster_execute(
            workload.plan(sharded), cluster, config
        ).response_time

        free = workload.plan(sharded)
        assert move_shard(free, shard, shard.replica) == "placement-replica"
        free_t = cluster_execute(free, cluster, config).response_time

        outside = next(
            n for n in range(3) if n not in shard.holders()
        )
        paid = workload.plan(sharded)
        assert move_shard(paid, shard, outside) == "placement-move"
        paid_t = cluster_execute(paid, cluster, config).response_time

        # The exchange's bytes flow through the destination's NIC: a
        # paid move must cost strictly more than re-homing onto the
        # replica, which costs nothing but a different queue.
        assert paid_t > free_t
        assert paid_t > baseline

    def test_moves_preserve_the_value(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        sharded = workload.sharded(3)
        shard = sharded.shard_map.shards[0]
        expected = int(
            cluster_execute(workload.plan(sharded), cluster, config)
            .outputs[0]
            .value
        )
        for dst in range(3):
            plan = workload.plan(sharded)
            move_shard(plan, shard, dst)
            moved = cluster_execute(plan, cluster, config)
            assert int(moved.outputs[0].value) == expected

    def test_node_metrics_and_span_attrs(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        sharded = workload.sharded(3)
        plan = workload.plan(sharded)
        shard = sharded.shard_map.shards[0]
        outside = next(n for n in range(3) if n not in shard.holders())
        move_shard(plan, shard, outside)
        observer = Observer()
        cluster_execute(plan, cluster, config, trace=observer)
        observer.finish()
        metrics = observer.metrics.collect()
        tasks = {
            k: v
            for k, v in metrics.items()
            if k.startswith("repro_cluster_node_tasks_total")
        }
        assert any('node="n0"' in k for k in tasks)
        assert sum(tasks.values()) > 0
        net = {
            k: v
            for k, v in metrics.items()
            if k.startswith("repro_cluster_net_bytes_total")
        }
        assert any(f'node="n{outside}"' in k for k in net)
        assert sum(net.values()) > 0
        # Operator spans carry their node id (an integer attribute; the
        # metric labels use the "n{k}" form).
        nodes_seen = {
            span.attrs.get("node")
            for span in observer.tracer.spans
            if span.attrs.get("node") is not None
        }
        assert nodes_seen >= {0, outside}


class TestValidation:
    def test_config_must_describe_one_node(self, workload):
        cluster = workload.cluster(2, threads=2)
        wrong = SimulationConfig(machine=laptop_machine(16))
        with pytest.raises(ClusterError, match="per-node spec"):
            ClusterSimulator(cluster, wrong)

    def test_executor_defaults_config_to_the_node(self, workload):
        cluster = ClusterSpec(node=workload.node_machine(2), nodes=2)
        result = cluster_execute(
            workload.plan(workload.sharded(2)), cluster
        )
        assert result.response_time > 0


class TestFailover:
    def test_node_failure_survived_deterministically(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        shard_map = workload.sharded(3).shard_map
        clean = cluster_execute(
            workload.plan_for_map(shard_map), cluster, config
        )

        def survive():
            return execute_with_failover(
                workload.plan_for_map,
                shard_map,
                cluster,
                config,
                faults=one_node_failure_plan(),
            )

        first, second = survive(), survive()
        assert first.attempts == 2
        assert len(first.failed_nodes) == 1
        assert first.attempts == second.attempts
        assert first.failed_nodes == second.failed_nodes
        assert int(first.result.outputs[0].value) == int(
            clean.outputs[0].value
        )
        assert (
            first.result.response_time == second.result.response_time
        )

    def test_surviving_map_stripped_of_dead_node(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        outcome = execute_with_failover(
            workload.plan_for_map,
            workload.sharded(3).shard_map,
            cluster,
            config,
            faults=one_node_failure_plan(),
        )
        (dead,) = outcome.failed_nodes
        for shard in outcome.shard_map.shards:
            assert dead not in shard.holders()

    def test_failover_budget_exhaustion_raises(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        with pytest.raises(ClusterError, match="failover"):
            execute_with_failover(
                workload.plan_for_map,
                workload.sharded(3).shard_map,
                cluster,
                config,
                faults=one_node_failure_plan(),
                max_failovers=0,
            )

    def test_clean_run_needs_no_failover(self, workload):
        cluster = workload.cluster(3, threads=2)
        config = workload.sim_config(cluster)
        outcome = execute_with_failover(
            workload.plan_for_map,
            workload.sharded(3).shard_map,
            cluster,
            config,
        )
        assert outcome.attempts == 1
        assert outcome.failed_nodes == ()
