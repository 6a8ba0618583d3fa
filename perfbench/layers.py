"""The per-layer metrics and table of a traced run."""

from __future__ import annotations

from typing import Any

from tracing import OPERATOR_KINDS, SpanTable, Tracer

#: name -> unit, in the order of BENCHMARK.json's ``per_layer``.
PER_LAYER: dict[str, str] = {
    "core.mutate.calls": "count",
    "core.mutate.ms": "ms",
    "core.mutate.self_ms": "ms",
    "core.mutate.accept_ratio": "ratio",
    "plan.analyze.calls": "count",
    "plan.analyze.ms": "ms",
    "plan.nodes.calls_per_run": "calls/run",
    "plan.nodes.ms": "ms",
    "plan.fingerprints.ms": "ms",
    "engine.execute.ms": "ms",
    "engine.simulate.self_ms": "ms",
    "engine.simulate.us_per_node": "us",
    "engine.submit.ms": "ms",
    "engine.machine.compute_rate.calls": "count",
    "engine.machine.compute_rate.ms": "ms",
    "engine.memo.hits": "count",
    "engine.memo.misses": "count",
    "engine.memo.evictions": "count",
    "engine.memo.hit_rate": "ratio",
    "engine.memo.ms": "ms",
    "costmodel.compute_work.calls": "count",
    "costmodel.compute_work.ms": "ms",
    "operators.evaluate.calls": "count",
    "operators.evaluate.ms": "ms",
    "operators.work_profile.ms": "ms",
    **{f"operators.{kind}.ms": "ms" for kind in OPERATOR_KINDS},
    "sql.plan.calls": "count",
    "sql.plan.ms": "ms",
    "sql.plan_cache.hit_rate": "ratio",
    "serve.admission.calls": "count",
    "serve.admission.ms": "ms",
    "serve.admitted": "count",
    "serve.rejected": "count",
    "serve.admission_waits": "count",
    "serve.peak_queue_depth": "count",
    "serve.retries": "count",
    "serve.timeouts": "count",
    "serve.abandoned": "count",
    "chaos.faults_injected": "count",
    "cluster.mutate.calls": "count",
    "cluster.mutate.ms": "ms",
    "cluster.moves.free": "count",
    "cluster.moves.paid": "count",
    "cluster.execute.ms": "ms",
    "workloads.generate_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    table: SpanTable, tracer: Tracer, result: Any
) -> dict[str, dict]:
    """Every per-layer metric of one traced pass, with its unit.

    ``trace.overhead_ratio`` needs the untraced wall time and is left at 0
    for the caller to fill in.
    """
    counts = result.counts
    mutate_calls, mutate_ms, mutate_self = table.by_name("core.mutate")
    analyze_calls, analyze_ms, __ = table.by_name("plan.analyze")
    nodes_calls, nodes_ms, __ = table.by_name("plan.nodes")
    submits, submit_ms, __ = table.by_name("engine.submit")
    rate_calls, rate_ms, __ = table.by_name("engine.machine.compute_rate")
    work_calls, work_ms, __ = table.by_name("costmodel.compute_work")
    __, __, simulate_self = table.by_name("engine.simulate")
    eval_calls, eval_ms, __ = table.by_prefix("operators.evaluate:")
    sql_calls, sql_ms, __ = table.by_name("sql.plan")
    admission_calls, admission_ms, __ = table.by_name("serve.admission")
    cluster_calls, cluster_ms, __ = table.by_name("cluster.mutate")
    hits = sum(m.stats().hits for m in tracer.memos)
    misses = sum(m.stats().misses for m in tracer.memos)
    plan_hits = sum(c.hits for c in tracer.plan_caches)
    plan_lookups = plan_hits + sum(c.misses for c in tracer.plan_caches)
    values = {
        "core.mutate.calls": mutate_calls,
        "core.mutate.ms": mutate_ms,
        "core.mutate.self_ms": mutate_self,
        "core.mutate.accept_ratio": _ratio(counts.get("mutations_accepted", 0),
                                           mutate_calls),
        "plan.analyze.calls": analyze_calls,
        "plan.analyze.ms": analyze_ms,
        "plan.nodes.calls_per_run": _ratio(nodes_calls, submits),
        "plan.nodes.ms": nodes_ms,
        "plan.fingerprints.ms": table.by_name("plan.fingerprints")[1],
        "engine.execute.ms": table.by_name("engine.execute")[1],
        "engine.simulate.self_ms": simulate_self,
        "engine.simulate.us_per_node": _ratio(simulate_self * 1000.0, work_calls),
        "engine.submit.ms": submit_ms,
        "engine.machine.compute_rate.calls": rate_calls,
        "engine.machine.compute_rate.ms": rate_ms,
        "engine.memo.hits": hits,
        "engine.memo.misses": misses,
        "engine.memo.evictions": sum(m.stats().evictions for m in tracer.memos),
        "engine.memo.hit_rate": _ratio(hits, hits + misses),
        "engine.memo.ms": table.by_name("engine.memo")[1],
        "costmodel.compute_work.calls": work_calls,
        "costmodel.compute_work.ms": work_ms,
        "operators.evaluate.calls": eval_calls,
        "operators.evaluate.ms": eval_ms,
        "operators.work_profile.ms": table.by_prefix("operators.work_profile:")[1],
        **{
            f"operators.{kind}.ms": table.by_name(f"operators.evaluate:{kind}")[1]
            for kind in OPERATOR_KINDS
        },
        "sql.plan.calls": sql_calls,
        "sql.plan.ms": sql_ms,
        "sql.plan_cache.hit_rate": _ratio(plan_hits, plan_lookups),
        "serve.admission.calls": admission_calls,
        "serve.admission.ms": admission_ms,
        **{
            f"serve.{key}": counts.get(key, 0)
            for key in ("admitted", "rejected", "admission_waits",
                        "peak_queue_depth", "retries", "timeouts", "abandoned")
        },
        "chaos.faults_injected": counts.get("faults_injected", 0),
        "cluster.mutate.calls": cluster_calls,
        "cluster.mutate.ms": cluster_ms,
        "cluster.moves.free": counts.get("moves_free", 0),
        "cluster.moves.paid": counts.get("moves_paid", 0),
        "cluster.execute.ms": table.by_name("cluster.execute")[1],
        "workloads.generate_ms": table.by_name("workloads.generate")[1],
        "trace.unattributed_ms": table.unattributed_ms,
        "trace.overhead_ratio": 0.0,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def render_table(table: SpanTable, layers: dict[str, float]) -> list[str]:
    """The per-layer table: self time per layer, then per boundary."""
    wall = table.wall_ms
    lines = [f"{'layer':<40} {'self ms':>12} {'share':>7}"]
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<40} {ms:>12.3f} {ms / wall:>7.1%}")
    lines.append(f"{'(unattributed)':<40} {table.unattributed_ms:>12.3f} "
                 f"{table.unattributed_ms / wall:>7.1%}")
    lines.append(f"{'boundary':<40} {'calls':>10} {'incl ms':>12} {'self ms':>12}")
    for name, calls, incl, own in table.rows():
        lines.append(f"{name:<40} {calls:>10} {incl:>12.3f} {own:>12.3f}")
    return lines
